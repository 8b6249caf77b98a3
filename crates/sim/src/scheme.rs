//! The pluggable LLC interface and workload types.

use wp_mem::{LineAddr, PageId, PoolId};
use wp_noc::CoreId;
use wp_trace::EventBatch;

use crate::uncore::Uncore;

/// One event of a workload's LLC-bound access stream.
///
/// The reproduction's application models emit *L2-filtered* streams: each
/// event is an access that missed the private caches, with `gap_instrs`
/// instructions retired since the previous event. This matches the paper's
/// level of abstraction (per-pool APKI at the LLC) and the >5 L2 MPKI
/// selection criterion of Appendix A.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Instructions executed since the previous event.
    pub gap_instrs: u32,
    /// The line accessed.
    pub line: LineAddr,
    /// Whether the access is a write.
    pub is_write: bool,
}

/// A workload: an infinite (or finite) LLC-bound access stream.
///
/// Workloads are `Send` so a whole simulation — bundle, scheme, driver —
/// can be handed to a worker thread; the parallel sweep runner fans
/// (scheme × app) cells across a thread pool on this guarantee.
pub trait Workload: Send {
    /// The next event, or `None` when the workload has finished.
    fn next_event(&mut self) -> Option<TraceEvent>;

    /// Appends up to `max` events to `batch`, returning how many were
    /// produced. Fewer than `max` (including zero) means the workload has
    /// finished — exactly the condition under which
    /// [`next_event`](Workload::next_event) would have returned `None`
    /// within the next `max` pulls.
    ///
    /// The default pulls through `next_event`, so every workload is
    /// batchable; sources with a cheaper bulk path
    /// ([`TraceWorkload`](crate::TraceWorkload)) override it. The driver
    /// pulls every quantum through this method.
    fn fill_batch(&mut self, batch: &mut EventBatch, max: usize) -> usize {
        let start = batch.len();
        while batch.len() - start < max {
            match self.next_event() {
                Some(ev) => batch.push(ev.gap_instrs, ev.line, ev.is_write),
                None => break,
            }
        }
        batch.len() - start
    }
}

impl<F: FnMut() -> Option<TraceEvent> + Send> Workload for F {
    fn next_event(&mut self) -> Option<TraceEvent> {
        self()
    }
}

/// Static description of one memory pool of a workload, for schemes that
/// consume classification (Whirlpool) and for reporting.
#[derive(Debug, Clone)]
pub struct PoolDescriptor {
    /// Human-readable name ("points", "vertices", …).
    pub name: String,
    /// Allocator pool id, if the data was pool-allocated.
    pub pool: Option<PoolId>,
    /// Pages belonging to the pool.
    pub pages: Vec<PageId>,
    /// Footprint in bytes.
    pub bytes: u64,
}

/// A workload plus its static classification, as handed to the simulator.
pub struct WorkloadBundle {
    /// The access stream.
    pub trace: Box<dyn Workload>,
    /// The workload's memory pools. Schemes that ignore classification
    /// (everything except Whirlpool) simply disregard these.
    pub pools: Vec<PoolDescriptor>,
    /// Workload name for reports.
    pub name: String,
}

impl std::fmt::Debug for WorkloadBundle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkloadBundle")
            .field("name", &self.name)
            .field("pools", &self.pools.len())
            .finish()
    }
}

/// Where an LLC access was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LlcOutcome {
    /// Served by an LLC bank.
    Hit,
    /// Missed; served by memory through a bank.
    Miss,
    /// Never looked up the LLC: went straight to memory (bypass VC).
    Bypass,
}

/// The scheme's answer to one access.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LlcResponse {
    /// Cycles of data stall this access contributes (beyond the private
    /// caches).
    pub latency: f64,
    /// How it was served.
    pub outcome: LlcOutcome,
}

/// The per-event clock protocol of a batched quantum.
///
/// Within a quantum, the core clock and the uncore's notion of "now"
/// advance around every scheme access:
///
/// ```text
/// cycles += gap · base_cpi;  now = max(now, cycles as u64);   // pre
/// resp = scheme.access(...);
/// cycles += resp.latency / mlp;                               // post
/// ```
///
/// Event *i+1*'s memory queueing depends on event *i*'s latency through
/// `now`, so a batched scheme cannot reorder accesses — what it gains from
/// the batch is *lookahead* (prefetching tag arrays for upcoming lines),
/// not reordering. `BatchClock` packages the exact f64 arithmetic above so
/// every [`LlcScheme::access_batch`] implementation replays it
/// bit-identically; the driver then replays the same sequence once more
/// when it folds latencies into per-core statistics.
#[derive(Debug, Clone, Copy)]
pub struct BatchClock {
    /// The executing core's local clock, in cycles.
    pub cycles: f64,
    base_cpi: f64,
    mlp: f64,
    core_idx: usize,
}

impl BatchClock {
    /// Starts a quantum clock at `cycles` for core `core_idx`.
    pub fn new(cycles: f64, base_cpi: f64, mlp: f64, core_idx: usize) -> Self {
        Self {
            cycles,
            base_cpi,
            mlp,
            core_idx,
        }
    }

    /// Advances past the instruction gap before an access and publishes
    /// the core's clock to the uncore — must precede the scheme access.
    #[inline]
    pub fn pre_access(&mut self, gap_instrs: u32, uncore: &mut Uncore) {
        self.cycles += f64::from(gap_instrs) * self.base_cpi;
        uncore.interval_instructions[self.core_idx] += u64::from(gap_instrs);
        uncore.now = uncore.now.max(self.cycles as u64);
    }

    /// Charges an access's stall to the clock — must follow the scheme
    /// access, before the next event's `pre_access`.
    #[inline]
    pub fn post_access(&mut self, latency: f64) {
        self.cycles += latency / self.mlp;
    }
}

/// A last-level cache management scheme.
///
/// Implementations receive every LLC-bound access, charge latency/energy
/// through the [`Uncore`] helpers (so accounting is identical across
/// schemes), and may reorganize themselves at reconfiguration boundaries.
///
/// Like [`Workload`], schemes are `Send`: every evaluated scheme is plain
/// data, and the parallel sweep runner runs one simulator per worker
/// thread.
pub trait LlcScheme: Send {
    /// Scheme name for reports ("S-NUCA (LRU)", "Jigsaw", "Whirlpool", …).
    fn name(&self) -> String;

    /// Called once per core before simulation with the core's workload
    /// classification. Schemes that use static information (Whirlpool)
    /// build per-pool VCs here; others ignore it.
    fn attach_core(&mut self, core: CoreId, pools: &[PoolDescriptor]);

    /// Serves one LLC-bound access.
    fn access(&mut self, ctx: AccessContext, uncore: &mut Uncore) -> LlcResponse;

    /// Serves one quantum of accesses from `core`, pushing one response
    /// per event onto `out`.
    ///
    /// Must be observably identical to calling [`access`](Self::access)
    /// per event under the [`BatchClock`] protocol — same responses, same
    /// uncore/energy mutations, same internal state. The default does
    /// exactly that. Overrides exist purely for speed: with the whole
    /// batch visible, a scheme can software-prefetch the tag/replacement
    /// arrays of *upcoming* events' banks while serving the current one,
    /// which per-event virtual dispatch can never do.
    fn access_batch(
        &mut self,
        core: CoreId,
        batch: &EventBatch,
        clock: &mut BatchClock,
        uncore: &mut Uncore,
        out: &mut Vec<LlcResponse>,
    ) {
        for i in 0..batch.len() {
            clock.pre_access(batch.gaps[i], uncore);
            let resp = self.access(
                AccessContext {
                    core,
                    line: batch.lines[i],
                    is_write: batch.writes[i],
                },
                uncore,
            );
            clock.post_access(resp.latency);
            out.push(resp);
        }
    }

    /// Called at every reconfiguration interval (25 ms in the paper).
    /// Dynamic schemes re-size/re-place here; static ones do nothing.
    fn reconfigure(&mut self, uncore: &mut Uncore);

    /// Optional: per-bank occupancy fractions by logical owner, for the
    /// placement maps of Figs. 3–5. Keyed by `(bank index, owner label,
    /// fraction of bank)`. Default: unknown.
    fn bank_occupancy(&self) -> Vec<(usize, String, f64)> {
        Vec::new()
    }

    /// Optional: a read-only snapshot of every pool/VC's current
    /// allocation and cumulative demand, for the driver's occupancy
    /// timeline probe ([`SimConfig::observe`](crate::SimConfig::observe)).
    /// Pool-less schemes report nothing.
    fn pool_occupancy(&self) -> Vec<wp_obs::PoolOcc> {
        Vec::new()
    }

    /// Optional: the log of runtime reallocations performed so far —
    /// one [`wp_obs::ReconfigEvent`] per [`reconfigure`](Self::reconfigure)
    /// for dynamic schemes, empty for static ones.
    fn reconfig_log(&self) -> Vec<wp_obs::ReconfigEvent> {
        Vec::new()
    }
}

impl LlcScheme for Box<dyn LlcScheme> {
    fn name(&self) -> String {
        self.as_ref().name()
    }

    fn attach_core(&mut self, core: CoreId, pools: &[PoolDescriptor]) {
        self.as_mut().attach_core(core, pools);
    }

    fn access(&mut self, ctx: AccessContext, uncore: &mut Uncore) -> LlcResponse {
        self.as_mut().access(ctx, uncore)
    }

    fn access_batch(
        &mut self,
        core: CoreId,
        batch: &EventBatch,
        clock: &mut BatchClock,
        uncore: &mut Uncore,
        out: &mut Vec<LlcResponse>,
    ) {
        // Forward explicitly so a concrete scheme's override still fires
        // through the usual `Box<dyn LlcScheme>` the harness hands around.
        self.as_mut().access_batch(core, batch, clock, uncore, out);
    }

    fn reconfigure(&mut self, uncore: &mut Uncore) {
        self.as_mut().reconfigure(uncore);
    }

    fn bank_occupancy(&self) -> Vec<(usize, String, f64)> {
        self.as_ref().bank_occupancy()
    }

    fn pool_occupancy(&self) -> Vec<wp_obs::PoolOcc> {
        self.as_ref().pool_occupancy()
    }

    fn reconfig_log(&self) -> Vec<wp_obs::ReconfigEvent> {
        self.as_ref().reconfig_log()
    }
}

/// Context for one LLC access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessContext {
    /// The requesting core.
    pub core: CoreId,
    /// The line accessed.
    pub line: LineAddr,
    /// Whether the access is a write.
    pub is_write: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closure_is_a_workload() {
        let mut n = 0u64;
        let mut w = move || {
            n += 1;
            if n <= 2 {
                Some(TraceEvent {
                    gap_instrs: 10,
                    line: LineAddr(n),
                    is_write: false,
                })
            } else {
                None
            }
        };
        assert!(w.next_event().is_some());
        assert!(w.next_event().is_some());
        assert!(w.next_event().is_none());
    }

    #[test]
    fn simulation_stack_is_send() {
        // Compile-time guarantee the sweep runner relies on: bundles,
        // boxed schemes, and whole simulators cross thread boundaries.
        fn assert_send<T: Send>() {}
        assert_send::<WorkloadBundle>();
        assert_send::<Box<dyn Workload>>();
        assert_send::<Box<dyn LlcScheme>>();
        assert_send::<crate::MultiCoreSim<Box<dyn LlcScheme>>>();
        assert_send::<crate::RunSummary>();
    }

    #[test]
    fn bundle_debug_is_compact() {
        let b = WorkloadBundle {
            trace: Box::new(|| None),
            pools: vec![],
            name: "dt".into(),
        };
        let s = format!("{b:?}");
        assert!(s.contains("dt"));
    }
}
