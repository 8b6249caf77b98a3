//! Whirlpool as a configuration of the NUCA runtime: per-pool VCs, with
//! and without bypassing, exactly as the harness builds it.

#[cfg(test)]
mod tests {
    use wp_jigsaw::{NucaConfig, NucaRuntime};
    use wp_mem::{LineAddr, PoolId};
    use wp_noc::CoreId;
    use wp_sim::{AccessContext, LlcOutcome, LlcScheme, PoolDescriptor, SystemConfig, Uncore};

    fn sys() -> SystemConfig {
        SystemConfig::four_core()
    }

    /// Whirlpool as the harness builds it: per-pool VCs, with or without
    /// bypassing.
    fn whirlpool(bypass: bool) -> NucaRuntime {
        let label = if bypass {
            "Whirlpool"
        } else {
            "Whirlpool-NoBypass"
        };
        NucaRuntime::new(sys(), NucaConfig::for_system(&sys(), true, bypass), label)
    }

    fn pool(name: &str, id: u32, first_page: u64, pages: u64) -> PoolDescriptor {
        PoolDescriptor {
            name: name.into(),
            pool: Some(PoolId(id)),
            pages: (first_page..first_page + pages)
                .map(wp_mem::PageId)
                .collect(),
            bytes: pages * 4096,
        }
    }

    fn ctx(core: u16, line: u64) -> AccessContext {
        AccessContext {
            core: CoreId(core),
            line: LineAddr(line),
            is_write: false,
        }
    }

    #[test]
    fn per_pool_vcs_are_created() {
        let mut w = whirlpool(true);
        w.attach_core(
            CoreId(0),
            &[pool("vertices", 1, 100, 16), pool("edges", 2, 200, 64)],
        );
        // process + thread0 + 2 pools
        assert_eq!(w.vcs().len(), 4);
    }

    #[test]
    fn mis_like_bypass_of_streaming_edges() {
        // The Fig. 9/10 behaviour: vertices cache well and get capacity;
        // edges stream and end up bypassed.
        let mut w = whirlpool(true);
        let mut u = Uncore::new(sys());
        // vertices: 1 MB = 256 pages at page 1000; edges: big, at 10000.
        w.attach_core(
            CoreId(0),
            &[
                pool("vertices", 1, 1000, 256),
                pool("edges", 2, 10_000, 4096),
            ],
        );
        let vline = |i: u64| 1000 * 64 + (i % 16_384); // within vertices pages
        let eline = |i: u64| 10_000 * 64 + i; // streaming through edges
        let mut e = 0u64;
        for _ in 0..2 {
            for i in 0..120_000u64 {
                w.access(ctx(0, vline(i)), &mut u);
                w.access(ctx(0, eline(e)), &mut u);
                e += 1;
            }
            u.interval_instructions[0] = 2_000_000;
            w.reconfigure(&mut u);
        }
        let allocs = w.allocations();
        let vertices = allocs.iter().find(|(n, _, _)| n == "vertices").unwrap();
        let edges = allocs.iter().find(|(n, _, _)| n == "edges").unwrap();
        assert!(vertices.1 > 0, "vertices should get capacity");
        assert!(!vertices.2, "vertices must not be bypassed");
        assert!(edges.2, "edges should be bypassed");
        // And a streaming access now bypasses.
        let r = w.access(ctx(0, eline(e)), &mut u);
        assert_eq!(r.outcome, LlcOutcome::Bypass);
    }

    #[test]
    fn no_bypass_variant_never_bypasses() {
        let mut w = whirlpool(false);
        let mut u = Uncore::new(sys());
        w.attach_core(CoreId(0), &[pool("edges", 1, 10_000, 4096)]);
        let mut e = 0u64;
        for _ in 0..2 {
            for _ in 0..100_000u64 {
                w.access(ctx(0, 10_000 * 64 + e), &mut u);
                e += 1;
            }
            u.interval_instructions[0] = 1_000_000;
            w.reconfigure(&mut u);
        }
        assert!(w.allocations().iter().all(|(_, _, b)| !b));
    }

    #[test]
    fn scheme_names() {
        assert_eq!(whirlpool(true).name(), "Whirlpool");
        assert_eq!(whirlpool(false).name(), "Whirlpool-NoBypass");
    }
}
