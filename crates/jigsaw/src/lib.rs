//! Jigsaw: the software-defined, shared-baseline D-NUCA that Whirlpool
//! builds on (Sec. 2.4; Beckmann & Sanchez, PACT'13 / HPCA'15).
//!
//! Jigsaw groups bank partitions into *virtual caches* (VCs). Pages map to a
//! VC through the TLB; a per-core *virtual-cache translation buffer* (VTB)
//! maps each address to its unique bank — data never migrates in response
//! to accesses, so every access is a single lookup. A lightweight OS runtime
//! periodically (every 25 ms) re-sizes VCs using end-to-end *latency curves*
//! and re-places them with the *trading* placement algorithm driven by
//! access intensity (APKI per MB).
//!
//! The same machinery, parameterized, *is* Whirlpool: [`NucaRuntime`] with
//! [`NucaConfig::per_pool_vcs`] on gives each pool of the workload's
//! static classification its own VC. That mirrors the paper: "Whirlpool
//! chooses VC sizes identically to Jigsaw, with the only difference being
//! that each memory pool gets its own VC."
//!
//! Entry points:
//! * [`NucaRuntime`] / [`NucaConfig`] — the runtime, which plugs into
//!   [`wp_sim::MultiCoreSim`] as either scheme:
//!
//! ```
//! use wp_jigsaw::{NucaConfig, NucaRuntime};
//! use wp_sim::{LlcScheme, SystemConfig};
//!
//! let sys = SystemConfig::four_core();
//! // Jigsaw: thread/process VCs only, with the bypass extension.
//! let jigsaw = NucaRuntime::new(sys.clone(), NucaConfig::for_system(&sys, false, true), "Jigsaw");
//! // Whirlpool: the same runtime with a VC per pool.
//! let whirlpool =
//!     NucaRuntime::new(sys.clone(), NucaConfig::for_system(&sys, true, true), "Whirlpool");
//! assert_eq!((jigsaw.name(), whirlpool.name()), ("Jigsaw".into(), "Whirlpool".into()));
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod placement;
mod runtime;
mod sizing;
mod vc;
mod vtb;

pub use placement::{place_and_trade, PlacementInput, PlacementResult};
pub use runtime::{NucaConfig, NucaRuntime};
pub use sizing::{size_vcs, SizingInput, SizingOutcome};
pub use vc::{VcKind, VcState};
pub use vtb::Vtb;
