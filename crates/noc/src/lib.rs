//! Mesh network-on-chip model for the Whirlpool reproduction.
//!
//! Models the paper's Table-3 NoC: an X-Y-routed mesh with 3-cycle pipelined
//! routers, 2-cycle links, and 128-bit flits, connecting cores, LLC banks,
//! and memory-controller units (MCUs). Two floorplans match the paper's
//! evaluated chips:
//!
//! * [`Floorplan::four_core`] — 5×5 banks (12.5 MB LLC) with 4 cores around
//!   the perimeter (Fig. 1, the Oracle M7-like chip).
//! * [`Floorplan::sixteen_core`] — 9×9 banks (40.5 MB) with 16 cores around
//!   the perimeter (Fig. 12).
//!
//! The crate answers the questions the rest of the system asks of the NoC:
//! hop counts between endpoints, round-trip access latencies, flit-hop
//! counts for energy accounting, and the distance-sorted bank lists that
//! drive Jigsaw's latency model and placement.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod floorplan;
mod mesh;

pub use floorplan::{BankId, CoreId, Floorplan, McuId, NearestBanksLatency};
pub use mesh::{Coord, Mesh};

/// NoC timing/sizing parameters (Table 3 defaults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NocParams {
    /// Pipelined router traversal, cycles per hop.
    pub router_cycles: u64,
    /// Link traversal, cycles per hop.
    pub link_cycles: u64,
    /// Flits in a data-bearing message (64 B line over 128-bit flits,
    /// plus one header flit).
    pub data_flits: u64,
    /// Flits in an address/control message.
    pub ctrl_flits: u64,
}

impl Default for NocParams {
    fn default() -> Self {
        Self {
            router_cycles: 3,
            link_cycles: 2,
            data_flits: 5,
            ctrl_flits: 1,
        }
    }
}

impl NocParams {
    /// One-way latency over `hops` hops (each hop = one router + one link),
    /// in cycles. Zero hops (core accessing its own tile) still pays one
    /// router traversal.
    pub fn one_way_latency(&self, hops: u64) -> u64 {
        if hops == 0 {
            self.router_cycles
        } else {
            hops * (self.router_cycles + self.link_cycles)
        }
    }

    /// Round-trip latency: request (control) out, response (data) back.
    pub fn round_trip_latency(&self, hops: u64) -> u64 {
        2 * self.one_way_latency(hops)
    }

    /// Flit-hops consumed by a request/response pair over `hops` hops —
    /// the quantity the energy model charges for.
    pub fn round_trip_flit_hops(&self, hops: u64) -> u64 {
        (self.ctrl_flits + self.data_flits) * hops.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_scales_with_hops() {
        let p = NocParams::default();
        assert_eq!(p.one_way_latency(1), 5);
        assert_eq!(p.one_way_latency(4), 20);
        assert_eq!(p.round_trip_latency(2), 20);
    }

    #[test]
    fn zero_hop_pays_router() {
        let p = NocParams::default();
        assert_eq!(p.one_way_latency(0), 3);
    }

    #[test]
    fn flit_hops_count_both_directions() {
        let p = NocParams::default();
        assert_eq!(p.round_trip_flit_hops(3), 6 * 3);
    }
}
