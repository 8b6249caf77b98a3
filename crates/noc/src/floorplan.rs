//! Chip floorplans: where cores, banks, and memory controllers sit on the
//! mesh, and the distance queries the rest of the system asks.

use crate::mesh::{Coord, Mesh};
use crate::NocParams;

/// Identifies an LLC bank (one per mesh tile).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BankId(pub u16);

/// Identifies a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CoreId(pub u16);

/// Identifies a memory-controller unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct McuId(pub u16);

/// A chip floorplan: a mesh whose every tile holds one LLC bank, with cores
/// and MCUs attached to specific routers.
///
/// The two constructors reproduce the paper's evaluated systems (Table 3,
/// Fig. 1, Fig. 12). [`Floorplan::custom`] builds arbitrary layouts for
/// tests and ablations.
#[derive(Debug, Clone)]
pub struct Floorplan {
    mesh: Mesh,
    cores: Vec<Coord>,
    mcus: Vec<Coord>,
    params: NocParams,
    /// `banks_by_distance[c]` = bank ids sorted by hops from core `c`
    /// (ties broken by id, so placement is deterministic).
    banks_by_distance: Vec<Vec<BankId>>,
    /// Hop tables, built once so every `hops_*` query on the access path
    /// is one load instead of a tile-index division and two subtractions:
    /// `core_bank_hops[c * banks + b]`, `bank_mcu_hops[b * mcus + m]` and
    /// `core_mcu_hops[c * mcus + m]`.
    core_bank_hops: Vec<u32>,
    bank_mcu_hops: Vec<u32>,
    core_mcu_hops: Vec<u32>,
    /// `mcus - 1` when the MCU count is a power of two, so
    /// [`mcu_of_line`](Self::mcu_of_line) masks instead of dividing.
    mcu_mask: Option<u64>,
}

impl Floorplan {
    /// The 4-core chip of Fig. 1: 5×5 banks (12.5 MB of 512 KB banks), four
    /// cores at the edge midpoints, one MCU attached at the center tile
    /// (neutral with respect to all cores). Core 0 is the *leftmost* core
    /// where the paper runs `dt`.
    pub fn four_core() -> Self {
        let mesh = Mesh::new(5, 5);
        let cores = vec![
            Coord::new(0, 2), // core 0: left
            Coord::new(2, 0), // core 1: top
            Coord::new(4, 2), // core 2: right
            Coord::new(2, 4), // core 3: bottom
        ];
        let mcus = vec![Coord::new(2, 2)];
        Self::custom(mesh, cores, mcus, NocParams::default())
    }

    /// The 16-core chip of Fig. 12: 9×9 banks (40.5 MB), sixteen cores
    /// spread around the perimeter, four MCUs at the corners.
    pub fn sixteen_core() -> Self {
        let mesh = Mesh::new(9, 9);
        let mut cores = Vec::with_capacity(16);
        // Four per side, clockwise from the top edge, matching Fig. 12's
        // even spread of cores around the cache.
        for x in [1u16, 3, 5, 7] {
            cores.push(Coord::new(x, 0));
        }
        for y in [1u16, 3, 5, 7] {
            cores.push(Coord::new(8, y));
        }
        for x in [7u16, 5, 3, 1] {
            cores.push(Coord::new(x, 8));
        }
        for y in [7u16, 5, 3, 1] {
            cores.push(Coord::new(0, y));
        }
        let mcus = vec![
            Coord::new(0, 0),
            Coord::new(8, 0),
            Coord::new(8, 8),
            Coord::new(0, 8),
        ];
        Self::custom(mesh, cores, mcus, NocParams::default())
    }

    /// Builds an arbitrary floorplan.
    ///
    /// # Panics
    ///
    /// Panics if any core/MCU coordinate lies outside the mesh, or if there
    /// are no cores or MCUs.
    pub fn custom(mesh: Mesh, cores: Vec<Coord>, mcus: Vec<Coord>, params: NocParams) -> Self {
        assert!(!cores.is_empty(), "need at least one core");
        assert!(!mcus.is_empty(), "need at least one MCU");
        for &c in cores.iter().chain(mcus.iter()) {
            assert!(mesh.contains(c), "endpoint {c} outside the mesh");
        }
        let mut banks_by_distance = Vec::with_capacity(cores.len());
        for &cc in &cores {
            let mut banks: Vec<BankId> = (0..mesh.tiles() as u16).map(BankId).collect();
            banks.sort_by_key(|&b| (mesh.hops(cc, mesh.coord_of(b.0 as usize)), b.0));
            banks_by_distance.push(banks);
        }
        let table = |from: &[Coord], to: &[Coord]| -> Vec<u32> {
            from.iter()
                .flat_map(|&a| to.iter().map(move |&b| mesh.hops(a, b) as u32))
                .collect()
        };
        let banks: Vec<Coord> = mesh.iter_coords().collect();
        Self {
            mesh,
            core_bank_hops: table(&cores, &banks),
            bank_mcu_hops: table(&banks, &mcus),
            core_mcu_hops: table(&cores, &mcus),
            mcu_mask: mcus
                .len()
                .is_power_of_two()
                .then_some(mcus.len() as u64 - 1),
            cores,
            mcus,
            params,
            banks_by_distance,
        }
    }

    /// The underlying mesh.
    pub fn mesh(&self) -> Mesh {
        self.mesh
    }

    /// NoC parameters.
    pub fn params(&self) -> NocParams {
        self.params
    }

    /// Number of LLC banks (= mesh tiles).
    pub fn num_banks(&self) -> usize {
        self.mesh.tiles()
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Number of MCUs.
    pub fn num_mcus(&self) -> usize {
        self.mcus.len()
    }

    /// Coordinate of a bank.
    pub fn bank_coord(&self, b: BankId) -> Coord {
        self.mesh.coord_of(b.0 as usize)
    }

    /// Router a core is attached to.
    pub fn core_coord(&self, c: CoreId) -> Coord {
        self.cores[c.0 as usize]
    }

    /// Hops from a core to a bank.
    #[inline]
    pub fn hops_core_bank(&self, c: CoreId, b: BankId) -> u64 {
        u64::from(self.core_bank_hops[c.0 as usize * self.num_banks() + b.0 as usize])
    }

    /// Hops from a bank to an MCU.
    #[inline]
    pub fn hops_bank_mcu(&self, b: BankId, m: McuId) -> u64 {
        u64::from(self.bank_mcu_hops[b.0 as usize * self.mcus.len() + m.0 as usize])
    }

    /// Hops from a core to an MCU.
    #[inline]
    pub fn hops_core_mcu(&self, c: CoreId, m: McuId) -> u64 {
        u64::from(self.core_mcu_hops[c.0 as usize * self.mcus.len() + m.0 as usize])
    }

    /// The MCU closest to a core (addresses interleave across MCUs, but the
    /// simulator routes each request to the owning MCU; this helper is used
    /// for latency estimates).
    pub fn nearest_mcu(&self, c: CoreId) -> McuId {
        (0..self.mcus.len() as u16)
            .map(McuId)
            .min_by_key(|&m| (self.hops_core_mcu(c, m), m.0))
            .expect("at least one MCU")
    }

    /// MCU owning a line address (static interleave by line number).
    #[inline]
    pub fn mcu_of_line(&self, line_addr: u64) -> McuId {
        let m = match self.mcu_mask {
            Some(mask) => line_addr & mask,
            None => line_addr % self.mcus.len() as u64,
        };
        McuId(m as u16)
    }

    /// Banks sorted by distance from core `c` (nearest first, stable).
    pub fn banks_by_distance(&self, c: CoreId) -> &[BankId] {
        &self.banks_by_distance[c.0 as usize]
    }

    /// Banks sorted by distance from an arbitrary coordinate (used for
    /// placing shared VCs at their consumers' center of mass).
    pub fn banks_by_distance_from(&self, from: Coord) -> Vec<BankId> {
        let mut banks: Vec<BankId> = (0..self.mesh.tiles() as u16).map(BankId).collect();
        banks.sort_by_key(|&b| (self.mesh.hops(from, self.bank_coord(b)), b.0));
        banks
    }

    /// Builds Jigsaw's size→latency model for a VC consumed from `center`:
    /// the average round-trip + bank latency when the VC's capacity occupies
    /// the nearest banks first, each bank contributing `granules_per_bank`
    /// granules (Sec. 2.4). Index 0 (an empty VC) reuses the nearest bank's
    /// latency — Whirlpool's bypass handling replaces it where allowed.
    pub fn nearest_latency_curve(
        &self,
        center: Coord,
        granules_per_bank: usize,
        bank_cycles: u64,
        max_granules: usize,
    ) -> Vec<f64> {
        assert!(granules_per_bank > 0);
        let banks = self.banks_by_distance_from(center);
        let mut out = Vec::with_capacity(max_granules + 1);
        let mut sum_latency = 0.0f64;
        let mut granules = 0usize;
        let lat = |b: BankId| {
            self.params
                .round_trip_latency(self.mesh.hops(center, self.bank_coord(b))) as f64
                + bank_cycles as f64
        };
        out.push(lat(banks[0]));
        'outer: for &b in &banks {
            let l = lat(b);
            for _ in 0..granules_per_bank {
                sum_latency += l;
                granules += 1;
                out.push(sum_latency / granules as f64);
                if granules >= max_granules {
                    break 'outer;
                }
            }
        }
        // Saturate if the chip ran out of banks.
        while out.len() <= max_granules {
            out.push(*out.last().expect("non-empty"));
        }
        out
    }
}

/// A [`wp_mrc::AccessLatencyModel`] backed by a floorplan's
/// nearest-banks-first latency curve.
#[derive(Debug, Clone)]
pub struct NearestBanksLatency {
    curve: Vec<f64>,
}

impl NearestBanksLatency {
    /// Builds the model for a VC consumed from `center`.
    pub fn new(
        plan: &Floorplan,
        center: Coord,
        granules_per_bank: usize,
        bank_cycles: u64,
        max_granules: usize,
    ) -> Self {
        Self {
            curve: plan.nearest_latency_curve(center, granules_per_bank, bank_cycles, max_granules),
        }
    }
}

impl wp_mrc::AccessLatencyModel for NearestBanksLatency {
    fn access_latency(&self, granules: usize) -> f64 {
        self.curve[granules.min(self.curve.len() - 1)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wp_mrc::AccessLatencyModel;

    #[test]
    fn four_core_layout() {
        let p = Floorplan::four_core();
        assert_eq!(p.num_banks(), 25);
        assert_eq!(p.num_cores(), 4);
        assert_eq!(p.num_mcus(), 1);
        // Core 0 sits at the left edge; its nearest bank is its own tile.
        let nearest = p.banks_by_distance(CoreId(0))[0];
        assert_eq!(p.bank_coord(nearest), Coord::new(0, 2));
    }

    #[test]
    fn sixteen_core_layout() {
        let p = Floorplan::sixteen_core();
        assert_eq!(p.num_banks(), 81);
        assert_eq!(p.num_cores(), 16);
        assert_eq!(p.num_mcus(), 4);
        // All cores on the perimeter.
        for c in 0..16 {
            let cc = p.core_coord(CoreId(c));
            assert!(cc.x == 0 || cc.x == 8 || cc.y == 0 || cc.y == 8);
        }
    }

    #[test]
    fn banks_sorted_by_distance() {
        let p = Floorplan::four_core();
        for core in 0..4u16 {
            let banks = p.banks_by_distance(CoreId(core));
            assert_eq!(banks.len(), 25);
            let mut last = 0;
            for &b in banks {
                let h = p.hops_core_bank(CoreId(core), b);
                assert!(h >= last, "distance order violated");
                last = h;
            }
        }
    }

    #[test]
    fn latency_curve_is_non_decreasing() {
        let p = Floorplan::four_core();
        let curve = p.nearest_latency_curve(p.core_coord(CoreId(0)), 8, 9, 8 * 25 + 10);
        for w in curve.windows(2) {
            assert!(w[1] >= w[0] - 1e-9, "avg latency must grow with size");
        }
        // First point: nearest bank (own tile): round trip 2*3 + bank 9.
        assert!((curve[0] - 15.0).abs() < 1e-9);
    }

    #[test]
    fn latency_model_adapter() {
        let p = Floorplan::four_core();
        let m = NearestBanksLatency::new(&p, p.core_coord(CoreId(0)), 8, 9, 200);
        assert!(m.access_latency(0) <= m.access_latency(100));
        assert!(m.access_latency(10_000) >= m.access_latency(200));
    }

    #[test]
    fn mcu_interleaving_covers_all() {
        let p = Floorplan::sixteen_core();
        let seen: std::collections::HashSet<u16> =
            (0..100u64).map(|a| p.mcu_of_line(a).0).collect();
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn nearest_mcu_is_deterministic() {
        let p = Floorplan::sixteen_core();
        let m1 = p.nearest_mcu(CoreId(0));
        let m2 = p.nearest_mcu(CoreId(0));
        assert_eq!(m1, m2);
    }

    #[test]
    fn hop_tables_equal_mesh_hops_for_every_pair() {
        for p in [Floorplan::four_core(), Floorplan::sixteen_core()] {
            let mesh = p.mesh();
            let banks = (0..p.num_banks() as u16).map(BankId);
            let cores = (0..p.num_cores() as u16).map(CoreId);
            let mcus = (0..p.num_mcus() as u16).map(McuId);
            for c in cores.clone() {
                for b in banks.clone() {
                    let want = mesh.hops(p.core_coord(c), p.bank_coord(b));
                    assert_eq!(p.hops_core_bank(c, b), want, "{c:?} -> {b:?}");
                }
                for m in mcus.clone() {
                    let want = mesh.hops(p.core_coord(c), p.mcus[m.0 as usize]);
                    assert_eq!(p.hops_core_mcu(c, m), want, "{c:?} -> {m:?}");
                }
            }
            for b in banks {
                for m in mcus.clone() {
                    let want = mesh.hops(p.bank_coord(b), p.mcus[m.0 as usize]);
                    assert_eq!(p.hops_bank_mcu(b, m), want, "{b:?} -> {m:?}");
                }
            }
        }
    }

    #[test]
    fn mcu_interleave_masks_and_divides_alike() {
        let three = Floorplan::custom(
            Mesh::new(3, 3),
            vec![Coord::new(0, 0)],
            vec![Coord::new(0, 2), Coord::new(2, 0), Coord::new(2, 2)],
            NocParams::default(),
        );
        for p in [Floorplan::four_core(), Floorplan::sixteen_core(), three] {
            for line in (0..1000u64).chain([u64::MAX - 5, u64::MAX]) {
                assert_eq!(u64::from(p.mcu_of_line(line).0), line % p.num_mcus() as u64);
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside the mesh")]
    fn out_of_mesh_core_panics() {
        Floorplan::custom(
            Mesh::new(2, 2),
            vec![Coord::new(5, 0)],
            vec![Coord::new(0, 0)],
            NocParams::default(),
        );
    }
}
