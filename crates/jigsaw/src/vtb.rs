//! The virtual-cache translation buffer (VTB).
//!
//! Each VTB entry is "essentially a configurable hash function that maps an
//! address to its unique location" (Sec. 2.4, Fig. 7b): data does not
//! migrate in response to accesses, so one lookup suffices. We model the
//! entry as a bucket array whose entries point at banks in proportion to
//! the VC's per-bank capacity shares.

use wp_mem::LineAddr;
use wp_noc::BankId;

/// Bucket count per VTB entry. 128 buckets give sub-1% share rounding on
/// the 25-bank chip and match the small-hardware spirit of the real VTB.
/// A power of two, so a lookup masks instead of dividing.
const BUCKETS: usize = 128;
const _: () = assert!(BUCKETS.is_power_of_two());

/// One VC's address→bank mapping.
#[derive(Debug, Clone)]
pub struct Vtb {
    buckets: [BankId; BUCKETS],
}

impl Vtb {
    /// Builds the mapping from `(bank, share)` pairs; shares are relative
    /// weights (line quotas). Banks with zero share receive no buckets.
    ///
    /// # Panics
    ///
    /// Panics if `shares` is empty or all shares are zero.
    pub fn from_shares(shares: &[(BankId, u64)]) -> Self {
        let total: u64 = shares.iter().map(|&(_, s)| s).sum();
        assert!(
            !shares.is_empty() && total > 0,
            "VTB needs at least one non-zero share"
        );
        // Buckets past the last apportioned one go to the last bank.
        let mut buckets = [shares.last().expect("non-empty").0; BUCKETS];
        // Largest-remainder apportionment keeps bucket counts proportional
        // and deterministic.
        let mut acc = 0u64;
        let mut assigned = 0usize;
        for &(bank, share) in shares {
            acc += share;
            let upto = ((acc as u128 * BUCKETS as u128) / total as u128) as usize;
            buckets[assigned..upto].fill(bank);
            assigned = upto;
        }
        Self { buckets }
    }

    /// A degenerate mapping for a zero-capacity VC: all addresses fall in
    /// `home` (where coherence checks land when the VC is not bypassed).
    pub fn degenerate(home: BankId) -> Self {
        Self {
            buckets: [home; BUCKETS],
        }
    }

    /// Updates the mapping to new shares while **minimally** reassigning
    /// buckets: banks keep their existing buckets up to their new target
    /// count, and only the surplus moves. This is what keeps Jigsaw's
    /// reconfigurations cheap — unchanged regions of the address space stay
    /// in place, so resident lines stay reachable instead of becoming dead
    /// copies after every reconfiguration.
    ///
    /// # Panics
    ///
    /// Panics if `shares` is empty or all-zero.
    pub fn rebalance(&mut self, shares: &[(BankId, u64)]) {
        let total: u64 = shares.iter().map(|&(_, s)| s).sum();
        assert!(
            !shares.is_empty() && total > 0,
            "VTB needs at least one non-zero share"
        );
        // Largest-remainder target bucket counts.
        let mut targets: Vec<(BankId, usize)> = Vec::with_capacity(shares.len());
        let mut acc = 0u64;
        let mut assigned = 0usize;
        for &(bank, share) in shares {
            acc += share;
            let upto = ((acc as u128 * BUCKETS as u128) / total as u128) as usize;
            targets.push((bank, upto - assigned));
            assigned = upto;
        }
        if assigned < BUCKETS {
            if let Some(last) = targets.last_mut() {
                last.1 += BUCKETS - assigned;
            }
        }
        let target_of: std::collections::HashMap<u16, usize> =
            targets.iter().map(|&(b, n)| (b.0, n)).collect();
        // Count current buckets per bank; find surplus bucket positions.
        let mut have: std::collections::HashMap<u16, usize> = std::collections::HashMap::new();
        let mut surplus_slots = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let cnt = have.entry(b.0).or_insert(0);
            *cnt += 1;
            if *cnt > target_of.get(&b.0).copied().unwrap_or(0) {
                surplus_slots.push(i);
            }
        }
        // Hand surplus slots to under-provisioned banks.
        let mut slot_iter = surplus_slots.into_iter();
        for &(bank, want) in &targets {
            let got = have.get(&bank.0).copied().unwrap_or(0).min(want);
            for _ in got..want {
                let Some(slot) = slot_iter.next() else { return };
                self.buckets[slot] = bank;
            }
        }
    }

    /// The bank holding `line`.
    pub fn lookup(&self, line: LineAddr) -> BankId {
        // Mix the line address so strided streams spread across buckets.
        let mut h = line.0;
        h ^= h >> 30;
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 27;
        self.buckets[h as usize & (BUCKETS - 1)]
    }

    /// The set of banks this VTB can return.
    pub fn banks(&self) -> Vec<BankId> {
        let mut banks = self.buckets.to_vec();
        banks.sort();
        banks.dedup();
        banks
    }

    /// Fraction of buckets pointing at `bank`.
    pub fn share_of(&self, bank: BankId) -> f64 {
        self.buckets.iter().filter(|&&b| b == bank).count() as f64 / BUCKETS as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_are_proportional() {
        let vtb = Vtb::from_shares(&[(BankId(0), 3000), (BankId(1), 1000)]);
        assert!((vtb.share_of(BankId(0)) - 0.75).abs() < 0.02);
        assert!((vtb.share_of(BankId(1)) - 0.25).abs() < 0.02);
    }

    #[test]
    fn zero_share_banks_excluded() {
        let vtb = Vtb::from_shares(&[(BankId(0), 100), (BankId(1), 0), (BankId(2), 100)]);
        assert!(!vtb.banks().contains(&BankId(1)));
    }

    #[test]
    fn lookup_is_deterministic_and_covers_banks() {
        let vtb = Vtb::from_shares(&[(BankId(3), 1), (BankId(7), 1)]);
        let a = vtb.lookup(LineAddr(12345));
        assert_eq!(a, vtb.lookup(LineAddr(12345)));
        let mut seen = std::collections::HashSet::new();
        for l in 0..1000u64 {
            seen.insert(vtb.lookup(LineAddr(l)));
        }
        assert_eq!(seen.len(), 2, "both banks should receive traffic");
    }

    #[test]
    fn empirical_split_tracks_shares() {
        let vtb = Vtb::from_shares(&[(BankId(0), 7), (BankId(1), 1)]);
        let mut count0 = 0;
        let n = 20_000u64;
        for l in 0..n {
            if vtb.lookup(LineAddr(l)) == BankId(0) {
                count0 += 1;
            }
        }
        let frac = count0 as f64 / n as f64;
        assert!((frac - 0.875).abs() < 0.03, "split {frac} too far from 7/8");
    }

    #[test]
    fn degenerate_maps_everything_home() {
        let vtb = Vtb::degenerate(BankId(9));
        for l in [0u64, 1, 99, 12_345_678] {
            assert_eq!(vtb.lookup(LineAddr(l)), BankId(9));
        }
    }

    #[test]
    #[should_panic(expected = "non-zero share")]
    fn all_zero_shares_panic() {
        Vtb::from_shares(&[(BankId(0), 0)]);
    }

    #[test]
    fn rebalance_is_minimal() {
        let mut vtb = Vtb::from_shares(&[(BankId(0), 100), (BankId(1), 100)]);
        let before = vtb.buckets;
        // Small shift: 50/50 -> 55/45 should move ~6/128 buckets.
        vtb.rebalance(&[(BankId(0), 110), (BankId(1), 90)]);
        let moved = before
            .iter()
            .zip(&vtb.buckets)
            .filter(|(a, b)| a != b)
            .count();
        assert!(moved <= 10, "moved {moved} buckets for a 5% shift");
        assert!((vtb.share_of(BankId(0)) - 0.55).abs() < 0.03);
    }

    #[test]
    fn rebalance_reaches_target_proportions() {
        let mut vtb = Vtb::degenerate(BankId(9));
        vtb.rebalance(&[(BankId(2), 1), (BankId(3), 3)]);
        assert!((vtb.share_of(BankId(2)) - 0.25).abs() < 0.03);
        assert!((vtb.share_of(BankId(3)) - 0.75).abs() < 0.03);
        assert_eq!(vtb.share_of(BankId(9)), 0.0);
    }

    #[test]
    fn rebalance_identity_moves_nothing() {
        let mut vtb = Vtb::from_shares(&[(BankId(0), 5), (BankId(4), 3)]);
        let before = vtb.buckets;
        vtb.rebalance(&[(BankId(0), 5), (BankId(4), 3)]);
        assert_eq!(before, vtb.buckets);
    }

    #[test]
    fn rebalance_dropping_a_bank_moves_only_its_buckets() {
        let mut vtb = Vtb::from_shares(&[(BankId(0), 1), (BankId(1), 1), (BankId(2), 2)]);
        let before = vtb.buckets;
        vtb.rebalance(&[(BankId(0), 1), (BankId(2), 2)]);
        // Only former bank-1 buckets may have changed.
        for (a, b) in before.iter().zip(&vtb.buckets) {
            if a != b {
                assert_eq!(*a, BankId(1));
            }
        }
        assert_eq!(vtb.share_of(BankId(1)), 0.0);
    }
}
