//! The comparison schemes of the paper's evaluation (Appendix A):
//!
//! * [`SNucaScheme`] — static NUCA: addresses hashed evenly across banks,
//!   with LRU or DRRIP replacement inside each bank. The commercial
//!   baseline (Fig. 3).
//! * [`IdealSpdScheme`] — *IdealSPD*, an idealized private-baseline D-NUCA
//!   granted extra capacity: each core owns a private 1.5 MB L3 that
//!   replicates its 3 closest banks, backed by a fully-provisioned
//!   directory and an exclusive S-NUCA L4 victim cache accessed in
//!   parallel. Upper-bounds DCC/ASR/ECC-style shared-private schemes.
//! * [`AwasthiScheme`] — Awasthi et al. (HPCA'09): shared-baseline
//!   page-granularity D-NUCA using page coloring, a 4-closest-banks initial
//!   allocation, and epoch-based hot-page migration controlled by the
//!   `alpha_a` / `alpha_b` parameters the paper sweeps.
//! * [`MemshareScheme`] — Memshare-style contention-aware apportioning:
//!   one logical partition per core, capacity slabs greedily reassigned
//!   between them at every interval by marginal miss reduction from the
//!   cores' sampled utility curves. The multi-tenant baseline the
//!   `wp-tenant` scenarios evaluate Whirlpool against.
//!
//! All three run on the same [`wp_sim`] substrate and energy accounting as
//! Jigsaw and Whirlpool, so the cross-scheme comparisons are apples to
//! apples.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod awasthi;
mod idealspd;
mod memshare;
mod snuca;

pub use awasthi::{AwasthiParams, AwasthiScheme};
pub use idealspd::IdealSpdScheme;
pub use memshare::MemshareScheme;
pub use snuca::{SNucaScheme, SnucaReplacement};

/// The multiply-xor home bank of `line` among `num_banks` banks: where
/// Memshare's logically global capacity and IdealSPD's S-NUCA L4 place
/// a line, so every access pays the distance to a hashed bank.
fn hashed_bank(line: wp_mem::LineAddr, num_banks: u64) -> wp_noc::BankId {
    let mut h = line.0;
    h ^= h >> 31;
    h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= h >> 29;
    wp_noc::BankId((h % num_banks) as u16)
}
