//! Baseline dispatch schemes mT-Share is evaluated against (Sec. V-A2).
//!
//! - [`NoSharing`]: the regular taxi service (nearest vacant taxi, no
//!   sharing);
//! - [`TShare`]: grid index + dual-side search, first-valid candidate
//!   (Ma et al., ICDE'13);
//! - [`PGreedyDp`]: grid index + optimal O(m²) DP insertion, global
//!   minimum detour (Tong et al., VLDB'18).
//!
//! All three implement the same [`mtshare_model::DispatchScheme`] trait as
//! mT-Share and run against the same shared path cache.

#![warn(missing_docs)]

mod common;
pub mod grid_index;
pub mod no_sharing;
pub mod pgreedy_dp;
pub mod t_share;
#[cfg(test)]
pub(crate) mod testutil;

pub use grid_index::GridTaxiIndex;
pub use no_sharing::NoSharing;
pub use pgreedy_dp::{best_insertion_dp, BestInsertion, PGreedyDp};
pub use t_share::TShare;
