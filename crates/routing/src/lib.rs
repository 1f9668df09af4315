//! Shortest-path engines for mT-Share.
//!
//! Route planning "usually bottlenecks the efficiency of taxi scheduling"
//! (Sec. IV-C2), so this crate provides a family of engines tuned for the
//! query mix the system issues:
//!
//! - [`Dijkstra`]: single-source engine with one-to-all / all-to-one modes;
//! - [`BidirDijkstra`]: point-to-point queries (backs the shared cache);
//! - [`MaskedDijkstra`] + [`NodeMask`]: subgraph search for the paper's
//!   two-phase (partition-filtered) routing, with optional vertex weights
//!   for probabilistic routing;
//! - [`CustomizableCh`] + [`CchQuery`] + [`CchBuckets`]: the one
//!   preprocessed exact engine — a metric-independent hierarchy whose
//!   weights re-customize in milliseconds, with bucket many-to-one batch
//!   queries, persistable as a CRC-framed artifact (see the [`cch`]
//!   module docs);
//! - [`PathCache`]: the one cost cache standing in for the paper's cached
//!   all-pairs table — refcounted pinned one-to-all vectors for active
//!   request endpoints in front of a memo over a pluggable exact backend
//!   ([`RouterBackend`]: bidirectional Dijkstra or the customizable
//!   hierarchy).

#![warn(missing_docs)]

pub mod bidirectional;
pub mod cache;
pub mod cch;
pub mod dijkstra;
pub mod masked;
pub mod order;
pub mod path;

pub use bidirectional::BidirDijkstra;
pub use cache::{CacheStats, PathCache, PinnedReader, RouterBackend};
pub use cch::{CchBuckets, CchMetric, CchQuery, CchStats, CustomizableCh};
pub use dijkstra::{bellman_ford_cost, Dijkstra};
pub use masked::{MaskedDijkstra, NodeMask};
pub use order::NodeOrder;
pub use path::Path;
