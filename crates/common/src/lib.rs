//! Shared primitives for the `ruletest` workspace.
//!
//! This crate deliberately has no dependencies: it defines the data model
//! (SQL values and rows), deterministic randomness, identifier newtypes,
//! error types, and multiset-based result comparison that every other crate
//! builds on.

pub mod chaos;
pub mod check;
pub mod error;
pub mod hash;
pub mod ids;
pub mod multiset;
pub mod pool;
pub mod rng;
pub mod supervise;
pub mod value;

pub use error::{Error, Result};
pub use hash::Fnv64;
pub use ids::{ColId, RuleId, TableId};
pub use multiset::{diff_multisets, multisets_equal, ResultDiff};
pub use pool::{par_map, par_map_supervised, poolstats, try_par_map, Parallelism, ThreadPool};
pub use rng::Rng;
pub use supervise::{sandbox, Deadline, Failure};
pub use value::{DataType, Row, Value};
