//! The repository benchmark: named workloads over the TIL compiler and
//! its runtime, with end-to-end metrics measured untraced and
//! per-layer metrics from a separate, layer-by-layer traced run. See
//! `README.md` in this directory.

pub mod bench;
pub mod stats;
pub mod traced;
