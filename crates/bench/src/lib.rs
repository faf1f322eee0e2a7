//! # linkpad-bench
//!
//! Shared experiment harness for the figure-regeneration benches and the
//! criterion microbenches. Each `benches/figN_*.rs` target reproduces one
//! figure of Fu et al. (ICPP 2003); this library holds the common
//! machinery: parallel PIAT collection, detection-rate evaluation, and
//! paper-style table output (stdout + CSV under `target/figures/`).
//! [`perf`] holds the engine-throughput microbench and the experiment
//! policies the fig bins share with the linkbench benchmark
//! (`linkbench/`), which is the workspace's one performance measurement.
//!
//! Scale control: set `LINKPAD_SCALE=quick` for a fast smoke pass or
//! `LINKPAD_SCALE=paper` (default) for the full budgets (see the
//! per-figure experiment index in DESIGN.md).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod perf;
pub mod runner;
pub mod table;

pub use runner::{collect_piats_parallel, detection_for, Budget, CollectionError};
pub use table::{write_csv, Table};
