//! linkbench: the linkpad workspace's benchmark.
//!
//! `cargo run --release --manifest-path linkbench/Cargo.toml -- --workload
//! <lab_cross|gateway_trunk|cohort_defenses> --seed <n> --seconds <s>
//! --trace <0|1>` runs one workload in a closed loop for the given
//! seconds and prints, as its last stdout line, one JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). See [`workloads`] for what each workload computes and
//! [`report`] for how the metrics are derived.

pub mod report;
pub mod spans;
pub mod workloads;
