//! Deterministic run telemetry for the linkpad workspace.
//!
//! Engine self-profiling, causal traces and harness lifecycle events
//! flow through this crate, together with the JSON writer and reader
//! every exported artifact shares. It is deliberately
//! **dependency-free** and split along the determinism boundary:
//!
//! * [`profile`] and [`trace`] are the deterministic core. Values are
//!   integers keyed to *simulated* time (`u64` nanoseconds), so a
//!   profile or trace is a pure function of `(spec, seed)` and the
//!   determinism tests compare them bit for bit. No wall clock exists
//!   in these modules; `linkpad-lint`'s DET_WALLCLOCK rule enforces
//!   that. [`trace`] adds *causality*: an opt-in bounded recorder whose
//!   records carry the **parent event id** threaded through the
//!   engine's scheduler, plus Perfetto / flamegraph exporters.
//! * [`events`] is the harness boundary. Lifecycle events carry
//!   wall-clock stamps (a shard retry *is* a wall-clock phenomenon) and
//!   serialize to JSONL for CI artifacts and downstream tooling. The one
//!   `Instant` lives there behind an individually justified lint
//!   allowlist entry.
//!
//! Run manifests are not a type here: `linkpad-workloads` renders one
//! straight from the sharded run record
//! (`ShardedAggregate::manifest`) with the [`json`] writers.
//!
//! The zero-cost contract: a simulation that never installs a profile
//! or sink pays one predictable branch per run call and nothing per
//! event. That holds by construction: an uninstrumented sim runs the
//! `()`-hook instance of the engine's one event loop, which contains no
//! instrument code. See DESIGN.md §Observability.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod events;
pub mod json;
pub mod profile;
pub mod trace;

pub use events::{EventLog, HarnessEvent};
pub use profile::{DepthSample, EngineProfile, Histogram, ProfileReport, StoreCounters};
pub use trace::{TraceEventKind, TraceRecord, TraceRecorder, TraceReport, NO_PARENT};

/// FNV-1a 64-bit hash — the spec-digest primitive for run manifests.
/// Stable across platforms and releases (it is pure arithmetic), so two
/// manifests with equal digests ran the same spec.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }
}
