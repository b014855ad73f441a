//! The metric names this benchmark prints, with units and direction.
//! `BENCHMARK.json` declares the same lists (with the regression bounds);
//! a test keeps the two in step.

/// A metric's name, unit and which direction is better.
pub type Declared = (&'static str, &'static str, &'static str);

/// End-to-end metrics, printed by every untraced run. Each is a count or
/// a CPU time: wall-clock numbers on a shared host move with other
/// guests' load, so they are reported per layer, without a bound.
pub const END_TO_END: [Declared; 5] = [
    ("cpu_us_per_op", "us", "lower"),
    ("ok_share", "ratio", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
    ("sim_cycles_per_op", "cycles", "lower"),
];

/// Per-layer metrics, printed by every traced run. The prefix names the
/// layer; BENCHMARK.md lists the end-to-end metric each should move.
pub const PER_LAYER: [Declared; 42] = [
    ("server.rtt_us_p50", "us", "lower"),
    ("server.rtt_us_p99", "us", "lower"),
    ("server.self_us_p50", "us", "lower"),
    ("server.decode_ns", "ns", "lower"),
    ("server.encode_ns", "ns", "lower"),
    ("server.busy_share", "ratio", "lower"),
    ("server.frames_per_op", "count", "lower"),
    ("service.queue_us_p50", "us", "lower"),
    ("service.queue_us_p90", "us", "lower"),
    ("service.dispatch_us_p50", "us", "lower"),
    ("service.complete_us_p50", "us", "lower"),
    ("service.submit_ns_p50", "ns", "lower"),
    ("service.batch_fill", "ratio", "higher"),
    ("service.reqs_per_batch", "count", "higher"),
    ("service.mirror_share", "ratio", "higher"),
    ("service.mirror_mismatches", "count", "lower"),
    ("service.kem_occupancy", "count", "higher"),
    ("service.refused", "count", "lower"),
    ("service.retries", "count", "lower"),
    ("sha3.driver_self_share", "ratio", "lower"),
    ("sha3.states_per_call", "count", "higher"),
    ("core.pool_perm_per_s", "perm/s", "higher"),
    ("core.engine_perm_per_s", "perm/s", "higher"),
    ("core.pool_speedup_wall", "ratio", "higher"),
    ("core.nproc", "count", "higher"),
    ("core.cycles_per_pass", "cycles", "lower"),
    ("core.passes_per_op", "count", "lower"),
    ("native.perm_per_s", "perm/s", "higher"),
    ("native.lanes", "count", "higher"),
    ("native.calibrate_ms", "ms", "lower"),
    ("kyber.op_us_native", "us", "lower"),
    ("kyber.hash_jobs_per_op", "count", "lower"),
    ("wall.ops_per_s", "op/s", "higher"),
    ("wall.p50_ms", "ms", "lower"),
    ("wall.p90_ms", "ms", "lower"),
    ("wall.p99_ms", "ms", "lower"),
    ("wall.beyond_p99", "count", "lower"),
    ("gen.late_ms_p99", "ms", "lower"),
    ("gen.late_ms_max", "ms", "lower"),
    ("proc.threads", "count", "lower"),
    ("proc.trace_overhead", "ratio", "lower"),
    ("proc.steal_share", "ratio", "lower"),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `name` follows the naming rule: starts with a letter or
    /// digit, at most 64 of `[A-Za-z0-9_.-]`.
    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_are_valid_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit, better) in END_TO_END.into_iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} declared twice");
            assert!(!unit.is_empty() && unit.len() <= 16, "{name}: unit {unit}");
            assert!(matches!(better, "higher" | "lower"), "{name}: {better}");
        }
        assert!(!valid_name("_leading"));
        assert!(!valid_name("has space"));
    }
}
