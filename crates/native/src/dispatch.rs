//! Run-time lane-width selection and ragged-tail planning.
//!
//! BLAKE3 ships portable, SSE4.1, AVX2, AVX-512 and NEON compression
//! kernels and picks the widest one the CPU supports once at startup
//! (`blake3_dispatch.c`). This crate's kernels are portable Rust, so the
//! equivalent question is not *which instruction set exists* but *which
//! lane count the compiler turned into the fastest code on this host* —
//! wider groups win where the auto-vectorizer finds SIMD, narrower ones
//! where the extra live values just spill. [`LaneWidth::detect`] answers
//! it empirically: a short calibration pass times one call at every
//! compiled width, and the winner is cached for the process, exactly one
//! choice per run.
//!
//! The same per-call times plan the ragged tails. A call costs about the
//! same however many of its lanes are live, so a tail of `r` states
//! below the group width `W` runs as the cheapest sequence of calls at
//! widths up to `W` (`TailPlan`). Where ×4 is both the widest
//! profitable width and cheaper per call than ×1, that is one
//! zero-padded ×4 call; where ×1 costs half a ×2 call, a one-state tail
//! runs at ×1.
//!
//! Set `KRV_NATIVE_LANES=1|2|4|8` to pin the group width (e.g. to make
//! benchmark runs comparable across hosts). The tail plan still comes
//! from the per-call times, which are measured once per process either
//! way.

use std::sync::OnceLock;
use std::time::Instant;

/// How many sponge states advance per word-parallel kernel call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LaneWidth {
    /// One state per call (scalar, but with the unrolled round body).
    X1,
    /// Two states per call.
    X2,
    /// Four states per call.
    X4,
    /// Eight states per call.
    X8,
}

impl LaneWidth {
    /// Every compiled width, narrowest first.
    pub const ALL: [LaneWidth; 4] = [LaneWidth::X1, LaneWidth::X2, LaneWidth::X4, LaneWidth::X8];

    /// The number of states per kernel call.
    pub const fn lanes(self) -> usize {
        match self {
            LaneWidth::X1 => 1,
            LaneWidth::X2 => 2,
            LaneWidth::X4 => 4,
            LaneWidth::X8 => 8,
        }
    }

    /// This width's position in [`Self::ALL`].
    const fn slot(self) -> usize {
        self.lanes().trailing_zeros() as usize
    }

    /// A short stable tag (`x1`, `x2`, `x4`, `x8`) for labels and JSON.
    pub const fn tag(self) -> &'static str {
        match self {
            LaneWidth::X1 => "x1",
            LaneWidth::X2 => "x2",
            LaneWidth::X4 => "x4",
            LaneWidth::X8 => "x8",
        }
    }

    /// Parses a width from its lane count or tag.
    pub fn parse(text: &str) -> Option<LaneWidth> {
        match text.trim() {
            "1" | "x1" => Some(LaneWidth::X1),
            "2" | "x2" => Some(LaneWidth::X2),
            "4" | "x4" => Some(LaneWidth::X4),
            "8" | "x8" => Some(LaneWidth::X8),
            _ => None,
        }
    }

    /// The process-wide selected width: the `KRV_NATIVE_LANES` override
    /// if set (and valid), otherwise the calibration winner. Decided
    /// once; every later call returns the cached choice. The first call
    /// runs the calibration pass either way, since the tail plan needs
    /// its per-call times.
    pub fn detect() -> LaneWidth {
        calibration().0
    }
}

impl std::fmt::Display for LaneWidth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.tag())
    }
}

/// Time of one kernel call at each width, indexed like
/// [`LaneWidth::ALL`]. Only the ratios matter.
type CallTimes = [f64; 4];

/// The cheapest calls for every ragged tail: for each group width `W`
/// and each tail length `r < W`, the width of the first call of the
/// cheapest sequence of calls at widths up to `W` that covers `r`
/// states. A call wider than what is left of the tail runs its spare
/// lanes on zero states.
#[derive(Debug)]
pub(crate) struct TailPlan {
    first: [[LaneWidth; 8]; 4],
}

impl TailPlan {
    /// The plan from this process's calibration times.
    pub(crate) fn measured() -> &'static TailPlan {
        &calibration().1
    }

    /// Plans every tail by dynamic programming over the tail length: the
    /// cheapest cover of `r` states is one call at some width `c ≤ W`
    /// plus the cheapest cover of the `r − c` states left, if any. On
    /// equal cost the wider call wins, which means fewer calls.
    fn from_call_times(times: &CallTimes) -> TailPlan {
        let mut first = [[LaneWidth::X1; 8]; 4];
        for group in LaneWidth::ALL {
            let mut cost = [0.0_f64; 8];
            for r in 1..group.lanes() {
                let mut best = (f64::INFINITY, LaneWidth::X1);
                for call in LaneWidth::ALL.into_iter().rev().filter(|&c| c <= group) {
                    let total = times[call.slot()] + cost[r.saturating_sub(call.lanes())];
                    if total < best.0 {
                        best = (total, call);
                    }
                }
                cost[r] = best.0;
                first[group.slot()][r] = best.1;
            }
        }
        TailPlan { first }
    }

    /// The width of the next call for a tail of `remaining` states under
    /// group width `group`.
    pub(crate) fn next(&self, group: LaneWidth, remaining: usize) -> LaneWidth {
        debug_assert!(0 < remaining && remaining < group.lanes());
        self.first[group.slot()][remaining]
    }
}

/// The process's group width and tail plan, from one calibration pass
/// on first use.
fn calibration() -> &'static (LaneWidth, TailPlan) {
    static CALIBRATION: OnceLock<(LaneWidth, TailPlan)> = OnceLock::new();
    CALIBRATION.get_or_init(|| {
        let times = calibrate();
        let width = std::env::var("KRV_NATIVE_LANES")
            .ok()
            .and_then(|value| LaneWidth::parse(&value))
            .unwrap_or_else(|| widest_near_fastest(&times));
        (width, TailPlan::from_call_times(&times))
    })
}

/// The calibration winner: the widest width whose per-state time is
/// within 2 % of the fastest. Wider packs batch work into fewer calls,
/// so it takes a near-tie. Every width is compared against the minimum,
/// never against the previous winner, so a chain of 2 % steps cannot
/// drift wider.
fn widest_near_fastest(times: &CallTimes) -> LaneWidth {
    let per_state = |width: LaneWidth| times[width.slot()] / width.lanes() as f64;
    let fastest = LaneWidth::ALL
        .into_iter()
        .map(per_state)
        .fold(f64::INFINITY, f64::min);
    LaneWidth::ALL
        .into_iter()
        .rev()
        .find(|&width| per_state(width) <= fastest * 1.02)
        .unwrap_or(LaneWidth::X1)
}

/// Times every width on a small fixed workload and returns the time of
/// one call at each.
fn calibrate() -> CallTimes {
    // Equal logical work per width: each width permutes TOTAL states.
    const TOTAL: usize = 64;
    let mut times = [0.0; 4];
    for width in LaneWidth::ALL {
        let calls = TOTAL / width.lanes();
        let mut group = seeded_group(width);
        // Warm-up: fault in the code path before timing it.
        crate::lanes::permute_states(width, &mut group);
        let started = Instant::now();
        for _ in 0..calls {
            crate::lanes::permute_states(width, &mut group);
        }
        times[width.slot()] = started.elapsed().as_secs_f64() / calls as f64;
    }
    times
}

fn seeded_group(width: LaneWidth) -> Vec<krv_keccak::KeccakState> {
    (0..width.lanes())
        .map(|i| {
            let mut lanes = [0u64; 25];
            for (j, lane) in lanes.iter_mut().enumerate() {
                *lane = (i as u64 + 1).wrapping_mul(0x0123_4567_89AB_CDEF) ^ j as u64;
            }
            krv_keccak::KeccakState::from_lanes(lanes)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use LaneWidth::{X1, X2, X4, X8};

    /// The calls a tail of `r` states runs as, in order.
    fn calls(plan: &TailPlan, group: LaneWidth, mut r: usize) -> Vec<LaneWidth> {
        let mut out = Vec::new();
        while r > 0 {
            let call = plan.next(group, r);
            out.push(call);
            r = r.saturating_sub(call.lanes());
        }
        out
    }

    #[test]
    fn widths_enumerate_narrowest_first() {
        let lanes: Vec<usize> = LaneWidth::ALL.iter().map(|w| w.lanes()).collect();
        assert_eq!(lanes, vec![1, 2, 4, 8]);
        let slots: Vec<usize> = LaneWidth::ALL.iter().map(|w| w.slot()).collect();
        assert_eq!(slots, vec![0, 1, 2, 3]);
    }

    #[test]
    fn parse_accepts_counts_and_tags() {
        assert_eq!(LaneWidth::parse("4"), Some(X4));
        assert_eq!(LaneWidth::parse(" x8 "), Some(X8));
        assert_eq!(LaneWidth::parse("16"), None);
        assert_eq!(LaneWidth::parse(""), None);
    }

    #[test]
    fn detect_is_stable_within_a_process() {
        assert_eq!(LaneWidth::detect(), LaneWidth::detect());
    }

    #[test]
    fn calibration_times_every_width() {
        let times = calibrate();
        assert!(
            times.iter().all(|&t| t.is_finite() && t >= 0.0),
            "{times:?}"
        );
        assert!(LaneWidth::ALL.contains(&widest_near_fastest(&times)));
    }

    #[test]
    fn the_widest_width_within_two_percent_of_the_fastest_wins() {
        // Per-call µs. A clear winner: ×4 at 0.11 µs/state.
        assert_eq!(widest_near_fastest(&[1.0, 1.4, 0.45, 2.4]), X4);
        // A near-tie goes to the wider width: ×2 is 1 % slower per state.
        assert_eq!(widest_near_fastest(&[0.40, 0.808, 2.0, 4.0]), X2);
        // ...but not beyond 2 %.
        assert_eq!(widest_near_fastest(&[0.40, 0.82, 2.0, 4.0]), X1);
        // A chain of 1.5 % steps per state (1.000, 1.015, 1.030, 1.045):
        // each is within 2 % of its narrower neighbour, but only ×2 is
        // within 2 % of the fastest.
        assert_eq!(widest_near_fastest(&[1.0, 2.03, 4.12, 8.36]), X2);
        // Exact ties go to the widest.
        assert_eq!(widest_near_fastest(&[1.0, 2.0, 4.0, 8.0]), X8);
    }

    #[test]
    fn the_reference_host_pads_every_tail_into_x4_calls() {
        // Per-call µs on a 2-vCPU AVX-512 host, `target-cpu=native`.
        let plan = TailPlan::from_call_times(&[1.0, 1.4, 0.45, 2.4]);
        for r in 1..=3 {
            assert_eq!(calls(&plan, X4, r), vec![X4], "r = {r} at ×4");
        }
        for r in 1..=4 {
            assert_eq!(calls(&plan, X8, r), vec![X4], "r = {r} at ×8");
        }
        for r in 5..=7 {
            assert_eq!(calls(&plan, X8, r), vec![X4, X4], "r = {r} at ×8");
        }
    }

    #[test]
    fn a_one_state_tail_runs_at_x1_where_x2_costs_double() {
        // Per-call µs of an `x86-64-v3` build on the same host, where
        // calibration can pick ×2.
        let plan = TailPlan::from_call_times(&[0.35, 0.78, 1.6, 3.3]);
        assert_eq!(calls(&plan, X2, 1), vec![X1]);
        // ×1 is also the cheapest per state here, so it beats padding
        // at the wider group widths too.
        assert_eq!(calls(&plan, X4, 3), vec![X1; 3]);
    }

    #[test]
    fn proportional_costs_plan_an_exact_binary_split() {
        // Per-call time proportional to the lane count: padding buys
        // nothing, so the plan is the exact binary split of the tail.
        let plan = TailPlan::from_call_times(&[1.0, 2.0, 4.0, 8.0]);
        assert_eq!(calls(&plan, X8, 7), vec![X4, X2, X1]);
        assert_eq!(calls(&plan, X8, 5), vec![X4, X1]);
        assert_eq!(calls(&plan, X4, 3), vec![X2, X1]);
    }

    #[test]
    fn every_plan_covers_its_tail_within_the_group_width() {
        let plan = TailPlan::measured();
        for group in LaneWidth::ALL {
            for r in 1..group.lanes() {
                let tail = calls(plan, group, r);
                assert!(tail.iter().all(|&c| c <= group), "{group} r={r}: {tail:?}");
                assert!(tail.iter().map(|c| c.lanes()).sum::<usize>() >= r);
            }
        }
    }

    #[test]
    fn display_matches_tag() {
        assert_eq!(X4.to_string(), "x4");
    }
}
