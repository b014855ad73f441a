//! Tiered dispatch: which permutation tier serves traffic, and how much
//! of it is mirrored through the other tier as a continuous online
//! differential oracle.
//!
//! The service owns two execution tiers for the same FIPS-202 work:
//!
//! * **Simulator** — the cycle-accurate [`krv_core::EnginePool`] running
//!   the paper's custom vector kernels. Bit-exact by construction, but
//!   it pays the interpretation cost of every simulated instruction.
//! * **Native** — the host-side word-parallel kernel from `krv-native`,
//!   permuting 2/4/8 sponge states per call at host speed.
//!
//! [`TierPolicy`] picks the primary tier and a mirror sampling rate:
//! every `mirror_every`-th dispatch group — one round of a batch, with
//! every one-shot hash, stream operation and KEM hash job it carries —
//! is replayed through the *other* tier and its outputs and final sponge
//! states are diffed. A mismatch latches
//! [`MetricsSnapshot::mirror_mismatches`](crate::MetricsSnapshot::mirror_mismatches)
//! — the production analogue of the offline conformance matrix, catching
//! drift between the tiers while real traffic flows.
//!
//! The affordable sampling rate is set by the cost ratio between the
//! tiers. With the interpreted simulator (~10× slower per permutation
//! than the native kernel), mirroring one group in 32 already cost
//! roughly a third of the native wall time. The compiled execution
//! tier (DESIGN.md §16) cuts the simulator's cost by ~3.5×, so the
//! same budget now buys roughly twice the coverage:
//! [`TierPolicy::RECOMMENDED_MIRROR_EVERY`] samples one group in 16,
//! which lands the expected overhead back near a third of native wall
//! time — verified by the `loadgen` bench, which measures the
//! mirrored/unmirrored throughput ratio and asserts the overhead stays
//! under its bound.

/// An execution tier the service can route permutation work to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TierKind {
    /// The cycle-accurate simulated vector engine pool.
    Simulator,
    /// The host-native lane-parallel kernel.
    Native,
}

impl TierKind {
    /// The opposite tier — where mirrored samples are re-hashed.
    pub const fn other(self) -> TierKind {
        match self {
            TierKind::Simulator => TierKind::Native,
            TierKind::Native => TierKind::Simulator,
        }
    }

    /// A short stable tag (`simulator` / `native`) for labels and JSON.
    pub const fn tag(self) -> &'static str {
        match self {
            TierKind::Simulator => "simulator",
            TierKind::Native => "native",
        }
    }
}

impl std::fmt::Display for TierKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.tag())
    }
}

/// How traffic is routed between the tiers.
///
/// The default policy (`Simulator` primary, mirroring off) reproduces
/// the pre-tier service exactly; existing configurations keep their
/// behaviour without mentioning tiers at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierPolicy {
    /// The tier that serves production traffic.
    pub primary: TierKind,
    /// Mirror sampling rate: every `mirror_every`-th dispatch group (one
    /// round of a batch) is replayed through the other tier and diffed.
    /// `0` disables mirroring; `1` mirrors every round.
    pub mirror_every: u32,
}

impl Default for TierPolicy {
    fn default() -> Self {
        Self {
            primary: TierKind::Simulator,
            mirror_every: 0,
        }
    }
}

impl TierPolicy {
    /// The recommended mirror sampling rate for native-primary
    /// deployments: one dispatch group in 16. Sized to the compiled
    /// simulator tier — ~3.5× cheaper per permutation than the
    /// interpreted one, so twice the interpreted tier's 1/32 coverage
    /// now fits in the same overhead budget (roughly a third of native
    /// wall time). Group 0 is always sampled, so even short runs
    /// exercise the oracle at least once.
    pub const RECOMMENDED_MIRROR_EVERY: u32 = 16;

    /// Native-primary routing with mirroring off.
    pub const fn native() -> Self {
        Self {
            primary: TierKind::Native,
            mirror_every: 0,
        }
    }

    /// Simulator-primary routing with mirroring off (the default).
    pub const fn simulator() -> Self {
        Self {
            primary: TierKind::Simulator,
            mirror_every: 0,
        }
    }

    /// Sets the mirror sampling rate.
    pub const fn with_mirror_every(mut self, mirror_every: u32) -> Self {
        self.mirror_every = mirror_every;
        self
    }

    /// Whether the given zero-based dispatch-group index is sampled for
    /// mirroring under this policy.
    pub const fn mirrors(self, group_index: u64) -> bool {
        self.mirror_every != 0 && group_index.is_multiple_of(self.mirror_every as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn other_flips_between_the_tiers() {
        assert_eq!(TierKind::Simulator.other(), TierKind::Native);
        assert_eq!(TierKind::Native.other(), TierKind::Simulator);
    }

    #[test]
    fn tags_are_stable() {
        assert_eq!(TierKind::Simulator.tag(), "simulator");
        assert_eq!(TierKind::Native.to_string(), "native");
    }

    #[test]
    fn default_policy_is_the_pre_tier_service() {
        let policy = TierPolicy::default();
        assert_eq!(policy.primary, TierKind::Simulator);
        assert_eq!(policy.mirror_every, 0);
        assert!(!policy.mirrors(0), "mirroring disabled by default");
    }

    #[test]
    fn recommended_rate_samples_group_zero() {
        let policy = TierPolicy::native().with_mirror_every(TierPolicy::RECOMMENDED_MIRROR_EVERY);
        assert!(policy.mirrors(0), "short runs must exercise the oracle");
        assert!(!policy.mirrors(1));
        assert!(policy.mirrors(u64::from(TierPolicy::RECOMMENDED_MIRROR_EVERY)));
    }

    #[test]
    fn mirror_sampling_follows_the_rate() {
        let policy = TierPolicy::native().with_mirror_every(3);
        let sampled: Vec<bool> = (0..7).map(|i| policy.mirrors(i)).collect();
        assert_eq!(sampled, vec![true, false, false, true, false, false, true]);
        let every = TierPolicy::simulator().with_mirror_every(1);
        assert!((0..5).all(|i| every.mirrors(i)));
    }
}
