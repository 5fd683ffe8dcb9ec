//! Configuration of the redundant ring layer.

use serde::{Deserialize, Serialize};

/// Which network replication style to run (paper §4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReplicationStyle {
    /// No replication: everything on network 0. The paper's baseline.
    Single,
    /// Every message and token on all N networks (§5).
    Active,
    /// Each message and token on exactly one network, round-robin (§6).
    Passive,
    /// Each message and token on `copies` consecutive networks of the
    /// round-robin window (§7). Requires `1 < copies < N`, hence at
    /// least three networks.
    ActivePassive {
        /// K: how many copies of each packet are sent.
        copies: u8,
    },
    /// The unified K-of-N engine over the full `1 <= K <= N` range:
    /// K=N runs the active algorithm, K=1 the passive one, anything in
    /// between active-passive — and K may be changed at runtime
    /// ([`crate::RrpLayer::set_k`]) or stepped automatically with
    /// [`RrpConfig::auto_degrade`]. The three named styles above are
    /// fixed-K aliases kept for the paper's figure configurations.
    KOfN {
        /// K: how many copies of each packet are sent initially.
        copies: u8,
    },
}

impl ReplicationStyle {
    /// Short human-readable name (matches the paper's figure legends).
    pub fn name(self) -> &'static str {
        match self {
            ReplicationStyle::Single => "no replication",
            ReplicationStyle::Active => "active replication",
            ReplicationStyle::Passive => "passive replication",
            ReplicationStyle::ActivePassive { .. } => "active-passive replication",
            ReplicationStyle::KOfN { .. } => "k-of-n replication",
        }
    }

    /// The initial replication degree K this style asks of the engine,
    /// given N networks: N for active, 1 for passive, K as configured
    /// otherwise.
    pub fn initial_k(self, networks: usize) -> usize {
        match self {
            ReplicationStyle::Single => 1,
            ReplicationStyle::Active => networks,
            ReplicationStyle::Passive => 1,
            ReplicationStyle::ActivePassive { copies } | ReplicationStyle::KOfN { copies } => {
                copies as usize
            }
        }
    }

    /// The spelling [`FromStr`](core::str::FromStr) reads back:
    /// `single`, `active`, `passive`, `ap:K` or `k-of-n:K` — what the
    /// command lines take and the repro files record. `Display` is the
    /// figure-legend text.
    pub fn spelling(self) -> String {
        match self {
            ReplicationStyle::Single => "single".into(),
            ReplicationStyle::Active => "active".into(),
            ReplicationStyle::Passive => "passive".into(),
            ReplicationStyle::ActivePassive { copies } => format!("ap:{copies}"),
            ReplicationStyle::KOfN { copies } => format!("k-of-n:{copies}"),
        }
    }
}

impl core::str::FromStr for ReplicationStyle {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let copies = |k: &str| k.parse().map_err(|_| format!("invalid K in `{s}`"));
        match s {
            "single" => Ok(ReplicationStyle::Single),
            "active" => Ok(ReplicationStyle::Active),
            "passive" => Ok(ReplicationStyle::Passive),
            _ => match (s.strip_prefix("ap:"), s.strip_prefix("k-of-n:")) {
                (Some(k), _) => Ok(ReplicationStyle::ActivePassive { copies: copies(k)? }),
                (_, Some(k)) => Ok(ReplicationStyle::KOfN { copies: copies(k)? }),
                (None, None) => Err(format!(
                    "unknown style `{s}` (use single, active, passive, ap:K, or k-of-n:K)"
                )),
            },
        }
    }
}

impl core::fmt::Display for ReplicationStyle {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ReplicationStyle::ActivePassive { copies } => {
                write!(f, "active-passive replication (K={copies})")
            }
            ReplicationStyle::KOfN { copies } => write!(f, "k-of-n replication (K={copies})"),
            other => f.write_str(other.name()),
        }
    }
}

/// Why an [`RrpConfig`] failed [`RrpConfig::validate`].
///
/// Construction sites ([`crate::RrpLayer::new`]) surface this instead
/// of panicking, so a host that assembles configurations at runtime
/// (an operator console, a config file) can report the violation and
/// keep running.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RrpConfigError {
    /// `networks` was zero.
    NoNetworks,
    /// `Single` style over anything but exactly one network.
    SingleNeedsOneNetwork {
        /// The offending network count.
        got: usize,
    },
    /// `Active` or `Passive` style over fewer than two networks.
    NeedsTwoNetworks {
        /// The style that was asked for.
        style: ReplicationStyle,
        /// The offending network count.
        got: usize,
    },
    /// `ActivePassive` outside the paper's `1 < K < N` bound (§7).
    ActivePassiveBounds {
        /// The requested K.
        copies: u8,
        /// The number of networks N.
        networks: usize,
    },
    /// `KOfN` outside `1 <= K <= N` (or fewer than two networks —
    /// a single network leaves nothing to replicate or reconfigure
    /// over; use `Single`).
    KOfNBounds {
        /// The requested K.
        copies: u8,
        /// The number of networks N.
        networks: usize,
    },
    /// A token timeout (`active_token_timeout` or
    /// `passive_token_timeout`) was zero.
    ZeroTokenTimeout,
    /// `problem_threshold` was zero (Requirement A5 needs a positive
    /// trip point).
    ZeroProblemThreshold,
    /// `monitor_threshold` was zero (Requirement P4 needs a positive
    /// lag bound).
    ZeroMonitorThreshold,
    /// `compensation_every` was zero (Requirement P5's forgiveness
    /// rate is a division by this).
    ZeroCompensation,
}

impl core::fmt::Display for RrpConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RrpConfigError::NoNetworks => f.write_str("at least one network is required"),
            RrpConfigError::SingleNeedsOneNetwork { got } => {
                write!(f, "single (unreplicated) style uses exactly 1 network, got {got}")
            }
            RrpConfigError::NeedsTwoNetworks { style, got } => {
                write!(f, "{style} needs at least 2 networks, got {got}")
            }
            RrpConfigError::ActivePassiveBounds { copies, networks } => {
                write!(f, "active-passive requires 1 < K < N (got K={copies}, N={networks})")
            }
            RrpConfigError::KOfNBounds { copies, networks } => {
                write!(
                    f,
                    "k-of-n requires 1 <= K <= N and at least 2 networks (got K={copies}, N={networks})"
                )
            }
            RrpConfigError::ZeroTokenTimeout => f.write_str("token timeouts must be positive"),
            RrpConfigError::ZeroProblemThreshold => {
                f.write_str("problem_threshold must be positive")
            }
            RrpConfigError::ZeroMonitorThreshold => {
                f.write_str("monitor_threshold must be positive")
            }
            RrpConfigError::ZeroCompensation => f.write_str("compensation_every must be positive"),
        }
    }
}

impl std::error::Error for RrpConfigError {}

/// Tunable parameters of the redundant ring layer. Times are in
/// nanoseconds of protocol time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RrpConfig {
    /// Replication style.
    pub style: ReplicationStyle,
    /// Number of redundant networks N.
    pub networks: usize,
    /// Active replication: how long to wait for the remaining copies
    /// of a token after the first copy arrives before passing it up
    /// anyway (Requirement A4).
    pub active_token_timeout: u64,
    /// Passive replication: how long a token buffered behind missing
    /// messages may wait before being passed up anyway (Requirement
    /// P3). The paper used 10 ms.
    pub passive_token_timeout: u64,
    /// Active replication: how many token-timer expiries a network may
    /// accumulate before being declared faulty (Requirement A5).
    pub problem_threshold: u32,
    /// Active replication: how often each network's problem counter is
    /// decremented, so sporadic losses do not accumulate into a false
    /// alarm (Requirement A6).
    pub problem_decay_interval: u64,
    /// Passive replication: a network whose reception count lags the
    /// best network by more than this is declared faulty (Requirement
    /// P4).
    pub monitor_threshold: u64,
    /// Passive replication: lagging reception counts are credited one
    /// reception every this many receptions (the paper's
    /// message-driven compensation), so sporadic losses are forgiven
    /// at any traffic rate without ever masking a dead network
    /// (Requirement P5).
    pub compensation_every: u64,
    /// Automatic reinstatement probation: if non-zero, a network that
    /// has been marked faulty is put back in service after this long,
    /// on probation — if it is still broken the monitors will flag it
    /// again within one detection interval. Zero (the default, and the
    /// paper's model) leaves reinstatement to the administrator via
    /// [`crate::RrpLayer::reinstate`].
    pub auto_reinstate_interval: u64,
    /// Grace period after a reinstatement during which the monitors
    /// observe the network but do not re-declare it faulty, and at
    /// whose end the reception counts are re-leveled. Needed because
    /// reinstatement is a per-node decision: until *every* node has
    /// resumed sending on the network, receivers legitimately see
    /// traffic starving it and would re-flag instantly.
    pub reinstate_grace: u64,
    /// Automatic degradation policy: when enabled, the layer steps the
    /// replication degree K down by one each time a network is declared
    /// faulty (no point paying for copies on a dead network) and back
    /// up by one on each reinstatement, never exceeding the configured
    /// baseline. Off by default — the legacy styles keep their fixed K.
    #[serde(default)]
    pub auto_degrade: bool,
}

impl RrpConfig {
    /// Defaults for `style` over `networks` networks, mirroring the
    /// paper's deployment (10 ms passive token timer).
    pub fn new(style: ReplicationStyle, networks: usize) -> Self {
        RrpConfig {
            style,
            networks,
            active_token_timeout: 2_000_000,   // 2 ms
            passive_token_timeout: 10_000_000, // 10 ms (paper §6)
            problem_threshold: 10,
            problem_decay_interval: 1_000_000_000, // 1 s
            monitor_threshold: 50,
            compensation_every: 25,       // forgive 4% divergence
            auto_reinstate_interval: 0,   // manual repair (paper §3)
            reinstate_grace: 250_000_000, // 250 ms
            auto_degrade: false,
        }
    }

    /// Enables automatic reinstatement probation with the given
    /// period.
    pub fn with_auto_reinstate(mut self, interval: u64) -> Self {
        self.auto_reinstate_interval = interval;
        self
    }

    /// Enables the automatic K degradation policy (step K down on a
    /// declared fault, back up on reinstatement).
    pub fn with_auto_degrade(mut self) -> Self {
        self.auto_degrade = true;
        self
    }

    /// Validates style/network-count consistency.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint as a typed
    /// [`RrpConfigError`]: `Single` wants exactly 1 network,
    /// `Active`/`Passive` at least 2, and `ActivePassive` requires
    /// `1 < K < N` (paper §7).
    pub fn validate(&self) -> Result<(), RrpConfigError> {
        if self.networks == 0 {
            return Err(RrpConfigError::NoNetworks);
        }
        match self.style {
            ReplicationStyle::Single => {
                if self.networks != 1 {
                    return Err(RrpConfigError::SingleNeedsOneNetwork { got: self.networks });
                }
            }
            ReplicationStyle::Active | ReplicationStyle::Passive => {
                if self.networks < 2 {
                    return Err(RrpConfigError::NeedsTwoNetworks {
                        style: self.style,
                        got: self.networks,
                    });
                }
            }
            ReplicationStyle::ActivePassive { copies } => {
                let k = copies as usize;
                if !(1 < k && k < self.networks) {
                    return Err(RrpConfigError::ActivePassiveBounds {
                        copies,
                        networks: self.networks,
                    });
                }
            }
            ReplicationStyle::KOfN { copies } => {
                let k = copies as usize;
                if self.networks < 2 || k < 1 || k > self.networks {
                    return Err(RrpConfigError::KOfNBounds { copies, networks: self.networks });
                }
            }
        }
        if self.active_token_timeout == 0 || self.passive_token_timeout == 0 {
            return Err(RrpConfigError::ZeroTokenTimeout);
        }
        if self.problem_threshold == 0 {
            return Err(RrpConfigError::ZeroProblemThreshold);
        }
        if self.monitor_threshold == 0 {
            return Err(RrpConfigError::ZeroMonitorThreshold);
        }
        if self.compensation_every == 0 {
            return Err(RrpConfigError::ZeroCompensation);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_configs_pass() {
        RrpConfig::new(ReplicationStyle::Single, 1).validate().unwrap();
        RrpConfig::new(ReplicationStyle::Active, 2).validate().unwrap();
        RrpConfig::new(ReplicationStyle::Passive, 3).validate().unwrap();
        RrpConfig::new(ReplicationStyle::ActivePassive { copies: 2 }, 3).validate().unwrap();
    }

    #[test]
    fn single_rejects_multiple_networks() {
        assert_eq!(
            RrpConfig::new(ReplicationStyle::Single, 2).validate(),
            Err(RrpConfigError::SingleNeedsOneNetwork { got: 2 })
        );
    }

    #[test]
    fn replicated_styles_need_two_networks() {
        assert_eq!(
            RrpConfig::new(ReplicationStyle::Active, 1).validate(),
            Err(RrpConfigError::NeedsTwoNetworks { style: ReplicationStyle::Active, got: 1 })
        );
        assert_eq!(
            RrpConfig::new(ReplicationStyle::Passive, 1).validate(),
            Err(RrpConfigError::NeedsTwoNetworks { style: ReplicationStyle::Passive, got: 1 })
        );
    }

    #[test]
    fn active_passive_bounds_match_the_paper() {
        // 1 < K < N: K=1 and K=N are rejected (they degenerate to
        // passive and active).
        assert!(RrpConfig::new(ReplicationStyle::ActivePassive { copies: 1 }, 3)
            .validate()
            .is_err());
        assert!(RrpConfig::new(ReplicationStyle::ActivePassive { copies: 3 }, 3)
            .validate()
            .is_err());
        assert!(RrpConfig::new(ReplicationStyle::ActivePassive { copies: 2 }, 4)
            .validate()
            .is_ok());
        assert!(RrpConfig::new(ReplicationStyle::ActivePassive { copies: 3 }, 4)
            .validate()
            .is_ok());
    }

    #[test]
    fn k_of_n_spans_the_full_range() {
        // K-of-N accepts the endpoints the fixed styles reject...
        for k in 1..=3u8 {
            RrpConfig::new(ReplicationStyle::KOfN { copies: k }, 3).validate().unwrap();
        }
        // ...but not out-of-range K or a single network.
        assert_eq!(
            RrpConfig::new(ReplicationStyle::KOfN { copies: 0 }, 3).validate(),
            Err(RrpConfigError::KOfNBounds { copies: 0, networks: 3 })
        );
        assert_eq!(
            RrpConfig::new(ReplicationStyle::KOfN { copies: 4 }, 3).validate(),
            Err(RrpConfigError::KOfNBounds { copies: 4, networks: 3 })
        );
        assert_eq!(
            RrpConfig::new(ReplicationStyle::KOfN { copies: 1 }, 1).validate(),
            Err(RrpConfigError::KOfNBounds { copies: 1, networks: 1 })
        );
    }

    #[test]
    fn initial_k_matches_the_style_semantics() {
        assert_eq!(ReplicationStyle::Active.initial_k(3), 3);
        assert_eq!(ReplicationStyle::Passive.initial_k(3), 1);
        assert_eq!(ReplicationStyle::ActivePassive { copies: 2 }.initial_k(4), 2);
        assert_eq!(ReplicationStyle::KOfN { copies: 3 }.initial_k(4), 3);
    }

    #[test]
    fn zero_network_count_rejected() {
        let mut cfg = RrpConfig::new(ReplicationStyle::Single, 1);
        cfg.networks = 0;
        assert_eq!(cfg.validate(), Err(RrpConfigError::NoNetworks));
    }

    #[test]
    fn zero_thresholds_rejected() {
        let mut cfg = RrpConfig::new(ReplicationStyle::Active, 2);
        cfg.problem_threshold = 0;
        assert_eq!(cfg.validate(), Err(RrpConfigError::ZeroProblemThreshold));
        let mut cfg = RrpConfig::new(ReplicationStyle::Passive, 2);
        cfg.monitor_threshold = 0;
        assert_eq!(cfg.validate(), Err(RrpConfigError::ZeroMonitorThreshold));
        let mut cfg = RrpConfig::new(ReplicationStyle::Passive, 2);
        cfg.compensation_every = 0;
        assert_eq!(cfg.validate(), Err(RrpConfigError::ZeroCompensation));
        let mut cfg = RrpConfig::new(ReplicationStyle::Active, 2);
        cfg.active_token_timeout = 0;
        assert_eq!(cfg.validate(), Err(RrpConfigError::ZeroTokenTimeout));
    }

    #[test]
    fn config_errors_render_for_operators() {
        assert_eq!(
            RrpConfig::new(ReplicationStyle::ActivePassive { copies: 3 }, 3)
                .validate()
                .unwrap_err()
                .to_string(),
            "active-passive requires 1 < K < N (got K=3, N=3)"
        );
        assert_eq!(
            RrpConfig::new(ReplicationStyle::Active, 1).validate().unwrap_err().to_string(),
            "active replication needs at least 2 networks, got 1"
        );
    }

    #[test]
    fn style_names_match_figure_legends() {
        assert_eq!(ReplicationStyle::Single.name(), "no replication");
        assert_eq!(ReplicationStyle::Active.name(), "active replication");
        assert_eq!(ReplicationStyle::Passive.name(), "passive replication");
        assert_eq!(
            ReplicationStyle::ActivePassive { copies: 2 }.to_string(),
            "active-passive replication (K=2)"
        );
        assert_eq!(ReplicationStyle::KOfN { copies: 2 }.to_string(), "k-of-n replication (K=2)");
    }

    #[test]
    fn spellings_parse_back() {
        for style in [
            ReplicationStyle::Single,
            ReplicationStyle::Active,
            ReplicationStyle::Passive,
            ReplicationStyle::ActivePassive { copies: 2 },
            ReplicationStyle::KOfN { copies: 3 },
        ] {
            assert_eq!(style.spelling().parse(), Ok(style));
        }
        assert_eq!(ReplicationStyle::KOfN { copies: 2 }.spelling(), "k-of-n:2");
        for bad in ["none", "turbo", "ap:x", "k-of-n:", "k-of-n:300", "k-of-n-2", "Active"] {
            assert!(bad.parse::<ReplicationStyle>().is_err(), "{bad} parsed");
        }
    }
}
