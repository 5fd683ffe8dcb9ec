//! Configuration of the single ring protocol.

use serde::{Deserialize, Serialize};
use totem_wire::Seq;

/// When a message may be delivered to the application.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeliveryGuarantee {
    /// Deliver a message as soon as all messages with lower sequence
    /// numbers have been received (total order; a message may be
    /// delivered before every member has it). This is what the paper's
    /// throughput experiments measure.
    Agreed,
    /// Deliver a message only once the token's all-received-up-to
    /// watermark shows that **every** member of the ring has received
    /// it (conservatively: the minimum `aru` observed over the last
    /// two token visits). Higher latency, stronger guarantee.
    Safe,
}

/// Tunable parameters of the single ring protocol.
///
/// All times are in nanoseconds of protocol time (the simulator's
/// clock or the real-time runtime's monotonic clock).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SrpConfig {
    /// Delivery guarantee for application messages.
    pub guarantee: DeliveryGuarantee,
    /// How long a node waits for the token before it concludes the
    /// token (or the ring) is lost and starts the membership protocol.
    pub token_loss_timeout: u64,
    /// How often a node retransmits its last token while it has not
    /// yet observed evidence that the successor received it (paper §2).
    pub token_retransmit_interval: u64,
    /// How long a token holder keeps the token before forwarding when
    /// the ring is idle — it sent nothing, no retransmission is
    /// requested and no member reports queued messages (the token's
    /// `backlog` is zero). Paces idle rings only: while any member has
    /// messages queued the token is forwarded at once. Zero restores
    /// continuous circulation.
    pub idle_token_hold: u64,
    /// How often a node in the Gather state rebroadcasts its join
    /// message.
    pub join_retransmit_interval: u64,
    /// How long a node in the Gather state waits for consensus before
    /// moving unresponsive processors to its fail set.
    pub consensus_timeout: u64,
    /// How often the ring representative broadcasts a merge-detect
    /// announcement (a join message describing the current ring) so
    /// that healed partitions discover each other even when idle.
    pub merge_detect_interval: u64,
    /// Global flow-control window: the maximum number of packets that
    /// may be broadcast per token rotation, ring-wide (the token's
    /// `fcc` field enforces it).
    pub window_size: u32,
    /// Per-visit cap: the maximum number of packets one node may
    /// broadcast during a single token visit.
    pub max_messages_per_token: u32,
    /// Cap on packets retransmitted per token visit (retransmissions
    /// also count against the flow-control window).
    pub max_retransmit_per_token: u32,
    /// Maximum application messages queued locally before
    /// [`crate::SrpNode::submit`] applies backpressure.
    pub send_queue_limit: usize,
    /// Initial global sequence number of a **statically bootstrapped**
    /// ring ([`crate::SrpNode::new_operational`] +
    /// [`crate::SrpNode::bootstrap_token`]): the windows and the
    /// initial token start here instead of [`Seq::ZERO`]. Production
    /// rings use the default zero; wrap-equivariance tests place it
    /// just below `u64::MAX` so a run crosses the serial wrap (and the
    /// reserved-zero skip) within a few packets. Rings formed through
    /// the membership protocol always restart at zero, as the paper's
    /// reformation does.
    #[serde(default)]
    pub initial_seq: Seq,
}

impl SrpConfig {
    /// Defaults mirroring the paper's deployment: 100 Mbit/s LAN
    /// timings, agreed delivery.
    pub fn lan_defaults() -> Self {
        SrpConfig {
            guarantee: DeliveryGuarantee::Agreed,
            token_loss_timeout: 200_000_000,       // 200 ms
            token_retransmit_interval: 40_000_000, // 40 ms
            idle_token_hold: 200_000,              // 200 µs
            join_retransmit_interval: 30_000_000,  // 30 ms
            consensus_timeout: 250_000_000,        // 250 ms
            merge_detect_interval: 150_000_000,    // 150 ms
            window_size: 60,
            max_messages_per_token: 20,
            max_retransmit_per_token: 20,
            send_queue_limit: 1024,
            initial_seq: Seq::ZERO,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.token_loss_timeout == 0 {
            return Err("token_loss_timeout must be positive".into());
        }
        if self.token_retransmit_interval == 0 {
            return Err("token_retransmit_interval must be positive".into());
        }
        if self.token_retransmit_interval >= self.token_loss_timeout {
            return Err("token_retransmit_interval must be below token_loss_timeout".into());
        }
        if self.window_size == 0 {
            return Err("window_size must be positive".into());
        }
        if self.max_messages_per_token == 0 {
            return Err("max_messages_per_token must be positive".into());
        }
        if self.send_queue_limit == 0 {
            return Err("send_queue_limit must be positive".into());
        }
        if self.merge_detect_interval == 0 {
            return Err("merge_detect_interval must be positive".into());
        }
        Ok(())
    }
}

impl Default for SrpConfig {
    fn default() -> Self {
        Self::lan_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        SrpConfig::default().validate().unwrap();
    }

    #[test]
    fn retransmit_must_be_faster_than_loss_detection() {
        let mut cfg = SrpConfig::default();
        cfg.token_retransmit_interval = cfg.token_loss_timeout;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn zero_window_rejected() {
        let cfg = SrpConfig { window_size: 0, ..SrpConfig::default() };
        assert!(cfg.validate().unwrap_err().contains("window_size"));
    }

    #[test]
    fn zero_timeouts_rejected() {
        assert!(SrpConfig { token_loss_timeout: 0, ..SrpConfig::default() }.validate().is_err());
        assert!(SrpConfig { token_retransmit_interval: 0, ..SrpConfig::default() }
            .validate()
            .is_err());
        assert!(SrpConfig { max_messages_per_token: 0, ..SrpConfig::default() }
            .validate()
            .is_err());
        assert!(SrpConfig { send_queue_limit: 0, ..SrpConfig::default() }.validate().is_err());
    }
}
