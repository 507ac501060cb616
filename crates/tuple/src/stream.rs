//! Stream and message identifiers.
//!
//! The paper's packet format (Fig. 5) carries a *stream ID* with every set of
//! tuples; data tuples and the control tuples of Table 2 share one tuple
//! format and are told apart purely by stream ID (§3.3.2). The acker design
//! (§6.1) additionally tags each spout tuple with a random 64-bit message ID
//! whose XOR-lineage tracks completion.

use std::fmt;

/// Identifies a logical stream within a topology.
///
/// IDs below [`StreamId::FIRST_USER`] are reserved for the framework; the
/// constants below mirror Table 2 of the paper plus the acker streams of
/// Storm's guaranteed-processing design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId(pub u16);

impl StreamId {
    /// The default data stream every component emits on unless it declares
    /// named streams.
    pub const DEFAULT: StreamId = StreamId(0);

    /// `ROUTING` control stream: updates a worker's routing state.
    pub const CTRL_ROUTING: StreamId = StreamId(1);
    /// `SIGNAL` control stream: flush in-memory caches of stateful workers.
    pub const CTRL_SIGNAL: StreamId = StreamId(2);
    /// `METRIC_REQ` control stream: controller asks a worker for stats.
    pub const CTRL_METRIC_REQ: StreamId = StreamId(3);
    /// `METRIC_RESP` control stream: worker responds with its stats.
    pub const CTRL_METRIC_RESP: StreamId = StreamId(4);
    /// `INPUT_RATE` control stream: throttle a worker's input processing.
    pub const CTRL_INPUT_RATE: StreamId = StreamId(5);
    /// `ACTIVATE` control stream: unthrottle the first workers of a topology.
    pub const CTRL_ACTIVATE: StreamId = StreamId(6);
    /// `DEACTIVATE` control stream: throttle the first workers of a topology.
    pub const CTRL_DEACTIVATE: StreamId = StreamId(7);
    /// `BATCH_SIZE` control stream: adjust the I/O layer batch size.
    pub const CTRL_BATCH_SIZE: StreamId = StreamId(8);

    /// Ack stream from downstream workers to the acker.
    pub const ACK: StreamId = StreamId(9);
    /// Completion/fail notifications from the acker back to a spout.
    pub const ACK_RESULT: StreamId = StreamId(10);
    /// Stream carrying mirrored tuples to a live-debug worker.
    pub const DEBUG_MIRROR: StreamId = StreamId(11);
    /// `REPLAY` control stream: the recovery manager tells a spout to
    /// immediately fail-and-replay every pending root (crash recovery,
    /// §4 Fig. 10 — replay must not wait out the ack timeout).
    pub const CTRL_REPLAY: StreamId = StreamId(12);
    /// `RESTATE` control stream: the recovery manager tells a surviving
    /// stateful bolt to re-emit its snapshot downstream. Emissions made
    /// toward a task that died were lost with it, and the dedup ledger
    /// (correctly) refuses to re-fold the replays that would regenerate
    /// them — the snapshot re-emission re-converges latest-wins consumers.
    pub const CTRL_RESTATE: StreamId = StreamId(13);
    /// `FENCE` control stream (stable update, §3.5): the controller asks a
    /// worker to acknowledge once it has drained, and the worker's reply
    /// travels back on the same stream by `PacketIn`.
    pub const CTRL_FENCE: StreamId = StreamId(14);
    /// Drain marker stream: a predecessor that dropped a hop from its
    /// routing sends one marker to that hop, behind the last tuple it sent
    /// there.
    pub const CTRL_DRAIN: StreamId = StreamId(15);

    /// First stream ID available to applications.
    pub const FIRST_USER: StreamId = StreamId(16);

    /// True for the framework-reserved control streams (Table 2 plus the
    /// recovery and stable-update extensions).
    pub fn is_control(self) -> bool {
        (Self::CTRL_ROUTING.0..=Self::CTRL_BATCH_SIZE.0).contains(&self.0)
            || (Self::CTRL_REPLAY.0..=Self::CTRL_DRAIN.0).contains(&self.0)
    }

    /// True for acker coordination streams.
    pub fn is_ack(self) -> bool {
        self == Self::ACK || self == Self::ACK_RESULT
    }

    /// True for streams delivered to the application computation layer
    /// (data + debug mirror); control and ack streams are consumed by the
    /// framework layer (Fig. 4).
    pub fn is_data(self) -> bool {
        !self.is_control() && !self.is_ack()
    }
}

impl fmt::Display for StreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            StreamId::DEFAULT => write!(f, "default"),
            StreamId::CTRL_ROUTING => write!(f, "ctrl:routing"),
            StreamId::CTRL_SIGNAL => write!(f, "ctrl:signal"),
            StreamId::CTRL_METRIC_REQ => write!(f, "ctrl:metric_req"),
            StreamId::CTRL_METRIC_RESP => write!(f, "ctrl:metric_resp"),
            StreamId::CTRL_INPUT_RATE => write!(f, "ctrl:input_rate"),
            StreamId::CTRL_ACTIVATE => write!(f, "ctrl:activate"),
            StreamId::CTRL_DEACTIVATE => write!(f, "ctrl:deactivate"),
            StreamId::CTRL_BATCH_SIZE => write!(f, "ctrl:batch_size"),
            StreamId::ACK => write!(f, "ack"),
            StreamId::ACK_RESULT => write!(f, "ack:result"),
            StreamId::DEBUG_MIRROR => write!(f, "debug:mirror"),
            StreamId::CTRL_REPLAY => write!(f, "ctrl:replay"),
            StreamId::CTRL_RESTATE => write!(f, "ctrl:restate"),
            StreamId::CTRL_FENCE => write!(f, "ctrl:fence"),
            StreamId::CTRL_DRAIN => write!(f, "ctrl:drain"),
            StreamId(n) => write!(f, "stream:{n}"),
        }
    }
}

/// Identity of a spout-rooted tuple tree for guaranteed processing.
///
/// A spout assigns each root tuple a random non-zero `root`; every downstream
/// anchor contributes a random `anchor` XORed into the acker's ledger. When
/// the ledger value returns to zero the tree is fully processed (the classic
/// Storm XOR trick reimplemented in `typhoon-storm`'s acker).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MessageId {
    /// Identifies the tuple tree (assigned by the spout).
    pub root: u64,
    /// This edge's random anchor value.
    pub anchor: u64,
}

impl MessageId {
    /// A message ID meaning "unanchored": reliability tracking is off for
    /// this tuple.
    pub const NONE: MessageId = MessageId { root: 0, anchor: 0 };

    /// Bit mask of the *replay round* carried in a root's low byte.
    ///
    /// Spouts allocate roots with the round byte zeroed and bump it once
    /// per replay of the same logical tuple. The acker then sees each
    /// replay round as a fresh tuple tree (a half-acked tree from the dead
    /// round can never wedge the new one), while [`MessageId::base_root`]
    /// stays stable across rounds — which is the key stateful bolts dedup
    /// replayed tuples on after a crash restore.
    pub const ROOT_ROUND_MASK: u64 = 0xFF;

    /// Bit mask of the *emission position* stamped into an anchor's low
    /// 16 bits by the framework layer. For a deterministic bolt the n-th
    /// emission while processing a given input is the same tuple on every
    /// replay, so `(base_root, position)` identifies a tuple across replay
    /// rounds even though the anchor's random high bits differ.
    pub const ANCHOR_POSITION_MASK: u64 = 0xFFFF;

    /// The replay-stable identity of a root: the root with its round byte
    /// cleared.
    pub fn base_root(root: u64) -> u64 {
        root & !Self::ROOT_ROUND_MASK
    }

    /// The replay round of a root (0 = the original emission).
    pub fn replay_round(root: u64) -> u8 {
        (root & Self::ROOT_ROUND_MASK) as u8
    }

    /// The next replay round of `root`: same base, round byte bumped
    /// (wrapping — by round 256 the round-0 acker entry is long expired).
    pub fn next_round(root: u64) -> u64 {
        Self::base_root(root) | ((root + 1) & Self::ROOT_ROUND_MASK)
    }

    /// The emission position stamped into an anchor's low bits.
    pub fn anchor_position(anchor: u64) -> u16 {
        (anchor & Self::ANCHOR_POSITION_MASK) as u16
    }

    /// True when the tuple participates in guaranteed processing.
    pub fn is_anchored(self) -> bool {
        self.root != 0
    }
}

impl fmt::Display for MessageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_anchored() {
            write!(f, "{:016x}/{:016x}", self.root, self.anchor)
        } else {
            write!(f, "unanchored")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_stream_classification() {
        assert!(StreamId::CTRL_ROUTING.is_control());
        assert!(StreamId::CTRL_BATCH_SIZE.is_control());
        assert!(StreamId::CTRL_REPLAY.is_control());
        assert!(StreamId::CTRL_RESTATE.is_control());
        assert!(StreamId::CTRL_FENCE.is_control());
        assert!(StreamId::CTRL_DRAIN.is_control());
        assert!(!StreamId::DEFAULT.is_control());
        assert!(!StreamId::ACK.is_control());
        assert!(!StreamId::FIRST_USER.is_control());
    }

    #[test]
    fn ack_stream_classification() {
        assert!(StreamId::ACK.is_ack());
        assert!(StreamId::ACK_RESULT.is_ack());
        assert!(!StreamId::CTRL_SIGNAL.is_ack());
    }

    #[test]
    fn data_streams_reach_the_application_layer() {
        assert!(StreamId::DEFAULT.is_data());
        assert!(StreamId::DEBUG_MIRROR.is_data());
        assert!(StreamId::FIRST_USER.is_data());
        assert!(!StreamId::CTRL_ROUTING.is_data());
        assert!(!StreamId::ACK.is_data());
    }

    #[test]
    fn display_names() {
        assert_eq!(StreamId::CTRL_SIGNAL.to_string(), "ctrl:signal");
        assert_eq!(StreamId::CTRL_REPLAY.to_string(), "ctrl:replay");
        assert_eq!(StreamId(99).to_string(), "stream:99");
    }

    #[test]
    fn unanchored_message_id() {
        assert!(!MessageId::NONE.is_anchored());
        assert!(MessageId { root: 1, anchor: 2 }.is_anchored());
        assert_eq!(MessageId::NONE.to_string(), "unanchored");
    }

    #[test]
    fn replay_rounds_share_a_base_root() {
        let root = 0xDEAD_BEEF_0000_4200u64;
        assert_eq!(MessageId::replay_round(root), 0);
        let r1 = MessageId::next_round(root);
        let r2 = MessageId::next_round(r1);
        assert_eq!(MessageId::replay_round(r1), 1);
        assert_eq!(MessageId::replay_round(r2), 2);
        assert_ne!(root, r1);
        assert_ne!(r1, r2);
        assert_eq!(MessageId::base_root(root), MessageId::base_root(r1));
        assert_eq!(MessageId::base_root(root), MessageId::base_root(r2));
    }

    #[test]
    fn round_byte_wraps_without_touching_the_base() {
        let root = 0xAAAA_0000_0000_00FFu64;
        let next = MessageId::next_round(root);
        assert_eq!(MessageId::replay_round(next), 0);
        assert_eq!(MessageId::base_root(next), MessageId::base_root(root));
    }

    #[test]
    fn anchor_position_reads_low_bits() {
        assert_eq!(MessageId::anchor_position(0xFFFF_FFFF_FFFF_0042), 0x42);
        assert_eq!(MessageId::anchor_position(0x1234), 0x1234);
    }
}
