// Reliable, ordered group communication — the engineering-viewpoint group
// support the paper calls for in §4.2.2-iv.
//
// GroupChannel layers three guarantees over the lossy, reordering simulated
// network:
//
//   1. Reliability: positive acknowledgement with retransmission and
//      receiver-side duplicate suppression (at-least-once on the wire,
//      exactly-once delivery to the application).
//   2. Ordering, selectable per channel:
//        kUnordered — deliver on arrival,
//        kFifo      — per-sender sequence order (hold-back queue),
//        kCausal    — vector-clock causal order (Birman-style CBCAST),
//        kTotal     — sequencer-based total order (the first live member
//                     acts as sequencer; all members deliver in the same
//                     global sequence).
//   3. Failure masking: members marked failed are dropped from the ack
//      quorum so the sender does not retransmit forever.
//
// Site indices: every member occupies a fixed slot in the member list.
// Slots are append-only — a failed member's slot is marked dead rather than
// compacted — so vector-clock components never need remapping mid-session.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "time/logical_clocks.hpp"
#include "util/seq_runs.hpp"

namespace coop::groups {

/// Delivery-order guarantee of a channel.
enum class Ordering : std::uint8_t {
  kUnordered = 0,
  kFifo = 1,
  kCausal = 2,
  kTotal = 3,
};

/// What the application sees for each delivered message.
struct Delivery {
  std::size_t sender = 0;        ///< site index of the originator
  net::Address sender_addr;      ///< address of the originator
  std::uint64_t seq = 0;         ///< per-sender sequence number
  std::uint64_t total_seq = 0;   ///< global sequence (kTotal only)
  std::string payload;
  sim::TimePoint sent_at = 0;    ///< virtual time of the original broadcast
  /// Causal context of this delivery (descends from the originating
  /// broadcast, through every network hop and sequencer relay).  Pass it
  /// as the parent of any work the delivery triggers to keep the chain
  /// in one trace.
  obs::CausalContext ctx{};
};

/// Channel tuning knobs.
struct ChannelConfig {
  Ordering ordering = Ordering::kFifo;
  sim::Duration retransmit_timeout = sim::msec(50);
  int max_retransmits = 10;
  /// Sender delivers its own broadcast locally without a network round
  /// trip (kTotal ignores this: local delivery waits for the sequencer).
  bool local_echo = true;
  /// Scheduling class stamped on every frame this channel sends; the
  /// overload plane sheds lowest-priority-first.  Group streams carrying
  /// awareness/media should run kBackground, membership kControl.
  net::Priority priority = net::Priority::kCore;
  /// Relative deadline applied to each broadcast (absolute deadline =
  /// broadcast time + this); 0 = none.  Propagated in message headers so
  /// the total-order sequencer drops expired requests on dequeue and
  /// retransmission stops once the work is pointless.
  sim::Duration broadcast_deadline = 0;
  /// Bound on the receive hold-back queue; 0 = unbounded.  An arrival
  /// that is not yet deliverable while the queue is full is shed *before*
  /// it is acknowledged or deduped, so the sender's retransmission
  /// redelivers it once space exists — bounded memory without breaking
  /// the reliability contract.
  std::size_t max_holdback = 0;
  /// Bound on the sequencer's per-sender stash of out-of-order ordering
  /// requests; 0 = unbounded.  Over the cap the request is dropped
  /// *unacked* (retransmit backpressure) rather than queued without
  /// bound.
  std::size_t sequencer_stash_cap = 0;
  /// kTotal: close the sequencer-failover loss window.  The promoted
  /// sequencer solicits every survivor's delivered tail plus each
  /// sender's buffer of acked-but-not-yet-self-delivered requests, and
  /// replays them into the new epoch in the old global order — so a
  /// broadcast the dead sequencer acknowledged but never finished
  /// relaying is re-sequenced instead of lost.  Off = legacy behavior
  /// (resume from the new sequencer's own prefix; acked-but-unrelayed
  /// messages may be lost and are counted in stats().failover_lost).
  bool failover_replay = true;
  /// kTotal failover recovery: per-member bound (entries) on the retained
  /// tail of past deliveries that seeds the replay.  Survivors lagging
  /// further behind the common prefix than this cannot be caught up by
  /// recovery alone (retransmission still repairs them pre-failover).
  std::size_t recovery_tail = 128;
  /// kTotal failover recovery: the promoted sequencer waits at most this
  /// long for solicited summaries before proceeding with what arrived
  /// (covers survivors that die mid-recovery without a view change).
  sim::Duration recovery_timeout = sim::msec(500);
};

/// Channel statistics for experiment accounting.
struct ChannelStats {
  std::uint64_t broadcasts = 0;
  std::uint64_t delivered = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t gave_up = 0;        ///< messages that exhausted retries
  std::uint64_t held_back_max = 0;  ///< high-water mark of hold-back queue
  std::uint64_t held_back_shed = 0;  ///< arrivals shed: hold-back at cap
  std::uint64_t stash_shed = 0;      ///< ordering reqs dropped unacked at cap
  std::uint64_t expired_drops = 0;   ///< reqs dropped expired at sequencing
  std::uint64_t expired_abandoned = 0;  ///< retransmissions stopped: expired
  std::uint64_t failover_lost = 0;   ///< acked broadcasts lost to failover
  std::uint64_t failover_replayed = 0;  ///< broadcasts replayed at failover
  std::uint64_t phantom_commits = 0;  ///< re-sequenced slots committed w/o
                                      ///< redelivery (already delivered)
};

/// One member's endpoint of a reliable ordered group channel.
class GroupChannel : public net::Endpoint {
 public:
  using DeliverFn = std::function<void(const Delivery&)>;

  /// Creates the member endpoint and attaches it to the network at
  /// @p self.  Call set_members() before the first broadcast.
  GroupChannel(net::Network& net, net::Address self, net::McastId group,
               ChannelConfig config = {});
  ~GroupChannel() override;

  GroupChannel(const GroupChannel&) = delete;
  GroupChannel& operator=(const GroupChannel&) = delete;

  /// Fixes the member list (identical order at every member).  The slot of
  /// @p self in this list becomes this member's site index.
  void set_members(const std::vector<net::Address>& members);

  /// Registers the application delivery callback.
  void on_deliver(DeliverFn fn) { deliver_ = std::move(fn); }

  /// Broadcasts @p payload to the group with the configured guarantees.
  /// Returns this member's per-sender sequence number for the message.
  /// @p parent optionally links the broadcast into an existing trace (a
  /// user-action context); when invalid the broadcast starts a fresh
  /// trace.  Retransmissions and every member's delivery descend from it.
  std::uint64_t broadcast(std::string payload,
                          const obs::CausalContext& parent = {});

  /// Marks a member failed: no further acks expected from it, pending
  /// retransmissions to it are abandoned.  (Fed by the membership
  /// service's failure detector.)
  ///
  /// kTotal sequencer failover: if the failed member was the sequencer,
  /// the lowest surviving slot takes over in a new *epoch*.  Unacked
  /// ordering requests are re-routed to the new sequencer.
  ///
  /// With ChannelConfig::failover_replay (default) the new sequencer runs
  /// a recovery round first: it solicits every survivor's delivered tail
  /// and un-relayed-but-acked request buffer, re-sequences the recovered
  /// suffix into the new epoch in the old global order, and replays the
  /// acked requests the dead sequencer never relayed — so survivors agree
  /// on one order that *extends* each survivor's delivered prefix and no
  /// acked broadcast from a surviving sender is lost, even when the
  /// coordinator dies in the same incident.  With replay disabled the new
  /// sequencer resumes from its own delivered prefix and messages the old
  /// sequencer acknowledged but did not finish relaying may be lost
  /// (counted in stats().failover_lost).
  void mark_failed(const net::Address& member);

  [[nodiscard]] std::size_t self_index() const noexcept { return self_index_; }
  [[nodiscard]] net::Address self() const noexcept { return self_; }
  [[nodiscard]] const ChannelStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t member_count() const noexcept {
    return members_.size();
  }
  [[nodiscard]] bool is_sequencer() const noexcept;
  /// Runs held by the dedupe state, summed over senders: one per sender
  /// once its sequence numbers are gap-free, plus one per remaining gap.
  [[nodiscard]] std::size_t dedupe_runs() const noexcept;
  /// Own kTotal broadcasts retained until they come back through the
  /// sequencer (the failover replay buffer).
  [[nodiscard]] std::size_t relay_waiting() const noexcept {
    return relay_wait_.size();
  }

  void on_message(const net::Message& msg) override;

 private:
  enum class MsgType : std::uint8_t {
    kData = 1,      ///< reliable broadcast payload
    kAck = 2,       ///< receiver ack for kData
    kTotalReq = 3,  ///< sender -> sequencer ordering request
    kSolicit = 4,   ///< new sequencer -> members: send recovery summaries
    kRecover = 5,   ///< member -> new sequencer: tail + un-relayed requests
  };

  /// Set of member slots as a bitmask: slots below 64 live inline (no
  /// allocation), larger groups spill into heap words.  for_each visits
  /// slots in ascending order, as iterating a std::set would.
  class SlotMask {
   public:
    void insert(std::size_t slot) { word(slot / 64) |= bit(slot); }
    /// Clears @p slot (a slot from the wire may lie past every word).
    void erase(std::size_t slot) {
      if (contains(slot)) word(slot / 64) &= ~bit(slot);
    }
    [[nodiscard]] bool contains(std::size_t slot) const {
      return (get(slot / 64) & bit(slot)) != 0;
    }
    [[nodiscard]] bool empty() const {
      return low_ == 0 && std::all_of(high_.begin(), high_.end(),
                                      [](std::uint64_t w) { return w == 0; });
    }
    template <typename Fn>
    void for_each(Fn&& fn) const {
      for (std::size_t w = 0; w <= high_.size(); ++w) {
        for (std::uint64_t bits = get(w); bits != 0; bits &= bits - 1)
          fn(w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
      }
    }

   private:
    static std::uint64_t bit(std::size_t slot) {
      return std::uint64_t{1} << (slot % 64);
    }
    [[nodiscard]] std::uint64_t get(std::size_t w) const {
      if (w == 0) return low_;
      return w <= high_.size() ? high_[w - 1] : 0;
    }
    std::uint64_t& word(std::size_t w) {
      if (w == 0) return low_;
      if (high_.size() < w) high_.resize(w, 0);
      return high_[w - 1];
    }
    std::uint64_t low_ = 0;            ///< slots 0..63
    std::vector<std::uint64_t> high_;  ///< slots 64.. (large groups only)
  };

  struct Pending {  // sender side: awaiting acks
    util::Buf wire;                  ///< encoded DATA, shared by resends
    SlotMask awaiting;               ///< member slots yet to ack
    int retries = 0;
    sim::EventId timer = sim::kInvalidEvent;
    bool is_total_req = false;       ///< re-route to new sequencer on fail
    sim::TimePoint deadline = 0;     ///< stamped on (re)sends; 0 = none
    obs::CausalContext ctx{};        ///< broadcast span; resends are children
  };

  struct HeldBack {  // receiver side: not yet deliverable
    Delivery delivery;
    logical::VectorClock vclock;   // kCausal only
    std::uint32_t epoch = 0;       // kTotal only: sequencing epoch
    bool phantom = false;  // kTotal replay: commit the slot, don't redeliver
  };

  void send_data(std::uint64_t seq, const util::Buf& wire,
                 const obs::CausalContext& ctx, sim::TimePoint deadline);
  void arm_retransmit(std::uint64_t seq);
  void handle_data(const net::Message& msg);
  /// Ordering-agnostic "could this be delivered right now" predicate,
  /// shared by try_deliver / flush_holdback / the hold-back bound.
  [[nodiscard]] bool deliverable_now(const HeldBack& hb) const;
  /// Commits the ordering cursors for a delivery about to happen.
  void commit_order(const HeldBack& hb);
  void handle_ack(const net::Message& msg);
  void handle_total_req(const net::Message& msg);
  void sequence_ready_reqs(std::size_t sender);
  void try_deliver(HeldBack hb);
  void flush_holdback();
  void deliver_now(const Delivery& d);

  util::Buf encode_data(std::size_t sender, std::uint64_t seq,
                          std::uint64_t total_seq, sim::TimePoint sent_at,
                          const logical::VectorClock& vc,
                          const std::string& payload) const;

  net::Network& net_;
  net::Address self_;
  net::McastId group_;
  ChannelConfig config_;
  std::vector<net::Address> members_;
  std::vector<bool> alive_;
  std::size_t self_index_ = 0;
  DeliverFn deliver_;

  std::uint64_t next_seq_ = 1;                   // own per-sender seq
  std::map<std::uint64_t, Pending> pending_;     // own unacked broadcasts
  std::vector<std::uint64_t> next_expected_;     // FIFO: per-sender cursor
  std::vector<util::SeqRuns> seen_;              // dedupe per sender
  std::deque<HeldBack> holdback_;
  logical::VectorClock vclock_;                  // causal state

  // kTotal sequencer state (only used at the sequencer slot).  Ordering
  // requests are sequenced in per-sender seq order — not raw arrival
  // order — so total order preserves each sender's FIFO order even when
  // the network reorders requests in flight.
  struct StashedReq {
    sim::TimePoint sent_at;
    std::string payload;
    sim::TimePoint deadline = 0;  ///< from the request header; 0 = none
    obs::CausalContext ctx{};  ///< context of the arriving ordering request
  };
  std::uint64_t next_total_seq_ = 1;
  std::uint64_t next_expected_total_ = 1;  // receiver cursor for total order
  std::uint32_t epoch_ = 0;                // receiver: current sequencer slot
  bool resync_ = false;  // new sequencer: relax req contiguity once
  std::vector<std::uint64_t> next_req_;    // per-sender request cursor
  std::vector<std::map<std::uint64_t, StashedReq>> stashed_reqs_;

  // kTotal failover-recovery state (failover_replay).
  //
  // Every member retains a bounded tail of its past total-order deliveries
  // (delivered_tail_) and every sender keeps the payload of each broadcast
  // until it has delivered it *itself* (relay_wait_ — once self-delivered,
  // the whole group's sequencer has relayed it and it can no longer be
  // lost to a sequencer crash) or its deadline passes (no sequencer will
  // order it then; the old one may have dropped it expired, and then it
  // never comes back).  On takeover the new sequencer solicits both from
  // all survivors and replays them into the new epoch.
  struct TailEntry {
    std::uint32_t sender = 0;
    std::uint64_t seq = 0;
    std::uint32_t epoch = 0;     ///< epoch the delivery committed under
    std::uint64_t total = 0;     ///< total_seq the delivery committed under
    sim::TimePoint sent_at = 0;
    std::string payload;
  };
  struct RelayWait {  // an own broadcast not yet delivered back to us
    sim::TimePoint sent_at = 0;
    sim::TimePoint deadline = 0;
    std::string payload;
    obs::CausalContext ctx{};
  };
  struct ReplayReq {  // recovered un-relayed request, keyed by (sender,seq)
    std::uint32_t sender = 0;
    std::uint64_t seq = 0;
    sim::TimePoint sent_at = 0;
    sim::TimePoint deadline = 0;
    std::string payload;
  };
  std::deque<TailEntry> delivered_tail_;
  std::map<std::uint64_t, RelayWait> relay_wait_;  // own seq -> payload
  bool recovering_ = false;
  std::set<std::size_t> recover_await_;            // slots yet to answer
  std::map<std::uint64_t, TailEntry> recovered_;   // pending_key -> entry
  std::map<std::uint64_t, ReplayReq> relay_replays_;
  std::pair<std::uint32_t, std::uint64_t> recover_min_pos_{0, 0};
  sim::TimePoint recover_started_ = 0;
  sim::EventId recover_timer_ = sim::kInvalidEvent;

  /// kTotal with the replay protocol active (dedupe becomes delivery-based
  /// so re-sequenced copies of undelivered messages are not swallowed).
  [[nodiscard]] bool total_replay() const noexcept {
    return config_.ordering == Ordering::kTotal && config_.failover_replay;
  }
  void tail_push(std::uint32_t sender, std::uint64_t seq, std::uint32_t epoch,
                 std::uint64_t total, sim::TimePoint sent_at,
                 const std::string& payload);
  /// Forgets own broadcasts whose deadline has passed: they can never be
  /// sequenced, so they must neither pile up nor be replayed at failover.
  void drop_expired_relays();
  void begin_recovery();
  void send_solicits();
  void handle_solicit(const net::Message& msg);
  void handle_recover(const net::Message& msg);
  void finish_recovery();
  void resequence(std::uint32_t sender, std::uint64_t seq,
                  sim::TimePoint sent_at, std::string payload);

  [[nodiscard]] std::size_t sequencer_slot() const;
  void take_over_sequencing();

  // Hot storage for the channel's counters; the registry reads it through
  // polled views under metric_prefix_ (retired/frozen in the destructor).
  ChannelStats stats_;
  std::string metric_prefix_;
  // Observability plane: windowed delivery rate and the wall-clock cost
  // of the application delivery callback.
  obs::Timeseries::SeriesId ts_delivered_;
  obs::Profiler::SiteId prof_deliver_;
};

}  // namespace coop::groups
