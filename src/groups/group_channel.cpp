#include "groups/group_channel.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "util/codec.hpp"

namespace coop::groups {

namespace {

/// Pending-table key: per-sender sequence numbers are unique, so the pair
/// (sender slot, seq) identifies any message in the group.
std::uint64_t pending_key(std::size_t sender, std::uint64_t seq) {
  return (static_cast<std::uint64_t>(sender) << 40) | seq;
}

}  // namespace

GroupChannel::GroupChannel(net::Network& net, net::Address self,
                           net::McastId group, ChannelConfig config)
    : net_(net), self_(self), group_(group), config_(config) {
  net_.attach(self_, *this);
  net_.mcast_join(group_, self_);
  // stats_ stays the hot storage; the registry polls it through views.
  metric_prefix_ = "groups.channel." + std::to_string(self_.node) + ":" +
                   std::to_string(self_.port) + ".";
  auto& m = net_.obs().metrics;
  m.expose(metric_prefix_ + "broadcasts",
           [this] { return static_cast<double>(stats_.broadcasts); });
  m.expose(metric_prefix_ + "delivered",
           [this] { return static_cast<double>(stats_.delivered); });
  m.expose(metric_prefix_ + "duplicates",
           [this] { return static_cast<double>(stats_.duplicates); });
  m.expose(metric_prefix_ + "retransmits",
           [this] { return static_cast<double>(stats_.retransmits); });
  m.expose(metric_prefix_ + "gave_up",
           [this] { return static_cast<double>(stats_.gave_up); });
  m.expose(metric_prefix_ + "held_back_max",
           [this] { return static_cast<double>(stats_.held_back_max); });
  m.expose(metric_prefix_ + "held_back_shed",
           [this] { return static_cast<double>(stats_.held_back_shed); });
  m.expose(metric_prefix_ + "stash_shed",
           [this] { return static_cast<double>(stats_.stash_shed); });
  m.expose(metric_prefix_ + "expired_drops",
           [this] { return static_cast<double>(stats_.expired_drops); });
  m.expose(metric_prefix_ + "failover_lost",
           [this] { return static_cast<double>(stats_.failover_lost); });
  m.expose(metric_prefix_ + "failover_replayed",
           [this] { return static_cast<double>(stats_.failover_replayed); });
  m.expose(metric_prefix_ + "phantom_commits",
           [this] { return static_cast<double>(stats_.phantom_commits); });
  ts_delivered_ = net_.obs().series.series("group.delivered");
  prof_deliver_ = net_.obs().profiler.site("group.deliver",
                                           obs::Category::kGroup);
}

GroupChannel::~GroupChannel() {
  for (auto& [key, p] : pending_) {
    if (p.timer != sim::kInvalidEvent) net_.simulator().cancel(p.timer);
  }
  if (recover_timer_ != sim::kInvalidEvent)
    net_.simulator().cancel(recover_timer_);
  net_.obs().metrics.retire_polled(metric_prefix_);
  net_.mcast_leave(group_, self_);
  net_.detach(self_);
}

void GroupChannel::set_members(const std::vector<net::Address>& members) {
  members_ = members;
  alive_.assign(members_.size(), true);
  next_expected_.assign(members_.size(), 1);
  seen_.assign(members_.size(), {});
  next_req_.assign(members_.size(), 1);
  stashed_reqs_.assign(members_.size(), {});
  vclock_ = logical::VectorClock(members_.size());
  auto it = std::find(members_.begin(), members_.end(), self_);
  assert(it != members_.end() && "self must be a group member");
  self_index_ = static_cast<std::size_t>(it - members_.begin());
}

std::size_t GroupChannel::dedupe_runs() const noexcept {
  std::size_t runs = 0;
  for (const util::SeqRuns& s : seen_) runs += s.runs();
  return runs;
}

bool GroupChannel::is_sequencer() const noexcept {
  // The lowest-numbered live slot sequences; failure promotes the next.
  for (std::size_t i = 0; i < alive_.size(); ++i) {
    if (alive_[i]) return i == self_index_;
  }
  return false;
}

std::size_t GroupChannel::sequencer_slot() const {
  std::size_t slot = 0;
  while (slot < alive_.size() && !alive_[slot]) ++slot;
  return slot;
}

void GroupChannel::take_over_sequencing() {
  // Resume from what we have delivered ourselves: the contiguous prefix
  // of each sender's seen set.  The resync flag lets the first request
  // per sender jump over messages lost with the old sequencer.
  resync_ = true;
  next_total_seq_ = 1;
  for (std::size_t s = 0; s < seen_.size(); ++s)
    next_req_[s] = seen_[s].next_absent(next_req_[s]);
  if (total_replay()) begin_recovery();
}

void GroupChannel::tail_push(std::uint32_t sender, std::uint64_t seq,
                             std::uint32_t epoch, std::uint64_t total,
                             sim::TimePoint sent_at,
                             const std::string& payload) {
  if (!total_replay() || config_.recovery_tail == 0) return;
  delivered_tail_.push_back(
      {sender, seq, epoch, total, sent_at, payload});
  while (delivered_tail_.size() > config_.recovery_tail)
    delivered_tail_.pop_front();
}

void GroupChannel::drop_expired_relays() {
  // Deadlines are stamped as now + a fixed offset, so they rise with seq:
  // the expired entries are a prefix of the map.
  const sim::TimePoint now = net_.simulator().now();
  while (!relay_wait_.empty()) {
    const sim::TimePoint deadline = relay_wait_.begin()->second.deadline;
    if (deadline == 0 || now < deadline) break;
    relay_wait_.erase(relay_wait_.begin());
  }
}

void GroupChannel::begin_recovery() {
  drop_expired_relays();
  recovering_ = true;
  recovered_.clear();
  relay_replays_.clear();
  recover_await_.clear();
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (i != self_index_ && alive_[i]) recover_await_.insert(i);
  }
  // Our own un-relayed broadcasts join the replay pool exactly like a
  // solicited member's would.
  for (const auto& [seq, rw] : relay_wait_) {
    relay_replays_.try_emplace(
        pending_key(self_index_, seq),
        ReplayReq{static_cast<std::uint32_t>(self_index_), seq, rw.sent_at,
                  rw.deadline, rw.payload});
  }
  recover_min_pos_ = {epoch_, next_expected_total_ - 1};
  recover_started_ = net_.simulator().now();
  net_.obs().tracer.event(
      recover_started_, obs::Category::kGroup, "failover_solicit",
      {{"slot", static_cast<double>(self_index_)},
       {"await", static_cast<double>(recover_await_.size())}});
  if (recover_await_.empty()) {
    finish_recovery();
    return;
  }
  send_solicits();
}

void GroupChannel::send_solicits() {
  util::Writer w;
  w.put(MsgType::kSolicit)
      .put(static_cast<std::uint32_t>(epoch_))
      .put(next_expected_total_ - 1);
  const util::Buf wire = w.take_buf();
  for (std::size_t slot : recover_await_) {
    net_.send({.src = self_, .dst = members_[slot], .payload = wire,
               .priority = config_.priority});
  }
  recover_timer_ = net_.simulator().schedule_after(
      config_.retransmit_timeout, [this] {
        recover_timer_ = sim::kInvalidEvent;
        if (!recovering_) return;
        if (net_.simulator().now() - recover_started_ >=
            config_.recovery_timeout) {
          // Some solicited member never answered (it likely died without
          // a view change reaching us yet): recover from what we have.
          net_.obs().tracer.event(
              net_.simulator().now(), obs::Category::kGroup,
              "failover_recovery_timeout",
              {{"unanswered", static_cast<double>(recover_await_.size())}});
          finish_recovery();
          return;
        }
        send_solicits();
      });
}

void GroupChannel::handle_solicit(const net::Message& msg) {
  if (!total_replay()) return;
  util::Reader r(msg.payload);
  r.get<MsgType>();
  const auto their_epoch = r.get<std::uint32_t>();
  const auto their_total = r.get<std::uint64_t>();
  if (r.failed()) return;
  // Answer with our delivered position, every tail entry the solicitor has
  // not itself delivered, and every own broadcast not yet relayed back to
  // us (and not yet expired).  Authority stays with the solicitor.
  drop_expired_relays();
  util::Writer w;
  w.put(MsgType::kRecover)
      .put(static_cast<std::uint32_t>(self_index_))
      .put(static_cast<std::uint32_t>(epoch_))
      .put(next_expected_total_ - 1);
  std::uint32_t n_tail = 0;
  for (const TailEntry& e : delivered_tail_) {
    if (std::pair(e.epoch, e.total) > std::pair(their_epoch, their_total))
      ++n_tail;
  }
  w.put(n_tail);
  for (const TailEntry& e : delivered_tail_) {
    if (std::pair(e.epoch, e.total) <= std::pair(their_epoch, their_total))
      continue;
    w.put(e.sender).put(e.seq).put(e.epoch).put(e.total).put(e.sent_at);
    w.put_string(e.payload);
  }
  w.put(static_cast<std::uint32_t>(relay_wait_.size()));
  for (const auto& [seq, rw] : relay_wait_) {
    w.put(seq).put(rw.sent_at).put(rw.deadline);
    w.put_string(rw.payload);
  }
  net_.send({.src = self_, .dst = msg.src, .payload = w.take_buf(),
             .priority = config_.priority});
}

void GroupChannel::handle_recover(const net::Message& msg) {
  if (!recovering_) return;  // late/duplicate summary
  util::Reader r(msg.payload);
  r.get<MsgType>();
  const auto responder = r.get<std::uint32_t>();
  const auto their_epoch = r.get<std::uint32_t>();
  const auto their_total = r.get<std::uint64_t>();
  const auto n_tail = r.get<std::uint32_t>();
  if (r.failed() || responder >= members_.size()) return;
  for (std::uint32_t i = 0; i < n_tail && !r.failed(); ++i) {
    TailEntry e;
    e.sender = r.get<std::uint32_t>();
    e.seq = r.get<std::uint64_t>();
    e.epoch = r.get<std::uint32_t>();
    e.total = r.get<std::uint64_t>();
    e.sent_at = r.get<sim::TimePoint>();
    e.payload = r.get_string();
    if (r.failed() || e.sender >= members_.size()) break;
    // Keep the highest-position copy: after chained failovers the latest
    // epoch's slot is the binding one.
    auto [it, inserted] =
        recovered_.try_emplace(pending_key(e.sender, e.seq), e);
    if (!inserted &&
        std::pair(e.epoch, e.total) >
            std::pair(it->second.epoch, it->second.total)) {
      it->second = std::move(e);
    }
  }
  const auto n_relay = r.get<std::uint32_t>();
  for (std::uint32_t i = 0; i < n_relay && !r.failed(); ++i) {
    ReplayReq rep;
    rep.sender = responder;
    rep.seq = r.get<std::uint64_t>();
    rep.sent_at = r.get<sim::TimePoint>();
    rep.deadline = r.get<sim::TimePoint>();
    rep.payload = r.get_string();
    if (r.failed()) break;
    relay_replays_.try_emplace(pending_key(responder, rep.seq),
                               std::move(rep));
  }
  if (recover_await_.erase(responder) == 0) return;  // duplicate summary
  recover_min_pos_ =
      std::min(recover_min_pos_, std::pair(their_epoch, their_total));
  if (recover_await_.empty()) finish_recovery();
}

void GroupChannel::finish_recovery() {
  recovering_ = false;
  if (recover_timer_ != sim::kInvalidEvent) {
    net_.simulator().cancel(recover_timer_);
    recover_timer_ = sim::kInvalidEvent;
  }
  // Our own tail is a summary like any other (merged late so deliveries
  // that landed during the solicit round are included).
  for (const TailEntry& e : delivered_tail_) {
    auto [it, inserted] =
        recovered_.try_emplace(pending_key(e.sender, e.seq), e);
    if (!inserted &&
        std::pair(e.epoch, e.total) >
            std::pair(it->second.epoch, it->second.total)) {
      it->second = e;
    }
  }
  // Phase 1: re-sequence the recovered suffix — everything some survivor
  // delivered beyond the *minimum* live prefix — in the old global order,
  // so the new epoch's order extends every survivor's delivered prefix.
  std::vector<const TailEntry*> suffix;
  for (const auto& [key, e] : recovered_) {
    if (std::pair(e.epoch, e.total) > recover_min_pos_)
      suffix.push_back(&e);
  }
  std::sort(suffix.begin(), suffix.end(),
            [](const TailEntry* a, const TailEntry* b) {
              return std::pair(a->epoch, a->total) <
                     std::pair(b->epoch, b->total);
            });
  std::uint64_t resequenced = 0;
  for (const TailEntry* e : suffix) {
    resequence(e->sender, e->seq, e->sent_at, e->payload);
    ++resequenced;
  }
  // Phase 2: replay acked-but-unrelayed requests (the loss window) in
  // deterministic (sender, seq) order — map order already is that.
  std::uint64_t replayed = 0;
  for (auto& [key, rep] : relay_replays_) {
    if (recovered_.count(key) != 0) continue;       // relayed after all
    if (seen_[rep.sender].count(rep.seq) != 0) continue;  // already placed
    if (rep.deadline > 0 && net_.simulator().now() >= rep.deadline) {
      ++stats_.expired_drops;
      seen_[rep.sender].insert(rep.seq);
      next_req_[rep.sender] = std::max(next_req_[rep.sender], rep.seq + 1);
      continue;
    }
    resequence(rep.sender, rep.seq, rep.sent_at, std::move(rep.payload));
    ++stats_.failover_replayed;
    ++replayed;
  }
  recovered_.clear();
  relay_replays_.clear();
  net_.obs().tracer.event(
      net_.simulator().now(), obs::Category::kGroup, "failover_recovered",
      {{"slot", static_cast<double>(self_index_)},
       {"resequenced", static_cast<double>(resequenced)},
       {"replayed", static_cast<double>(replayed)}});
  // Phase 3: fresh requests that arrived (and were stashed) during the
  // round.  Anything the replay already placed is pruned first so the
  // stash cannot re-sequence it.
  for (std::size_t s = 0; s < members_.size(); ++s) {
    auto& stash = stashed_reqs_[s];
    for (auto it = stash.begin();
         it != stash.end() && it->first < next_req_[s];) {
      it = stash.erase(it);
    }
    sequence_ready_reqs(s);
  }
}

void GroupChannel::resequence(std::uint32_t sender, std::uint64_t seq,
                              sim::TimePoint sent_at, std::string payload) {
  next_req_[sender] = std::max(next_req_[sender], seq + 1);
  const bool already_delivered_here = seen_[sender].count(seq) != 0;
  seen_[sender].insert(seq);
  const std::uint64_t total_seq = next_total_seq_++;
  const util::Buf wire = encode_data(sender, seq, total_seq, sent_at,
                                     logical::VectorClock(), payload);
  send_data(pending_key(sender, seq), wire, obs::CausalContext{}, 0);
  epoch_ = static_cast<std::uint32_t>(self_index_);
  next_expected_total_ = total_seq + 1;
  tail_push(sender, seq, epoch_, total_seq, sent_at, payload);
  if (already_delivered_here) {
    ++stats_.phantom_commits;  // slot committed; app already saw it
    return;
  }
  deliver_now({.sender = sender,
               .sender_addr = members_[sender],
               .seq = seq,
               .total_seq = total_seq,
               .payload = std::move(payload),
               .sent_at = sent_at,
               .ctx = {}});
}

util::Buf GroupChannel::encode_data(std::size_t sender, std::uint64_t seq,
                                      std::uint64_t total_seq,
                                      sim::TimePoint sent_at,
                                      const logical::VectorClock& vc,
                                      const std::string& payload) const {
  util::Writer w;
  w.put(MsgType::kData)
      .put(static_cast<std::uint32_t>(sender))
      .put(seq)
      .put(total_seq)
      .put(static_cast<std::uint32_t>(self_index_))  // sequencing epoch
      .put(sent_at);
  vc.encode(w);
  w.put_string(payload);
  return w.take_buf();
}

std::uint64_t GroupChannel::broadcast(std::string payload,
                                      const obs::CausalContext& parent) {
  assert(!members_.empty() && "set_members before broadcast");
  const std::uint64_t seq = next_seq_++;
  ++stats_.broadcasts;
  const sim::TimePoint now = net_.simulator().now();
  obs::Tracer& tracer = net_.obs().tracer;
  // The broadcast is the causal root of every member's delivery (or a
  // child of the caller's context when the broadcast continues a trace).
  const obs::CausalContext bctx = parent.valid()
                                      ? parent.child(tracer.mint_id())
                                      : tracer.begin_trace();
  tracer.event(now, obs::Category::kGroup, "broadcast", bctx,
               {{"sender", static_cast<double>(self_index_)},
                {"seq", static_cast<double>(seq)}});
  // Deadline propagation: stamped into the wire header so the sequencer
  // can drop the request once expired, and onto Pending so retransmission
  // stops when the work is pointless.
  const sim::TimePoint deadline =
      config_.broadcast_deadline > 0 ? now + config_.broadcast_deadline : 0;

  // A recovering sequencer routes its own broadcasts through the ordinary
  // request path (to itself) so they stash and sequence after the replayed
  // suffix, not before it.
  if (config_.ordering == Ordering::kTotal &&
      (!is_sequencer() || recovering_)) {
    // Ship an ordering request to the sequencer; our message comes back to
    // us (and everyone) inside the sequencer's totally ordered stream.
    // Retain the payload until we deliver it ourselves: if the sequencer
    // dies after acking but before relaying, the promoted sequencer
    // replays it from this buffer (with replay disabled the buffer only
    // quantifies the loss window).
    drop_expired_relays();
    relay_wait_[seq] = {now, deadline, payload, bctx};
    util::Writer w;
    w.put(MsgType::kTotalReq)
        .put(static_cast<std::uint32_t>(self_index_))
        .put(seq)
        .put(now)
        .put_string(payload);
    const util::Buf wire = w.take_buf();

    const std::size_t seq_slot = sequencer_slot();
    Pending p;
    p.wire = wire;
    p.awaiting.insert(seq_slot);
    p.is_total_req = true;
    p.deadline = deadline;
    p.ctx = bctx;
    pending_[pending_key(self_index_, seq)] = std::move(p);
    net_.send({.src = self_, .dst = members_[seq_slot], .payload = wire,
               .deadline = deadline, .priority = config_.priority,
               .ctx = bctx});
    arm_retransmit(pending_key(self_index_, seq));
    return seq;
  }

  std::uint64_t total_seq = 0;
  if (config_.ordering == Ordering::kCausal) vclock_.tick(self_index_);
  if (config_.ordering == Ordering::kTotal) total_seq = next_total_seq_++;

  const util::Buf wire =
      encode_data(self_index_, seq, total_seq, now, vclock_, payload);
  send_data(pending_key(self_index_, seq), wire, bctx, deadline);

  // Local delivery.  kTotal delivers at sequencing time (which, for the
  // sequencer itself, is right now); others echo immediately.
  if (config_.ordering == Ordering::kTotal) {
    seen_[self_index_].insert(seq);
    epoch_ = static_cast<std::uint32_t>(self_index_);
    next_expected_total_ = total_seq + 1;
    tail_push(static_cast<std::uint32_t>(self_index_), seq, epoch_, total_seq,
              now, payload);
    deliver_now({.sender = self_index_,
                 .sender_addr = self_,
                 .seq = seq,
                 .total_seq = total_seq,
                 .payload = std::move(payload),
                 .sent_at = now,
                 .ctx = bctx.child(tracer.mint_id())});
  } else if (config_.local_echo) {
    seen_[self_index_].insert(seq);
    if (config_.ordering == Ordering::kFifo)
      next_expected_[self_index_] = seq + 1;
    deliver_now({.sender = self_index_,
                 .sender_addr = self_,
                 .seq = seq,
                 .total_seq = 0,
                 .payload = std::move(payload),
                 .sent_at = now,
                 .ctx = bctx.child(tracer.mint_id())});
  }
  return seq;
}

void GroupChannel::send_data(std::uint64_t key, const util::Buf& wire,
                             const obs::CausalContext& ctx,
                             sim::TimePoint deadline) {
  Pending p;
  p.wire = wire;
  p.deadline = deadline;
  p.ctx = ctx;
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (i != self_index_ && alive_[i]) p.awaiting.insert(i);
  }
  if (p.awaiting.empty()) return;  // singleton group: nothing on the wire
  pending_[key] = std::move(p);
  // One context for the whole multicast; the network mints a per-copy hop
  // child, so each member's delivery still has a distinct span.
  net_.multicast(group_, {.src = self_, .dst = {}, .payload = wire,
                          .deadline = deadline,
                          .priority = config_.priority, .ctx = ctx});
  arm_retransmit(key);
}

void GroupChannel::arm_retransmit(std::uint64_t key) {
  auto it = pending_.find(key);
  if (it == pending_.end()) return;
  it->second.timer = net_.simulator().schedule_after(
      config_.retransmit_timeout, [this, key] {
        auto pit = pending_.find(key);
        if (pit == pending_.end()) return;
        Pending& p = pit->second;
        p.timer = sim::kInvalidEvent;
        obs::Tracer& tracer = net_.obs().tracer;
        // Retries never extend past the deadline: once the work is
        // pointless, stop paying for it (members that missed the frame
        // would only have dropped it expired anyway).
        if (p.deadline > 0 && net_.simulator().now() >= p.deadline) {
          ++stats_.expired_abandoned;
          tracer.event(net_.simulator().now(), obs::Category::kGroup,
                       "expired",
                       p.ctx.valid() ? p.ctx.child(tracer.mint_id())
                                     : obs::CausalContext{},
                       {{"key", static_cast<double>(key)}});
          if (p.is_total_req)
            relay_wait_.erase(key & ((std::uint64_t{1} << 40) - 1));
          pending_.erase(pit);
          return;
        }
        if (++p.retries > config_.max_retransmits) {
          ++stats_.gave_up;
          tracer.event(net_.simulator().now(), obs::Category::kGroup,
                       "give_up",
                       p.ctx.valid() ? p.ctx.child(tracer.mint_id())
                                     : obs::CausalContext{},
                       {{"key", static_cast<double>(key)}});
          if (p.is_total_req)
            relay_wait_.erase(key & ((std::uint64_t{1} << 40) - 1));
          pending_.erase(pit);
          return;
        }
        // Unicast retransmission to just the members still missing.  Each
        // resend is a child of the broadcast span; `waited` is the ack
        // timeout that lapsed first — the critical-path "retry" bucket.
        p.awaiting.for_each([&](std::size_t slot) {
          if (!alive_[slot]) return;
          ++stats_.retransmits;
          const obs::CausalContext rctx =
              p.ctx.valid() ? p.ctx.child(tracer.mint_id())
                            : obs::CausalContext{};
          tracer.event(
              net_.simulator().now(), obs::Category::kGroup, "retransmit",
              rctx,
              {{"key", static_cast<double>(key)},
               {"to", static_cast<double>(slot)},
               {"waited",
                static_cast<double>(config_.retransmit_timeout)}});
          net_.send({.src = self_, .dst = members_[slot], .payload = p.wire,
                     .deadline = p.deadline, .priority = config_.priority,
                     .ctx = rctx});
        });
        arm_retransmit(key);
      });
}

void GroupChannel::mark_failed(const net::Address& member) {
  auto it = std::find(members_.begin(), members_.end(), member);
  if (it == members_.end()) return;
  const auto slot = static_cast<std::size_t>(it - members_.begin());
  if (!alive_[slot]) return;
  const bool was_sequencer = slot == sequencer_slot();
  alive_[slot] = false;
  const std::size_t new_seq_slot = sequencer_slot();

  for (auto pit = pending_.begin(); pit != pending_.end();) {
    Pending& p = pit->second;
    if (p.is_total_req && p.awaiting.contains(slot) && was_sequencer) {
      // Re-route the ordering request to the promoted sequencer.
      p.awaiting.erase(slot);
      if (new_seq_slot < members_.size() && new_seq_slot != self_index_) {
        p.awaiting.insert(new_seq_slot);
        net_.send({.src = self_, .dst = members_[new_seq_slot],
                   .payload = p.wire, .ctx = p.ctx});
        ++pit;
        continue;
      }
    } else {
      p.awaiting.erase(slot);
    }
    if (p.awaiting.empty()) {
      if (p.timer != sim::kInvalidEvent)
        net_.simulator().cancel(p.timer);
      pit = pending_.erase(pit);
    } else {
      ++pit;
    }
  }

  if (config_.ordering == Ordering::kTotal && was_sequencer &&
      !config_.failover_replay) {
    // Legacy failover: an own broadcast the dead sequencer acked (no
    // pending left) but that never came back to us is gone for good —
    // nobody replays it.  Quantify the loss window (expired broadcasts
    // were never going to be delivered, crash or not).
    drop_expired_relays();
    for (auto it = relay_wait_.begin(); it != relay_wait_.end();) {
      if (pending_.count(pending_key(self_index_, it->first)) == 0) {
        ++stats_.failover_lost;
        net_.obs().tracer.event(net_.simulator().now(),
                                obs::Category::kGroup, "failover_lost",
                                {{"sender",
                                  static_cast<double>(self_index_)},
                                 {"seq", static_cast<double>(it->first)}});
        it = relay_wait_.erase(it);
      } else {
        ++it;
      }
    }
  }

  // A member dying mid-recovery will never answer the solicit.
  if (recovering_ && recover_await_.erase(slot) > 0 &&
      recover_await_.empty()) {
    finish_recovery();
    return;
  }

  if (config_.ordering == Ordering::kTotal && was_sequencer &&
      is_sequencer()) {
    take_over_sequencing();
    // Requests that reached us before the promotion may be stashed
    // already: sequence whatever is now eligible (with replay enabled the
    // recovery round sequences them when it finishes instead).
    if (!recovering_) {
      for (std::size_t s = 0; s < members_.size(); ++s)
        sequence_ready_reqs(s);
    }
  }
}

void GroupChannel::on_message(const net::Message& msg) {
  util::Reader r(msg.payload);
  const auto type = r.get<MsgType>();
  if (r.failed()) return;
  switch (type) {
    case MsgType::kData:
      handle_data(msg);
      break;
    case MsgType::kAck:
      handle_ack(msg);
      break;
    case MsgType::kTotalReq:
      handle_total_req(msg);
      break;
    case MsgType::kSolicit:
      handle_solicit(msg);
      break;
    case MsgType::kRecover:
      handle_recover(msg);
      break;
  }
}

void GroupChannel::handle_ack(const net::Message& msg) {
  util::Reader r(msg.payload);
  r.get<MsgType>();
  const auto sender = r.get<std::uint32_t>();
  const auto seq = r.get<std::uint64_t>();
  const auto acker = r.get<std::uint32_t>();
  if (r.failed()) return;
  auto it = pending_.find(pending_key(sender, seq));
  if (it == pending_.end()) return;
  net_.obs().tracer.event(net_.simulator().now(), obs::Category::kGroup,
                          "ack", msg.ctx,
                          {{"seq", static_cast<double>(seq)},
                           {"from", static_cast<double>(acker)}});
  it->second.awaiting.erase(acker);
  if (it->second.awaiting.empty()) {
    if (it->second.timer != sim::kInvalidEvent)
      net_.simulator().cancel(it->second.timer);
    pending_.erase(it);
  }
}

void GroupChannel::handle_total_req(const net::Message& msg) {
  util::Reader r(msg.payload);
  r.get<MsgType>();
  const auto sender = r.get<std::uint32_t>();
  const auto seq = r.get<std::uint64_t>();
  const auto sent_at = r.get<sim::TimePoint>();
  std::string payload = r.get_string();
  if (r.failed() || sender >= members_.size()) return;

  // A request that reaches a non-sequencer (the slot demoted, or the
  // sender's sequencer view is ahead of ours) is dropped *unacked*: an
  // ack from a node that will never sequence the message converts the
  // sender's retransmission — its only recovery path — into silence.
  if (!is_sequencer()) {
    net_.obs().tracer.event(net_.simulator().now(), obs::Category::kGroup,
                            "req_wrong_sequencer", msg.ctx,
                            {{"sender", static_cast<double>(sender)},
                             {"seq", static_cast<double>(seq)}});
    return;
  }

  // Admission control at the sequencer: a new request that would grow the
  // stash past its cap is dropped *before* the ack, so the originator's
  // retransmission redelivers it later — backpressure instead of an
  // unbounded queue at the ordering bottleneck.
  const bool fresh = seq >= next_req_[sender] &&
                     stashed_reqs_[sender].count(seq) == 0;
  if (fresh && config_.sequencer_stash_cap > 0 &&
      stashed_reqs_[sender].size() >= config_.sequencer_stash_cap) {
    ++stats_.stash_shed;
    net_.obs().tracer.event(net_.simulator().now(), obs::Category::kGroup,
                            "stash_shed", msg.ctx,
                            {{"sender", static_cast<double>(sender)},
                             {"seq", static_cast<double>(seq)}});
    return;
  }

  // Ack the request so the originator stops retransmitting.  The ack rides
  // the request's context so it links back to the attempt that arrived.
  util::Writer w;
  w.put(MsgType::kAck).put(sender).put(seq).put(
      static_cast<std::uint32_t>(self_index_));
  net_.send({.src = self_, .dst = msg.src, .payload = w.take_buf(),
             .ctx = msg.ctx});

  if (!fresh) {
    ++stats_.duplicates;  // retransmitted request already sequenced/stashed
    return;
  }
  // Stash, then sequence the sender's requests strictly in seq order so
  // total order preserves each sender's FIFO order even if the network
  // delivered the requests out of order.  The header deadline travels
  // with the stash so expiry is judged at sequencing time.  A recovering
  // sequencer only stashes: fresh requests sequence after the replayed
  // suffix, when the recovery round closes.
  stashed_reqs_[sender][seq] = {sent_at, std::move(payload), msg.deadline,
                                msg.ctx};
  if (!recovering_) sequence_ready_reqs(sender);
}

void GroupChannel::sequence_ready_reqs(std::size_t sender) {
  if (recovering_) return;  // replay first; fresh requests wait in the stash
  auto& stash = stashed_reqs_[sender];
  // Post-failover resync: the first request from a sender may jump over
  // messages lost with the old sequencer (one jump per sender).
  if (resync_ && !stash.empty() && stash.begin()->first > next_req_[sender]) {
    next_req_[sender] = stash.begin()->first;
  }
  obs::Tracer& tracer = net_.obs().tracer;
  for (auto it = stash.find(next_req_[sender]); it != stash.end();
       it = stash.find(next_req_[sender])) {
    const std::uint64_t seq = it->first;
    StashedReq req = std::move(it->second);
    stash.erase(it);
    ++next_req_[sender];
    seen_[sender].insert(seq);
    // Expired on dequeue: the deadline passed while the request sat in
    // the stash, so sequencing it would multicast work every member will
    // only throw away.  The request was already acked and is recorded
    // seen with the cursor advanced past it, so skipping assigns it no
    // slot in the total order and stalls nobody (receivers track
    // total_seq contiguity, not per-sender seq).
    if (req.deadline > 0 && net_.simulator().now() >= req.deadline) {
      ++stats_.expired_drops;
      net_.obs().metrics.counter("rpc.expired_drops").inc();
      tracer.event(net_.simulator().now(), obs::Category::kGroup, "expired",
                   req.ctx.valid() ? req.ctx.child(tracer.mint_id())
                                   : obs::CausalContext{},
                   {{"sender", static_cast<double>(sender)},
                    {"seq", static_cast<double>(seq)}});
      continue;
    }
    const std::uint64_t total_seq = next_total_seq_++;
    // The sequencer's relay continues the originator's trace: the
    // sequencing decision is a child of the arriving request, and the
    // re-multicast + local delivery are children of the decision.
    const obs::CausalContext sctx =
        req.ctx.valid() ? req.ctx.child(tracer.mint_id())
                        : obs::CausalContext{};
    tracer.event(net_.simulator().now(), obs::Category::kGroup, "sequence",
                 sctx,
                 {{"sender", static_cast<double>(sender)},
                  {"seq", static_cast<double>(seq)},
                  {"total", static_cast<double>(total_seq)}});
    const util::Buf wire = encode_data(sender, seq, total_seq, req.sent_at,
                                         logical::VectorClock(), req.payload);
    send_data(pending_key(sender, seq), wire, sctx, req.deadline);
    // The sequencer's own delivery happens at sequencing time, keeping it
    // consistent with the global order it just defined.
    epoch_ = static_cast<std::uint32_t>(self_index_);
    next_expected_total_ = total_seq + 1;
    tail_push(static_cast<std::uint32_t>(sender), seq, epoch_, total_seq,
              req.sent_at, req.payload);
    deliver_now({.sender = sender,
                 .sender_addr = members_[sender],
                 .seq = seq,
                 .total_seq = total_seq,
                 .payload = std::move(req.payload),
                 .sent_at = req.sent_at,
                 .ctx = sctx.valid() ? sctx.child(tracer.mint_id())
                                     : obs::CausalContext{}});
  }
}

void GroupChannel::handle_data(const net::Message& msg) {
  util::Reader r(msg.payload);
  r.get<MsgType>();
  const auto sender = r.get<std::uint32_t>();
  const auto seq = r.get<std::uint64_t>();
  const auto total_seq = r.get<std::uint64_t>();
  const auto epoch = r.get<std::uint32_t>();
  const auto sent_at = r.get<sim::TimePoint>();
  logical::VectorClock vc = logical::VectorClock::decode(r);
  std::string payload = r.get_string();
  if (r.failed() || sender >= members_.size()) return;

  HeldBack hb;
  hb.delivery = {.sender = sender,
                 .sender_addr = members_[sender],
                 .seq = seq,
                 .total_seq = total_seq,
                 .payload = std::move(payload),
                 .sent_at = sent_at,
                 // Even if delivery is deferred in the hold-back queue, the
                 // chain stays anchored to the network arrival.
                 .ctx = msg.ctx.valid()
                            ? msg.ctx.child(net_.obs().tracer.mint_id())
                            : obs::CausalContext{}};
  hb.vclock = std::move(vc);
  hb.epoch = epoch;

  // Hold-back bound: a fresh arrival that cannot be delivered yet while
  // the queue is at capacity is shed *before* being acked or recorded
  // seen — the ack would stop the sender retransmitting and the dedupe
  // would block redelivery, losing the message forever.  Unacked, the
  // sender's retransmission redelivers it once the queue has drained.
  if (config_.max_holdback > 0 && holdback_.size() >= config_.max_holdback &&
      seen_[sender].count(seq) == 0 && !deliverable_now(hb)) {
    ++stats_.held_back_shed;
    net_.obs().tracer.event(net_.simulator().now(), obs::Category::kGroup,
                            "holdback_shed", msg.ctx,
                            {{"sender", static_cast<double>(sender)},
                             {"seq", static_cast<double>(seq)}});
    return;
  }

  // Always ack — the original ack may have been the lost datagram.  The
  // ack goes to whoever (re)transmitted this copy: originator or sequencer.
  util::Writer w;
  w.put(MsgType::kAck).put(sender).put(seq).put(
      static_cast<std::uint32_t>(self_index_));
  net_.send({.src = self_, .dst = msg.src, .payload = w.take_buf(),
             .ctx = msg.ctx});

  if (total_replay()) {
    // Replay mode dedupes on *delivery position*, not receipt: a
    // resequenced copy of a message this member already delivered must
    // still occupy its new slot in the total order (so later messages can
    // flush) without reaching the application twice — it commits as a
    // phantom.  Any copy at a position we committed past is a duplicate.
    if (std::pair(epoch, total_seq) <
        std::pair(epoch_, next_expected_total_)) {
      ++stats_.duplicates;
      return;
    }
    hb.phantom = seen_[sender].count(seq) != 0;
    // One queued copy per message: a newer-epoch copy supersedes a held
    // stale-epoch one; an equal-position copy is a retransmission.
    for (auto it = holdback_.begin(); it != holdback_.end(); ++it) {
      if (it->delivery.sender != hb.delivery.sender ||
          it->delivery.seq != hb.delivery.seq)
        continue;
      if (std::pair(it->epoch, it->delivery.total_seq) >=
          std::pair(hb.epoch, hb.delivery.total_seq)) {
        ++stats_.duplicates;
        return;
      }
      holdback_.erase(it);
      break;
    }
    try_deliver(std::move(hb));
    return;
  }

  if (!seen_[sender].insert(seq)) {
    ++stats_.duplicates;
    return;
  }

  // Total order: a message sequenced in an epoch older than the one we
  // have progressed past can never be delivered consistently — drop it.
  if (config_.ordering == Ordering::kTotal && epoch < epoch_) {
    ++stats_.duplicates;
    return;
  }

  try_deliver(std::move(hb));
}

bool GroupChannel::deliverable_now(const HeldBack& hb) const {
  const std::size_t s = hb.delivery.sender;
  switch (config_.ordering) {
    case Ordering::kUnordered:
      return true;
    case Ordering::kFifo:
      return hb.delivery.seq == next_expected_[s];
    case Ordering::kCausal:
      return vclock_.deliverable_from(hb.vclock, s);
    case Ordering::kTotal:
      return (hb.epoch == epoch_ &&
              hb.delivery.total_seq == next_expected_total_) ||
             (hb.epoch > epoch_ && hb.delivery.total_seq == 1);
  }
  return false;
}

void GroupChannel::commit_order(const HeldBack& hb) {
  switch (config_.ordering) {
    case Ordering::kFifo:
      next_expected_[hb.delivery.sender] = hb.delivery.seq + 1;
      break;
    case Ordering::kCausal:
      vclock_.merge(hb.vclock);
      break;
    case Ordering::kTotal:
      if (total_replay() && hb.epoch != epoch_) {
        // Epoch transition: copies sequenced in superseded epochs can
        // never be delivered consistently any more.
        std::erase_if(holdback_, [&](const HeldBack& h) {
          return h.epoch < hb.epoch;
        });
      }
      epoch_ = hb.epoch;
      next_expected_total_ = hb.delivery.total_seq + 1;
      break;
    case Ordering::kUnordered:
      break;
  }
}

void GroupChannel::try_deliver(HeldBack hb) {
  if (!deliverable_now(hb)) {
    holdback_.push_back(std::move(hb));
    stats_.held_back_max =
        std::max<std::uint64_t>(stats_.held_back_max, holdback_.size());
    return;
  }
  // Commit the ordering state, deliver, then drain anything unblocked.
  commit_order(hb);
  tail_push(static_cast<std::uint32_t>(hb.delivery.sender), hb.delivery.seq,
            hb.epoch, hb.delivery.total_seq, hb.delivery.sent_at,
            hb.delivery.payload);
  if (hb.phantom) {
    ++stats_.phantom_commits;
  } else {
    deliver_now(hb.delivery);
  }
  flush_holdback();
}

void GroupChannel::flush_holdback() {
  bool progress = true;
  while (progress) {
    progress = false;
    for (auto it = holdback_.begin(); it != holdback_.end(); ++it) {
      if (!deliverable_now(*it)) continue;
      HeldBack hb = std::move(*it);
      holdback_.erase(it);
      commit_order(hb);
      tail_push(static_cast<std::uint32_t>(hb.delivery.sender),
                hb.delivery.seq, hb.epoch, hb.delivery.total_seq,
                hb.delivery.sent_at, hb.delivery.payload);
      if (hb.phantom) {
        ++stats_.phantom_commits;
      } else {
        deliver_now(hb.delivery);
      }
      progress = true;
      break;  // iterator invalidated; rescan
    }
  }
}

void GroupChannel::deliver_now(const Delivery& d) {
  if (config_.ordering == Ordering::kTotal) {
    // Our own broadcast came back around the sequencer: the relay is
    // complete and the retained payload can go.
    if (d.sender == self_index_) relay_wait_.erase(d.seq);
    // Replay mode marks messages seen at *delivery* so a resequenced copy
    // is recognizable as a phantom rather than silently deduped.
    if (total_replay()) seen_[d.sender].insert(d.seq);
  }
  ++stats_.delivered;
  net_.obs().series.count(ts_delivered_, net_.simulator().now());
  // Span covering broadcast -> application delivery, i.e. the end-to-end
  // ordering+reliability latency the experiments measure.
  net_.obs().tracer.span(d.sent_at, net_.simulator().now(),
                         obs::Category::kGroup, "deliver", d.ctx,
                         {{"sender", static_cast<double>(d.sender)},
                          {"seq", static_cast<double>(d.seq)}});
  if (deliver_) {
    obs::ProfScope prof(net_.obs().profiler, prof_deliver_);
    deliver_(d);
  }
}

}  // namespace coop::groups
