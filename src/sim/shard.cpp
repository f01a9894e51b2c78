#include "sim/shard.hpp"

#include <algorithm>
#include <chrono>

namespace coop::sim {

// --- ShardSim ---------------------------------------------------------------

EventId ShardSim::schedule_at(TimePoint when, EventFn fn) {
  if (when < now_) when = now_;
  const std::uint64_t seq = next_seq_++;
  queue_.push(CalEntry{when, seq, acquire_slot(std::move(fn))});
  live_.insert(seq);
  if (next_seq_ >= compact_check_) maybe_compact_live();
  return seq;
}

void ShardSim::maybe_compact_live() {
  // Same windowed-liveness compaction as the serial kernel: the minimum
  // queued seq bounds every id the shard will still test.
  compact_check_ = next_seq_ + (std::uint64_t{1} << 20);
  std::uint64_t min_seq = next_seq_;
  queue_.for_each([&min_seq](const CalEntry& e) {
    min_seq = std::min(min_seq, e.seq);
  });
  live_.compact(min_seq);
}

std::uint32_t ShardSim::acquire_slot(EventFn&& fn) {
  if (free_slots_.empty()) {
    slots_.push_back(std::move(fn));
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  slots_[slot] = std::move(fn);
  return slot;
}

void ShardSim::release_slot(std::uint32_t slot) {
  slots_[slot].reset();
  free_slots_.push_back(slot);
}

void ShardSim::dispatch(const CalEntry& top) {
  now_ = top.when;
  ++processed_;
  if (hook_fn_ != nullptr)
    hook_fn_(hook_ctx_, shard_, top.seq, top.when, live_.size());
  // Move the callable out and free the slot before invoking: the callback
  // may schedule new events, reusing this very slot.
  EventFn fn = std::move(slots_[top.slot]);
  release_slot(top.slot);
  if (timer_fn_ != nullptr) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    timer_fn_(timer_ctx_,
              static_cast<std::uint64_t>(
                  std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count()));
  } else {
    fn();
  }
}

std::size_t ShardSim::run_below(TimePoint horizon) {
  std::size_t n = 0;
  CalEntry top;
  while (queue_.peek(top) && top.when < horizon) {
    queue_.pop();
    if (!live_.erase(top.seq)) {  // lazily cancelled
      release_slot(top.slot);
      continue;
    }
    dispatch(top);
    ++n;
  }
  return n;
}

std::size_t ShardSim::run_at(TimePoint t) {
  std::size_t n = 0;
  CalEntry top;
  // <= rather than == flushes cancelled residue below t; live entries
  // below t cannot exist (earlier epochs drained them).
  while (queue_.peek(top) && top.when <= t) {
    queue_.pop();
    if (!live_.erase(top.seq)) {
      release_slot(top.slot);
      continue;
    }
    assert(top.when == t && "live event below the barrier timestamp");
    dispatch(top);
    ++n;
  }
  return n;
}

// --- ShardedEngine ----------------------------------------------------------

ShardedEngine::ShardedEngine(const ShardedConfig& cfg) : cfg_(cfg) {
  if (cfg_.shards == 0) cfg_.shards = 1;
  if (cfg_.threads == 0) cfg_.threads = 1;
  if (cfg_.lookahead < 0) cfg_.lookahead = 0;
  // Per-shard rng streams forked off the master seed, in shard order —
  // deterministic and independent of shard count changes elsewhere.
  Rng master(cfg_.seed);
  shards_.reserve(cfg_.shards);
  for (std::uint32_t s = 0; s < cfg_.shards; ++s) {
    shards_.push_back(std::make_unique<ShardSim>(
        s, master.next() ^ 0xa5a5a5a55a5a5a5aULL));
  }
  phase_counts_.assign(cfg_.shards, 0);
}

ShardedEngine::~ShardedEngine() {
  if (!workers_.empty()) {
    {
      std::lock_guard<std::mutex> lk(pool_mu_);
      pool_stop_ = true;
    }
    pool_cv_.notify_all();
    for (std::thread& t : workers_) t.join();
  }
}

TimePoint ShardedEngine::now() const noexcept {
  TimePoint t = 0;
  for (const auto& s : shards_) t = std::max(t, s->now());
  return t;
}

std::size_t ShardedEngine::pending() const noexcept {
  std::size_t n = 0;
  for (const auto& s : shards_) n += s->pending();
  for (const auto& s : shards_) n += s->outbox_.size();
  return n;
}

std::uint64_t ShardedEngine::events_processed() const noexcept {
  std::uint64_t n = 0;
  for (const auto& s : shards_) n += s->events_processed();
  return n;
}

void ShardedEngine::set_step_hook(ShardSim::HookFn fn, void* ctx) noexcept {
  for (auto& s : shards_) {
    s->hook_fn_ = fn;
    s->hook_ctx_ = ctx;
  }
}

void ShardedEngine::set_step_timer(StepTimerFn fn, void* ctx) noexcept {
  for (auto& s : shards_) {
    s->timer_fn_ = fn;
    s->timer_ctx_ = ctx;
  }
}

void ShardedEngine::send(const ShardMsg& m) {
  assert(m.src_shard < shards_.size() && m.dst_shard < shards_.size());
  ShardSim& src = *shards_[m.src_shard];
  if (m.dst_shard == m.src_shard) {
    // Same shard: an ordinary event, exactly as the serial kernel would
    // schedule a delivery (clamped to the shard's clock).
    ShardedEngine* eng = this;
    const ShardMsg msg = m;
    src.schedule_at(m.at, [eng, msg] {
      if (eng->msg_fn_ != nullptr) eng->msg_fn_(eng->msg_ctx_, msg);
    });
    return;
  }
  const TimePoint floor = saturating_after(src.now(), cfg_.lookahead);
  if (m.at < floor) ++src.lookahead_violations_;
  src.outbox_.push_back(m);
}

void ShardedEngine::flush_outboxes() {
  scratch_.clear();
  for (auto& s : shards_) {
    if (s->outbox_.empty()) continue;
    scratch_.insert(scratch_.end(), s->outbox_.begin(), s->outbox_.end());
    s->outbox_.clear();
  }
  if (scratch_.empty()) return;
  cross_msgs_ += scratch_.size();
  // (arrival, src, seq) is unique per message, so this is a strict total
  // order: insertion sequence — and with it every FIFO tiebreak in the
  // destination queue — is independent of shard/thread geometry.
  std::sort(scratch_.begin(), scratch_.end(),
            [](const ShardMsg& a, const ShardMsg& b) {
              if (a.dst_shard != b.dst_shard) return a.dst_shard < b.dst_shard;
              if (a.at != b.at) return a.at < b.at;
              if (a.src != b.src) return a.src < b.src;
              return a.seq < b.seq;
            });
  ShardedEngine* eng = this;
  for (const ShardMsg& m : scratch_) {
    shards_[m.dst_shard]->schedule_at(m.at, [eng, m] {
      if (eng->msg_fn_ != nullptr) eng->msg_fn_(eng->msg_ctx_, m);
    });
  }
}

void ShardedEngine::run_shard(std::uint32_t s, Phase phase, TimePoint bound) {
  phase_counts_[s] = phase == Phase::kBelow ? shards_[s]->run_below(bound)
                                            : shards_[s]->run_at(bound);
}

std::size_t ShardedEngine::run_phase(Phase phase, TimePoint bound) {
  const auto n = static_cast<std::uint32_t>(shards_.size());
  const std::uint32_t nw = std::min(cfg_.threads, n);
  if (nw <= 1) {
    for (std::uint32_t s = 0; s < n; ++s) run_shard(s, phase, bound);
  } else {
    start_workers();
    {
      std::lock_guard<std::mutex> lk(pool_mu_);
      pool_phase_ = phase;
      pool_bound_ = bound;
      pool_remaining_ = nw - 1;
      ++pool_gen_;
    }
    pool_cv_.notify_all();
    // The coordinator works worker slot 0's share itself.
    for (std::uint32_t s = 0; s < n; s += nw) run_shard(s, phase, bound);
    std::unique_lock<std::mutex> lk(pool_mu_);
    pool_cv_.wait(lk, [this] { return pool_remaining_ == 0; });
  }
  std::size_t total = 0;
  for (std::uint32_t s = 0; s < n; ++s) total += phase_counts_[s];
  return total;
}

void ShardedEngine::start_workers() {
  const auto n = static_cast<std::uint32_t>(shards_.size());
  const std::uint32_t nw = std::min(cfg_.threads, n);
  if (nw <= 1 || !workers_.empty()) return;
  workers_.reserve(nw - 1);
  for (std::uint32_t w = 1; w < nw; ++w)
    workers_.emplace_back([this, w] { worker_loop(w); });
}

void ShardedEngine::worker_loop(std::uint32_t worker) {
  const auto n = static_cast<std::uint32_t>(shards_.size());
  const std::uint32_t nw = std::min(cfg_.threads, n);
  std::uint64_t seen_gen = 0;
  for (;;) {
    Phase phase;
    TimePoint bound;
    {
      std::unique_lock<std::mutex> lk(pool_mu_);
      pool_cv_.wait(lk, [this, seen_gen] {
        return pool_stop_ || pool_gen_ != seen_gen;
      });
      if (pool_stop_) return;
      seen_gen = pool_gen_;
      phase = pool_phase_;
      bound = pool_bound_;
    }
    for (std::uint32_t s = worker; s < n; s += nw)
      run_shard(s, phase, bound);
    {
      std::lock_guard<std::mutex> lk(pool_mu_);
      --pool_remaining_;
    }
    pool_cv_.notify_all();
  }
}

std::size_t ShardedEngine::run_until(TimePoint t) {
  std::size_t total = 0;
  for (;;) {
    flush_outboxes();  // also admits driver sends parked pre-run
    TimePoint t0 = kTimeMax;
    for (auto& s : shards_) t0 = std::min(t0, s->next_time());
    if (t0 > t) break;
    std::size_t n;
    TimePoint horizon;
    if (cfg_.lookahead > 0) {
      // Window [t0, t0 + L), clipped so nothing past t fires — stopping
      // mid-epoch must leave the queues exactly as a straight run would.
      horizon = saturating_after(t0, cfg_.lookahead);
      if (horizon > t) horizon = saturating_after(t, 1);
      n = run_phase(Phase::kBelow, horizon);
    } else {
      horizon = t0;
      n = run_phase(Phase::kAt, t0);
    }
    total += n;
    ++epochs_;
    if (epoch_fn_ != nullptr) epoch_fn_(epoch_ctx_, t0, horizon, n);
  }
  for (auto& s : shards_) s->advance_to(t);
  return total;
}

std::size_t ShardedEngine::run(std::size_t max_events) {
  std::size_t total = 0;
  for (;;) {
    flush_outboxes();
    TimePoint t0 = kTimeMax;
    for (auto& s : shards_) t0 = std::min(t0, s->next_time());
    if (t0 == kTimeMax) break;
    std::size_t n;
    TimePoint horizon;
    if (cfg_.lookahead > 0) {
      horizon = saturating_after(t0, cfg_.lookahead);
      n = run_phase(Phase::kBelow, horizon);
    } else {
      horizon = t0;
      n = run_phase(Phase::kAt, t0);
    }
    total += n;
    ++epochs_;
    if (epoch_fn_ != nullptr) epoch_fn_(epoch_ctx_, t0, horizon, n);
    if (total >= max_events) break;  // epoch-granular runaway guard
  }
  return total;
}

}  // namespace coop::sim
