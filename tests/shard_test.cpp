// Tests for the sharded parallel kernel: calendar-queue ordering, shard
// semantics, and the differential oracle — the sharded engine must produce
// outcomes identical to the serial Simulator across seeds, topologies,
// shard counts and thread counts (DESIGN.md §17).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/calendar_queue.hpp"
#include "sim/rng.hpp"
#include "sim/shard.hpp"
#include "sim/simulator.hpp"

namespace coop::sim {
namespace {

// --- CalendarQueue ----------------------------------------------------------

std::vector<CalEntry> drain(CalendarQueue& q) {
  std::vector<CalEntry> out;
  CalEntry e;
  while (q.peek(e)) {
    q.pop();
    out.push_back(e);
  }
  return out;
}

void expect_sorted(const std::vector<CalEntry>& v) {
  for (std::size_t i = 1; i < v.size(); ++i)
    ASSERT_TRUE(CalendarQueue::before(v[i - 1], v[i]))
        << "out of order at " << i;
}

TEST(CalendarQueue, PopsInStrictWhenSeqOrder) {
  CalendarQueue q(usec(100), 16);
  Rng rng(7);
  std::vector<CalEntry> ref;
  for (std::uint64_t s = 1; s <= 5000; ++s) {
    // Cluster most timestamps near the clock, some far out, some ties.
    const TimePoint when =
        static_cast<TimePoint>(rng.next() % (rng.bernoulli(0.1) ? 10'000'000
                                                                : 50'000));
    q.push({when, s, 0});
    ref.push_back({when, s, 0});
  }
  std::sort(ref.begin(), ref.end(), CalendarQueue::before);
  const auto got = drain(q);
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(got[i].when, ref[i].when);
    EXPECT_EQ(got[i].seq, ref[i].seq);
  }
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, InterleavedPushPopKeepsOrder) {
  CalendarQueue q(usec(64), 8);
  Rng rng(11);
  std::uint64_t seq = 1;
  TimePoint clock = 0;
  TimePoint last_when = 0;
  std::uint64_t last_seq = 0;
  std::size_t popped = 0;
  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < 20; ++i) {
      q.push({clock + static_cast<TimePoint>(rng.next() % 5000), seq++, 0});
    }
    for (int i = 0; i < 15 && !q.empty(); ++i) {
      CalEntry e;
      ASSERT_TRUE(q.peek(e));
      q.pop();
      ASSERT_GE(e.when, clock);  // never pops into the past
      if (popped > 0) {
        ASSERT_TRUE(e.when > last_when ||
                    (e.when == last_when && e.seq > last_seq));
      }
      last_when = e.when;
      last_seq = e.seq;
      clock = e.when;
      ++popped;
    }
  }
  expect_sorted(drain(q));
}

TEST(CalendarQueue, GrowsUnderOccupancyAndKeepsOrder) {
  CalendarQueue q(usec(10), 8);
  const std::size_t initial = q.bucket_count();
  std::vector<CalEntry> ref;
  for (std::uint64_t s = 1; s <= 2000; ++s) {
    const TimePoint when = static_cast<TimePoint>((s * 37) % 501);
    q.push({when, s, 0});
    ref.push_back({when, s, 0});
  }
  EXPECT_GT(q.bucket_count(), initial);
  std::sort(ref.begin(), ref.end(), CalendarQueue::before);
  const auto got = drain(q);
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i)
    EXPECT_EQ(got[i].seq, ref[i].seq);
}

TEST(CalendarQueue, FarFutureClustersRebaseThroughOverflow) {
  CalendarQueue q(usec(100), 8);
  // Three clusters separated by far more than one ring revolution.
  std::vector<CalEntry> ref;
  std::uint64_t s = 1;
  for (TimePoint base : {TimePoint{0}, sec(1000), sec(2'000'000)}) {
    for (int i = 0; i < 50; ++i) {
      const auto when = base + usec(i * 37);
      q.push({when, s, 0});
      ref.push_back({when, s, 0});
      ++s;
    }
  }
  std::sort(ref.begin(), ref.end(), CalendarQueue::before);
  const auto got = drain(q);
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i)
    EXPECT_EQ(got[i].seq, ref[i].seq);
}

TEST(CalendarQueue, EndOfTimeSentinelsNeverStrand) {
  CalendarQueue q(usec(100), 8);
  q.push({kTimeMax, 1, 0});
  q.push({kTimeMax, 2, 0});
  q.push({usec(5), 3, 0});
  CalEntry e;
  ASSERT_TRUE(q.peek(e));
  EXPECT_EQ(e.seq, 3u);
  q.pop();
  ASSERT_TRUE(q.peek(e));
  EXPECT_EQ(e.when, kTimeMax);
  EXPECT_EQ(e.seq, 1u);  // FIFO among the sentinels
  q.pop();
  ASSERT_TRUE(q.peek(e));
  EXPECT_EQ(e.seq, 2u);
  q.pop();
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, InsertBelowHuntedCursorStaysOrdered) {
  CalendarQueue q(usec(100), 16);
  // Push one far entry so the cursor hunts ahead when we drain to it,
  // then insert below the hunted position (a barrier insert).
  q.push({usec(50), 1, 0});
  q.push({usec(1200), 2, 0});
  CalEntry e;
  ASSERT_TRUE(q.peek(e));
  EXPECT_EQ(e.seq, 1u);
  q.pop();
  ASSERT_TRUE(q.peek(e));  // cursor now parked at the 1200us bucket
  EXPECT_EQ(e.seq, 2u);
  q.push({usec(600), 3, 0});  // below the cursor's bucket start
  ASSERT_TRUE(q.peek(e));
  EXPECT_EQ(e.seq, 3u) << "rewind insert must pop before the later entry";
  q.pop();
  ASSERT_TRUE(q.peek(e));
  EXPECT_EQ(e.seq, 2u);
  q.pop();
  EXPECT_TRUE(q.empty());
}

// --- ShardSim ---------------------------------------------------------------

TEST(ShardSim, MirrorsSerialSchedulingSemantics) {
  ShardSim s(0, 42, usec(100), 8);
  std::vector<int> order;
  s.schedule_at(usec(30), [&] { order.push_back(3); });
  s.schedule_at(usec(10), [&] { order.push_back(1); });
  const EventId dead = s.schedule_at(usec(20), [&] { order.push_back(2); });
  EXPECT_TRUE(s.cancel(dead));
  EXPECT_FALSE(s.cancel(dead));  // second cancel is a clean no-op
  EXPECT_EQ(s.pending(), 2u);
  EXPECT_EQ(s.run_below(usec(30)), 1u);  // horizon is exclusive
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(s.run_at(usec(30)), 1u);
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  EXPECT_EQ(s.now(), usec(30));
  EXPECT_EQ(s.events_processed(), 2u);
}

TEST(ShardSim, PastScheduleClampsToNow) {
  ShardSim s(0, 42, usec(100), 8);
  s.schedule_at(usec(50), [&s] {
    s.schedule_at(usec(10), [] {});  // in the past: clamps to now=50us
  });
  EXPECT_EQ(s.run_below(usec(51)), 2u);
  EXPECT_EQ(s.now(), usec(50));
}

// --- Differential oracle ----------------------------------------------------
//
// One scenario, two kernels.  P participants in rooms of 4; each
// participant ticks on a room-dependent cadence, mutates commutative
// per-participant accumulators, and sends one datagram to a same-room
// neighbour (intra-shard) and one to its counterpart in the opposite room
// (inter-shard under any block assignment of rooms to shards).  All
// stochastic choices draw from per-participant rngs owned by the scenario
// — never from a kernel — so the event *content* is kernel-independent,
// and all state is insensitive to same-timestamp cross-participant
// interleaving, the only ordering freedom either kernel has.
//
// A delivery whose payload hits a rare residue cancels the receiver's
// pending tick (if still strictly in the future) — exercising cancel of
// an event across the epoch machinery.  Tick timestamps are kept even and
// delivery arrivals odd: a tick-vs-delivery timestamp collision would make
// the cancel decision depend on same-timestamp ordering, the one freedom
// the two kernels exercise differently.

struct Topology {
  Duration min_latency;   // lookahead for the sharded engine
  Duration local_jitter;  // intra-room extra delay range
  Duration remote_jitter; // cross-room extra delay range
};

constexpr Topology kWanTopology{msec(32), usec(100), msec(8)};
constexpr Topology kZeroLookahead{0, usec(100), usec(300)};

struct Participant {
  Rng rng{0};
  std::uint64_t acc = 0;
  std::uint64_t sum = 0;
  std::uint64_t xr = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t arrival_sum = 0;
  std::uint64_t msg_seq = 0;
  TimePoint next_tick = 0;     // scenario-tracked pending tick time
  std::uint64_t tick_handle = 0;
};

constexpr std::size_t kRoom = 4;

/// The kernel-independent scenario.  Adapter supplies: shards(),
/// shard_of(p), schedule(p, when, fn)->handle, cancel(p, handle),
/// send(src, dst, at, payload).
template <typename Adapter>
class DiffScenario {
 public:
  DiffScenario(std::size_t participants, std::uint64_t seed, Topology topo,
               Adapter& a)
      : topo_(topo), adapter_(a), ps_(participants) {
    for (std::size_t p = 0; p < ps_.size(); ++p)
      ps_[p].rng = Rng(seed ^ (0x9e3779b97f4a7c15ULL * (p + 1)));
  }

  void start() {
    for (std::uint32_t p = 0; p < ps_.size(); ++p) {
      const TimePoint first = cadence(p) + usec((p % 7) * 26);  // even
      arm_tick(p, first);
    }
  }

  void on_delivery(std::uint32_t dst, TimePoint at, std::uint64_t payload) {
    Participant& q = ps_[dst];
    q.sum += payload;
    q.xr ^= payload * 0x2545f4914f6cdd1dULL;
    ++q.deliveries;
    q.arrival_sum += static_cast<std::uint64_t>(at);
    if (payload % 31 == 0 && q.next_tick > at) {
      // Strictly-future guard keeps the decision independent of
      // same-timestamp ordering between this delivery and the tick.
      adapter_.cancel(dst, q.tick_handle);
      q.next_tick = 0;  // chain dies; no further draws from q.rng
    }
  }

  [[nodiscard]] std::uint64_t outcome_hash() const {
    std::uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](std::uint64_t v) {
      for (int i = 0; i < 8; ++i) {
        h ^= (v >> (i * 8)) & 0xff;
        h *= 1099511628211ULL;
      }
    };
    for (const Participant& p : ps_) {
      mix(p.acc);
      mix(p.sum);
      mix(p.xr);
      mix(p.deliveries);
      mix(p.arrival_sum);
    }
    return h;
  }

  [[nodiscard]] std::uint64_t total_deliveries() const {
    std::uint64_t n = 0;
    for (const Participant& p : ps_) n += p.deliveries;
    return n;
  }

 private:
  [[nodiscard]] Duration cadence(std::uint32_t p) const {
    return (p / kRoom) % 2 == 0 ? usec(5000) : usec(9000);
  }

  void arm_tick(std::uint32_t p, TimePoint when) {
    ps_[p].next_tick = when;
    ps_[p].tick_handle =
        adapter_.schedule(p, when, [this, p] { tick(p); });
  }

  void tick(std::uint32_t p) {
    Participant& me = ps_[p];
    const TimePoint t = me.next_tick;
    me.acc = me.acc * 6364136223846793005ULL + me.rng.next();

    const std::size_t nrooms = ps_.size() / kRoom;
    const std::size_t room = p / kRoom;
    const std::uint32_t partner = static_cast<std::uint32_t>(
        ((room + nrooms / 2) % nrooms) * kRoom + p % kRoom);
    const std::uint32_t neighbour =
        static_cast<std::uint32_t>(room * kRoom + (p + 1) % kRoom);

    // Fixed draw order: remote delay, remote payload, local delay,
    // local payload — identical on both kernels by construction.  The
    // | 1 makes every delay odd (cadences and offsets are even), so
    // arrivals never collide with tick timestamps.
    const auto rj = static_cast<std::uint64_t>(topo_.remote_jitter);
    const auto lj = static_cast<std::uint64_t>(topo_.local_jitter);
    const Duration rd = topo_.min_latency +
                        static_cast<Duration>(me.rng.next() % (rj + 1) | 1);
    const std::uint64_t rpay = me.rng.next();
    const Duration ld = static_cast<Duration>(me.rng.next() % (lj + 1) | 1);
    const std::uint64_t lpay = me.rng.next();
    adapter_.send(p, partner, t + rd, rpay, me.msg_seq++);
    adapter_.send(p, neighbour, t + ld, lpay, me.msg_seq++);

    arm_tick(p, t + cadence(p));
  }

  Topology topo_;
  Adapter& adapter_;
  std::vector<Participant> ps_;
};

/// Serial oracle adapter: everything on one Simulator.
class SerialAdapter {
 public:
  explicit SerialAdapter(Simulator& sim) : sim_(sim) {}

  template <typename F>
  std::uint64_t schedule(std::uint32_t, TimePoint when, F&& fn) {
    return sim_.schedule_at(when, std::forward<F>(fn));
  }
  void cancel(std::uint32_t, std::uint64_t handle) { sim_.cancel(handle); }
  void send(std::uint32_t, std::uint32_t dst, TimePoint at,
            std::uint64_t payload, std::uint64_t) {
    auto* self = this;
    sim_.schedule_at(at, [self, dst, at, payload] {
      self->deliver_(self->ctx_, dst, at, payload);
    });
  }

  void (*deliver_)(void*, std::uint32_t, TimePoint, std::uint64_t) = nullptr;
  void* ctx_ = nullptr;

 private:
  Simulator& sim_;
};

/// Sharded adapter: rooms block-assigned to shards (never straddling).
class ShardedAdapter {
 public:
  ShardedAdapter(ShardedEngine& eng, std::size_t participants)
      : eng_(eng), nrooms_(participants / kRoom) {}

  [[nodiscard]] std::uint16_t shard_of(std::uint32_t p) const {
    const std::size_t room = p / kRoom;
    return static_cast<std::uint16_t>(room * eng_.shards() / nrooms_);
  }

  template <typename F>
  std::uint64_t schedule(std::uint32_t p, TimePoint when, F&& fn) {
    return eng_.schedule_at(shard_of(p), when, std::forward<F>(fn));
  }
  void cancel(std::uint32_t p, std::uint64_t handle) {
    eng_.cancel(shard_of(p), handle);
  }
  void send(std::uint32_t src, std::uint32_t dst, TimePoint at,
            std::uint64_t payload, std::uint64_t seq) {
    eng_.send(ShardMsg{at, src, dst, shard_of(src), shard_of(dst),
                       static_cast<std::uint32_t>(seq), payload});
  }

 private:
  ShardedEngine& eng_;
  std::size_t nrooms_;
};

struct RunResult {
  std::uint64_t hash = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t events = 0;
};

RunResult run_serial(std::size_t participants, std::uint64_t seed,
                     Topology topo, TimePoint horizon) {
  Simulator sim;
  SerialAdapter adapter(sim);
  DiffScenario<SerialAdapter> scen(participants, seed, topo, adapter);
  adapter.ctx_ = &scen;
  adapter.deliver_ = [](void* ctx, std::uint32_t dst, TimePoint at,
                        std::uint64_t payload) {
    static_cast<DiffScenario<SerialAdapter>*>(ctx)->on_delivery(dst, at,
                                                                payload);
  };
  scen.start();
  sim.run_until(horizon);
  return {scen.outcome_hash(), scen.total_deliveries(),
          sim.events_processed()};
}

RunResult run_sharded(std::size_t participants, std::uint64_t seed,
                      Topology topo, TimePoint horizon, std::uint32_t shards,
                      std::uint32_t threads,
                      const std::vector<TimePoint>& stops = {}) {
  ShardedConfig cfg;
  cfg.shards = shards;
  cfg.threads = threads;
  cfg.lookahead = topo.min_latency;
  cfg.seed = seed;
  ShardedEngine eng(cfg);
  ShardedAdapter adapter(eng, participants);
  DiffScenario<ShardedAdapter> scen(participants, seed, topo, adapter);
  struct Ctx {
    DiffScenario<ShardedAdapter>* scen;
  } ctx{&scen};
  eng.set_msg_handler(
      [](void* c, const ShardMsg& m) {
        static_cast<Ctx*>(c)->scen->on_delivery(m.dst, m.at, m.payload);
      },
      &ctx);
  scen.start();
  for (const TimePoint t : stops) eng.run_until(t);  // mid-epoch stops
  eng.run_until(horizon);
  EXPECT_EQ(eng.lookahead_violations(), 0u);
  return {scen.outcome_hash(), scen.total_deliveries(),
          eng.events_processed()};
}

TEST(DifferentialOracle, ShardedMatchesSerialAcrossSeedTopologyMatrix) {
  constexpr std::size_t kParticipants = 64;  // 16 rooms
  const TimePoint horizon = msec(400);
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    for (const Topology& topo : {kWanTopology, kZeroLookahead}) {
      const RunResult serial = run_serial(kParticipants, seed, topo, horizon);
      ASSERT_GT(serial.deliveries, 0u);
      for (const std::uint32_t shards : {1u, 2u, 4u, 8u}) {
        const RunResult sharded =
            run_sharded(kParticipants, seed, topo, horizon, shards, 1);
        EXPECT_EQ(sharded.hash, serial.hash)
            << "seed=" << seed << " shards=" << shards
            << " lookahead=" << topo.min_latency;
        EXPECT_EQ(sharded.deliveries, serial.deliveries);
        EXPECT_EQ(sharded.events, serial.events)
            << "every tick and delivery is exactly one kernel event";
      }
    }
  }
}

TEST(DifferentialOracle, ThreadCountNeverChangesTheOutcome) {
  constexpr std::size_t kParticipants = 64;
  const TimePoint horizon = msec(300);
  for (const Topology& topo : {kWanTopology, kZeroLookahead}) {
    const RunResult one = run_sharded(kParticipants, 9, topo, horizon, 4, 1);
    const RunResult two = run_sharded(kParticipants, 9, topo, horizon, 4, 2);
    const RunResult four = run_sharded(kParticipants, 9, topo, horizon, 4, 4);
    EXPECT_EQ(one.hash, two.hash);
    EXPECT_EQ(one.hash, four.hash);
    EXPECT_EQ(one.events, two.events);
    EXPECT_EQ(one.events, four.events);
  }
}

TEST(DifferentialOracle, MidEpochStopResumesBitIdentically) {
  constexpr std::size_t kParticipants = 32;
  const TimePoint horizon = msec(300);
  // Stop points deliberately misaligned with both cadences and the
  // lookahead window so run_until clips epochs mid-flight.
  const std::vector<TimePoint> stops{usec(7'321), usec(41'999), msec(123)};
  for (const Topology& topo : {kWanTopology, kZeroLookahead}) {
    const RunResult straight =
        run_sharded(kParticipants, 4, topo, horizon, 4, 1);
    const RunResult stopped =
        run_sharded(kParticipants, 4, topo, horizon, 4, 1, stops);
    EXPECT_EQ(straight.hash, stopped.hash);
    EXPECT_EQ(straight.events, stopped.events);
    const RunResult serial = run_serial(kParticipants, 4, topo, horizon);
    EXPECT_EQ(stopped.hash, serial.hash);
  }
}

TEST(ShardedEngine, SameShardSendIsAnImmediateEvent) {
  ShardedConfig cfg;
  cfg.shards = 2;
  ShardedEngine eng(cfg);
  std::uint64_t got = 0;
  eng.set_msg_handler(
      [](void* ctx, const ShardMsg& m) {
        *static_cast<std::uint64_t*>(ctx) += m.payload;
      },
      &got);
  eng.send(ShardMsg{usec(10), 0, 1, 0, 0, 0, 7});
  EXPECT_EQ(eng.cross_shard_messages(), 0u);
  eng.run_until(usec(10));
  EXPECT_EQ(got, 7u);
  EXPECT_EQ(eng.now(), usec(10));
}

TEST(ShardedEngine, LookaheadViolationsAreCountedNotFatal) {
  ShardedConfig cfg;
  cfg.shards = 2;
  cfg.lookahead = msec(10);
  ShardedEngine eng(cfg);
  std::uint64_t got = 0;
  eng.set_msg_handler(
      [](void* ctx, const ShardMsg& m) {
        *static_cast<std::uint64_t*>(ctx) += m.payload;
      },
      &got);
  // Arrival violates at >= now + lookahead (now=0, at=1ms < 10ms).
  eng.send(ShardMsg{msec(1), 0, 4, 0, 1, 0, 5});
  eng.run_until(msec(20));
  EXPECT_EQ(eng.lookahead_violations(), 1u);
  EXPECT_EQ(got, 5u);  // still delivered
}

TEST(ShardedEngine, LookaheadViolationsFromWorkerThreadsAreAllCounted) {
  // Every shard sends late cross-shard messages in the same epoch, on
  // its own worker thread: each shard counts its own, so no increment is
  // lost (and nothing is shared between the workers to race on).
  ShardedConfig cfg;
  cfg.shards = 4;
  cfg.threads = 4;
  cfg.lookahead = msec(10);
  ShardedEngine eng(cfg);
  eng.set_msg_handler([](void*, const ShardMsg&) {}, nullptr);
  constexpr int kPerShard = 500;
  for (std::uint16_t s = 0; s < 4; ++s) {
    for (int i = 0; i < kPerShard; ++i) {
      eng.shard(s).schedule_at(usec(i), [&eng, s] {
        const auto dst = static_cast<std::uint16_t>((s + 1) % 4);
        eng.send(ShardMsg{eng.shard(s).now() + usec(1), s, dst, s, dst, 0, 0});
      });
    }
  }
  eng.run_until(msec(20));
  EXPECT_EQ(eng.lookahead_violations(), 4u * kPerShard);
}

TEST(ShardedEngine, RunDrainsToQuiescence) {
  ShardedConfig cfg;
  cfg.shards = 4;
  cfg.lookahead = msec(5);
  ShardedEngine eng(cfg);
  std::uint64_t deliveries = 0;
  eng.set_msg_handler(
      [](void* ctx, const ShardMsg&) {
        ++*static_cast<std::uint64_t*>(ctx);
      },
      &deliveries);
  // Each shard ticks once and sends one cross-shard message forward.
  for (std::uint32_t s = 0; s < 4; ++s) {
    eng.schedule_at(s, usec(100), [&eng, s] {
      eng.send(ShardMsg{msec(6), s, s + 1, static_cast<std::uint16_t>(s),
                        static_cast<std::uint16_t>((s + 1) % 4), 0, 1});
    });
  }
  const std::size_t n = eng.run();
  EXPECT_EQ(n, 8u);  // 4 ticks + 4 deliveries
  EXPECT_EQ(deliveries, 4u);
  EXPECT_EQ(eng.pending(), 0u);
  EXPECT_GT(eng.epochs(), 0u);
}

}  // namespace
}  // namespace coop::sim
