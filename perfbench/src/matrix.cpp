// matrix — the space-time-matrix shape at 100,000 participants on the
// sharded kernel: 8 shards, 1 thread, lookahead derived from a Network
// whose links are the inter-site WAN (every cross-shard datagram crosses
// one).  Participants sit in rooms of 16 that never straddle a shard;
// synchronous rooms tick every 20 ms, asynchronous rooms every 100 ms.
// Each tick sends one co-located datagram to a room neighbour (LAN delay,
// same shard) and one remote datagram to the counterpart in the opposite
// room (WAN delay, usually another shard).  Delays are drawn from the
// LinkModel presets; the sharded kernel carries no loss.  Open loop.
//
// Op: one tick's LAN and WAN datagrams delivered; latency = the later
// arrival - the tick.  Checks: no lookahead violation, every tick
// completed, and the outcome hash of the same scenario at 2,048
// participants equals a run on the serial Simulator.
//
// Per-participant state is commutative under same-timestamp interleaving
// (the only ordering freedom the two kernels have), so both kernels must
// agree exactly.
#include <algorithm>

#include "core/coop.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

using namespace coop;

constexpr std::uint32_t kParticipants = 100'000;
constexpr std::uint32_t kRoom = 16;
constexpr std::uint32_t kShards = 8;
constexpr Duration kSyncCadence = sim::msec(20);
constexpr Duration kAsyncCadence = sim::msec(100);
constexpr Duration kWarmUp = sim::msec(200);
// Virtual seconds per requested host second (see conference.cpp).
constexpr double kVirtualPerHostSecond = 0.2;
constexpr std::uint32_t kOracleParticipants = 2048;
constexpr Duration kOracleHorizon = sim::sec(1);

/// The kernel-independent scenario.  Adapter provides
/// schedule(p, when, fn) and send(src, dst, at, payload, seq).
template <typename Adapter>
class World {
 public:
  World(std::uint32_t n, std::uint64_t seed, Adapter& adapter, OpLog* ops)
      : adapter_(adapter),
        ops_(ops),
        ps_(n),
        lan_(net::LinkModel::lan()),
        wan_(net::LinkModel::wan()) {
    for (std::size_t p = 0; p < ps_.size(); ++p)
      ps_[p].rng = sim::Rng(seed ^ (0x9e3779b97f4a7c15ULL * (p + 1)));
  }

  void start() {
    for (std::uint32_t p = 0; p < ps_.size(); ++p)
      arm(p, sim::msec(1) + sim::usec((p % 97) * 11));
  }
  void stop() noexcept { running_ = false; }

  void deliver(std::uint32_t dst, std::uint32_t src, TimePoint at,
               std::uint64_t payload) {
    Participant& q = ps_[dst];
    q.sum += payload;
    q.xr ^= payload * 0x2545f4914f6cdd1dULL;
    ++q.deliveries;
    q.arrival_sum += static_cast<std::uint64_t>(at);
    Slot& s = ps_[src].ring[payload & 3];
    if (s.remaining == 0) {
      ++anomalies_;
      return;
    }
    s.last = std::max(s.last, at);
    if (--s.remaining == 0 && ops_ != nullptr)
      ops_->complete(s.counted, s.last - s.at);
  }

  [[nodiscard]] std::uint64_t hash() const {
    std::uint64_t h = kFnvBasis;
    for (const Participant& p : ps_) {
      fnv_mix(h, p.acc);
      fnv_mix(h, p.sum);
      fnv_mix(h, p.xr);
      fnv_mix(h, p.deliveries);
      fnv_mix(h, p.arrival_sum);
    }
    return h;
  }
  [[nodiscard]] std::uint64_t deliveries() const {
    std::uint64_t n = 0;
    for (const Participant& p : ps_) n += p.deliveries;
    return n;
  }
  /// Ticks still waiting for a datagram, plus detected inconsistencies.
  [[nodiscard]] std::uint64_t open_ops() const {
    std::uint64_t n = 0;
    for (const Participant& p : ps_)
      for (const Slot& s : p.ring) n += s.remaining != 0 ? 1 : 0;
    return n;
  }
  [[nodiscard]] std::uint64_t anomalies() const noexcept { return anomalies_; }

 private:
  struct Slot {  // one tick in flight
    TimePoint at = 0;
    TimePoint last = 0;
    std::uint8_t remaining = 0;
    bool counted = false;
  };
  struct Participant {
    sim::Rng rng{0};
    std::uint64_t acc = 0;
    std::uint64_t sum = 0;
    std::uint64_t xr = 0;
    std::uint64_t deliveries = 0;
    std::uint64_t arrival_sum = 0;
    std::uint32_t msg_seq = 0;
    std::uint32_t ticks = 0;
    Slot ring[4];  // a tick completes within 48 ms; ticks are >= 20 ms apart
  };

  [[nodiscard]] Duration cadence(std::uint32_t p) const {
    return (p / kRoom) % 2 == 0 ? kSyncCadence : kAsyncCadence;
  }

  void arm(std::uint32_t p, TimePoint when) {
    World* w = this;
    adapter_.schedule(p, when, [w, p, when] { w->tick(p, when); });
  }

  void tick(std::uint32_t p, TimePoint t) {
    Participant& me = ps_[p];
    me.acc = me.acc * 6364136223846793005ULL + me.rng.next();
    const auto nrooms = static_cast<std::uint32_t>(ps_.size()) / kRoom;
    const std::uint32_t room = p / kRoom;
    const std::uint32_t partner =
        ((room + nrooms / 2) % nrooms) * kRoom + p % kRoom;
    const std::uint32_t neighbour = room * kRoom + (p + 1) % kRoom;

    const std::uint32_t slot = me.ticks++ & 3;
    Slot& s = me.ring[slot];
    if (s.remaining != 0) ++anomalies_;
    s = {t, t, 2, ops_ != nullptr && ops_->issue()};
    const Duration rd = wan_.propagation(me.rng);
    const Duration ld = lan_.propagation(me.rng);
    const std::uint64_t rpay = (me.rng.next() << 2) | slot;
    const std::uint64_t lpay = (me.rng.next() << 2) | slot;
    adapter_.send(p, partner, t + rd, rpay, me.msg_seq++);
    adapter_.send(p, neighbour, t + ld, lpay, me.msg_seq++);
    if (running_) arm(p, t + cadence(p));
  }

  Adapter& adapter_;
  OpLog* ops_;
  std::vector<Participant> ps_;
  net::LinkModel lan_;
  net::LinkModel wan_;
  bool running_ = true;
  std::uint64_t anomalies_ = 0;
};

class ShardedAdapter {
 public:
  ShardedAdapter(sim::ShardedEngine& eng, std::uint32_t participants)
      : eng_(eng), nrooms_(participants / kRoom) {}

  [[nodiscard]] std::uint16_t shard_of(std::uint32_t p) const {
    return static_cast<std::uint16_t>(
        static_cast<std::uint64_t>(p / kRoom) * eng_.shards() / nrooms_);
  }
  template <typename F>
  void schedule(std::uint32_t p, TimePoint when, F&& fn) {
    eng_.schedule_at(shard_of(p), when, std::forward<F>(fn));
  }
  void send(std::uint32_t src, std::uint32_t dst, TimePoint at,
            std::uint64_t payload, std::uint32_t seq) {
    eng_.send(sim::ShardMsg{at, src, dst, shard_of(src), shard_of(dst), seq,
                            payload});
  }

 private:
  sim::ShardedEngine& eng_;
  std::uint32_t nrooms_;
};

class SerialAdapter {
 public:
  using Target = World<SerialAdapter>;
  explicit SerialAdapter(sim::Simulator& sim) : sim_(sim) {}

  template <typename F>
  void schedule(std::uint32_t, TimePoint when, F&& fn) {
    sim_.schedule_at(when, std::forward<F>(fn));
  }
  void send(std::uint32_t src, std::uint32_t dst, TimePoint at,
            std::uint64_t payload, std::uint32_t) {
    Target* w = world;
    sim_.schedule_at(at, [w, src, dst, at, payload] {
      w->deliver(dst, src, at, payload);
    });
  }
  Target* world = nullptr;

 private:
  sim::Simulator& sim_;
};

using ShardedWorld = World<ShardedAdapter>;

void on_shard_msg(void* ctx, const sim::ShardMsg& m) {
  static_cast<ShardedWorld*>(ctx)->deliver(m.dst, m.src, m.at, m.payload);
}

sim::ShardedConfig engine_config(std::uint64_t seed, Duration lookahead) {
  sim::ShardedConfig cfg;
  cfg.shards = kShards;
  cfg.threads = 1;
  cfg.lookahead = lookahead;
  cfg.seed = seed;
  return cfg;
}

struct OracleResult {
  std::uint64_t hash = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t events = 0;
};

class Matrix final : public Session {
 public:
  Matrix(std::uint64_t seed, bool traced)
      : Session(traced),
        seed_(seed),
        p_(std::make_unique<Platform>(seed, obs_.get())) {
    // The inter-site WAN: its minimum latency is the engine's lookahead.
    p_->network().set_default_link(net::LinkModel::wan());
    lookahead_ = p_->network().lookahead();
    eng_ = &p_->sharded_engine(engine_config(seed, lookahead_));
    adapter_ = std::make_unique<ShardedAdapter>(*eng_, kParticipants);
    world_ = std::make_unique<ShardedWorld>(kParticipants, seed, *adapter_,
                                            &ops_);
    eng_->set_msg_handler(&on_shard_msg, world_.get());
    world_->start();
  }

  void warm_up() override { eng_->run_until(eng_->now() + kWarmUp); }
  [[nodiscard]] TimePoint now() const override { return eng_->now(); }
  void run_until(TimePoint t) override { eng_->run_until(t); }
  [[nodiscard]] Duration window(int seconds) const override {
    return timed_window(seconds, kVirtualPerHostSecond, kAsyncCadence);
  }
  [[nodiscard]] std::size_t pending() const override {
    return eng_->pending();
  }
  [[nodiscard]] bool sharded() const override { return true; }

  void begin_window() override {
    base_ = totals();
    ops_.open();
  }
  void end_window() override {
    ops_.close();
    world_->stop();
  }
  void drain() override { eng_->run(); }

  void check(CheckReport& out) override {
    out.outcome_hash = world_->hash();
    fnv_mix(out.outcome_hash, world_->deliveries());
    out.add("lookahead_violations_zero", eng_->lookahead_violations() == 0,
            std::to_string(eng_->lookahead_violations()) + " violations");
    const std::uint64_t open = world_->open_ops();
    out.add("ticks_delivered", open == 0 && world_->anomalies() == 0,
            std::to_string(open) + " open, " +
                std::to_string(world_->anomalies()) + " anomalies");
    const OracleResult serial = run_serial_oracle();
    const OracleResult sharded = run_sharded_oracle();
    const bool same = serial.hash == sharded.hash &&
                      serial.deliveries == sharded.deliveries &&
                      serial.events == sharded.events;
    if (!same) ops_.discount(ops_.completed_ok());
    out.add("sharded_eq_serial_at_small_n", same,
            hex64(sharded.hash) + " vs serial " + hex64(serial.hash));
  }

  void layer_counts(Metrics& out) override {
    const Totals now = totals();
    const auto d = [](std::uint64_t a, std::uint64_t b) {
      return static_cast<double>(a - b);
    };
    out.push_back({"shard.events", d(now.events, base_.events), "count"});
    out.push_back({"shard.epochs", d(now.epochs, base_.epochs), "count"});
    out.push_back(
        {"shard.cross_msgs", d(now.cross, base_.cross), "count"});
    out.push_back({"shard.lookahead_violations",
                   d(now.violations, base_.violations), "count"});
  }

 private:
  struct Totals {
    std::uint64_t events = 0;
    std::uint64_t epochs = 0;
    std::uint64_t cross = 0;
    std::uint64_t violations = 0;
  };
  Totals totals() const {
    return {eng_->events_processed(), eng_->epochs(),
            eng_->cross_shard_messages(), eng_->lookahead_violations()};
  }

  [[nodiscard]] OracleResult run_serial_oracle() const {
    sim::Simulator sim(seed_);
    SerialAdapter adapter(sim);
    World<SerialAdapter> world(kOracleParticipants, seed_, adapter, nullptr);
    adapter.world = &world;
    world.start();
    sim.run_until(kOracleHorizon);
    return {world.hash(), world.deliveries(), sim.events_processed()};
  }

  [[nodiscard]] OracleResult run_sharded_oracle() const {
    sim::ShardedEngine eng(engine_config(seed_, lookahead_));
    ShardedAdapter adapter(eng, kOracleParticipants);
    ShardedWorld world(kOracleParticipants, seed_, adapter, nullptr);
    eng.set_msg_handler(&on_shard_msg, &world);
    world.start();
    eng.run_until(kOracleHorizon);
    return {world.hash(), world.deliveries(), eng.events_processed()};
  }

  std::uint64_t seed_;
  std::unique_ptr<Platform> p_;
  Duration lookahead_ = 0;
  sim::ShardedEngine* eng_ = nullptr;  // owned by p_
  std::unique_ptr<ShardedAdapter> adapter_;
  std::unique_ptr<ShardedWorld> world_;
  Totals base_;
};

}  // namespace

std::unique_ptr<Session> make_matrix(std::uint64_t seed, bool traced) {
  return std::make_unique<Matrix>(seed, traced);
}

}  // namespace perfbench
