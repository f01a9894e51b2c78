// E13 — a million participants across the space-time matrix: the sharded
// parallel kernel versus the serial differential oracle.
//
// The paper frames CSCW systems along the space-time matrix — co-located
// vs remote, synchronous vs asynchronous (PAPER.md) — and argues ODP
// platforms must scale to organization-wide populations.  E12 stopped
// near 10^4 participants because one event heap serializes everything;
// E13 is the scale experiment that the sharded kernel (sim/shard.hpp)
// exists for.
//
// Scenario: N participants in rooms of 16.  Rooms alternate matrix
// quadrants: even rooms are synchronous (20 ms interaction cadence),
// odd rooms asynchronous (100 ms).  Every tick a participant sends one
// co-located datagram to a room neighbour (LAN delay, same shard — rooms
// never straddle shards) and one remote datagram to its counterpart in
// the opposite room (WAN delay, cross-shard), then re-arms.  A rare
// payload residue makes the receiver cancel its pending tick —
// exercising cancellation through the epoch machinery at scale.
//
// Every stochastic choice draws from a per-participant rng owned by the
// scenario, and all state is commutative under same-timestamp
// cross-participant interleaving — the only ordering freedom either
// kernel has.  Both kernels therefore produce the same outcome hash,
// delivery count and kernel-event count; every cell — including the 1M
// one — checks this in-binary, and main() exits non-zero on any
// mismatch.  The per-cell horizons shrink as N grows so the serial
// oracle stays affordable even at a million participants.
//
// A seed x topology parity matrix (including a zero-lookahead topology,
// which forces barrier-synchronized epochs) runs at small N across shard
// counts — the same guarantee scripts/shard_parity_gate.sh re-checks
// under sanitizers in CI.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "sim/shard.hpp"
#include "sim/simulator.hpp"

using namespace coop;

namespace {

int g_parity_failures = 0;

void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffULL;
    h *= 1099511628211ULL;
  }
}

char hex_digit(std::uint64_t v) {
  return static_cast<char>(v < 10 ? '0' + v : 'a' + (v - 10));
}

std::string hex64(std::uint64_t v) {
  std::string s(16, '0');
  for (int i = 15; i >= 0; --i, v >>= 4)
    s[static_cast<std::size_t>(i)] = hex_digit(v & 0xf);
  return s;
}

void knob(const std::string& key, const std::string& value) {
  if (obs::Obs* o = obs::default_obs()) o->meta.knobs[key] = value;
}

// --- the kernel-independent scenario ----------------------------------------

struct Topology {
  sim::Duration min_latency;    // cross-room floor = engine lookahead
  sim::Duration local_jitter;   // co-located extra delay range
  sim::Duration remote_jitter;  // remote extra delay range
};

// WAN quadrant boundary: LinkModel::wan().min_latency() = 40ms - 8ms.
const Topology kWanTopology{sim::msec(32), sim::usec(100), sim::msec(8)};
// Jitter-only links: zero lookahead, barrier-synchronized epochs.
const Topology kZeroLookahead{0, sim::usec(100), sim::usec(300)};

constexpr std::uint32_t kRoom = 16;

struct Participant {
  sim::Rng rng{0};
  std::uint64_t acc = 0;
  std::uint64_t sum = 0;
  std::uint64_t xr = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t arrival_sum = 0;
  std::uint64_t msg_seq = 0;
  sim::TimePoint next_tick = 0;
  std::uint64_t tick_handle = 0;
};

/// Adapter concept: schedule(p, when, fn)->handle, cancel(p, handle),
/// send(src, dst, at, payload, seq).  Tick timestamps stay even and
/// delivery arrivals odd so the cancel decision never depends on
/// same-timestamp ordering (the freedom the kernels exercise differently).
template <typename Adapter>
class SpaceTimeScenario {
 public:
  SpaceTimeScenario(std::uint32_t participants, std::uint64_t seed,
                    Topology topo, Adapter& a)
      : topo_(topo), adapter_(a), ps_(participants) {
    for (std::size_t p = 0; p < ps_.size(); ++p)
      ps_[p].rng = sim::Rng(seed ^ (0x9e3779b97f4a7c15ULL * (p + 1)));
  }

  void start() {
    for (std::uint32_t p = 0; p < ps_.size(); ++p)
      arm_tick(p, cadence(p) + sim::usec((p % 97) * 22));
  }

  void on_delivery(std::uint32_t dst, sim::TimePoint at,
                   std::uint64_t payload) {
    Participant& q = ps_[dst];
    q.sum += payload;
    q.xr ^= payload * 0x2545f4914f6cdd1dULL;
    ++q.deliveries;
    q.arrival_sum += static_cast<std::uint64_t>(at);
    if (payload % 8191 == 0 && q.next_tick > at) {
      adapter_.cancel(dst, q.tick_handle);
      q.next_tick = 0;  // this participant's chain ends here
    }
  }

  [[nodiscard]] std::uint64_t outcome_hash() const {
    std::uint64_t h = 1469598103934665603ULL;
    for (const Participant& p : ps_) {
      fnv_mix(h, p.acc);
      fnv_mix(h, p.sum);
      fnv_mix(h, p.xr);
      fnv_mix(h, p.deliveries);
      fnv_mix(h, p.arrival_sum);
    }
    return h;
  }

  [[nodiscard]] std::uint64_t total_deliveries() const {
    std::uint64_t n = 0;
    for (const Participant& p : ps_) n += p.deliveries;
    return n;
  }

 private:
  [[nodiscard]] sim::Duration cadence(std::uint32_t p) const {
    // Synchronous rooms interact at 20 ms, asynchronous at 100 ms.
    return (p / kRoom) % 2 == 0 ? sim::msec(20) : sim::msec(100);
  }

  void arm_tick(std::uint32_t p, sim::TimePoint when) {
    ps_[p].next_tick = when;
    ps_[p].tick_handle = adapter_.schedule(p, when, [this, p] { tick(p); });
  }

  void tick(std::uint32_t p) {
    Participant& me = ps_[p];
    const sim::TimePoint t = me.next_tick;
    me.acc = me.acc * 6364136223846793005ULL + me.rng.next();

    const std::uint32_t nrooms = static_cast<std::uint32_t>(ps_.size()) / kRoom;
    const std::uint32_t room = p / kRoom;
    const std::uint32_t partner =
        ((room + nrooms / 2) % nrooms) * kRoom + p % kRoom;
    const std::uint32_t neighbour = room * kRoom + (p + 1) % kRoom;

    const auto rj = static_cast<std::uint64_t>(topo_.remote_jitter);
    const auto lj = static_cast<std::uint64_t>(topo_.local_jitter);
    const auto rd = topo_.min_latency +
                    static_cast<sim::Duration>(me.rng.next() % (rj + 1) | 1);
    const std::uint64_t rpay = me.rng.next();
    const auto ld =
        static_cast<sim::Duration>(me.rng.next() % (lj + 1) | 1);
    const std::uint64_t lpay = me.rng.next();
    adapter_.send(p, partner, t + rd, rpay, me.msg_seq++);
    adapter_.send(p, neighbour, t + ld, lpay, me.msg_seq++);

    arm_tick(p, t + cadence(p));
  }

  Topology topo_;
  Adapter& adapter_;
  std::vector<Participant> ps_;
};

class SerialAdapter {
 public:
  explicit SerialAdapter(sim::Simulator& sim) : sim_(sim) {}

  template <typename F>
  std::uint64_t schedule(std::uint32_t, sim::TimePoint when, F&& fn) {
    return sim_.schedule_at(when, std::forward<F>(fn));
  }
  void cancel(std::uint32_t, std::uint64_t handle) { sim_.cancel(handle); }
  void send(std::uint32_t, std::uint32_t dst, sim::TimePoint at,
            std::uint64_t payload, std::uint64_t) {
    auto* self = this;
    sim_.schedule_at(at, [self, dst, at, payload] {
      self->deliver_(self->ctx_, dst, at, payload);
    });
  }

  void (*deliver_)(void*, std::uint32_t, sim::TimePoint,
                   std::uint64_t) = nullptr;
  void* ctx_ = nullptr;

 private:
  sim::Simulator& sim_;
};

class ShardedAdapter {
 public:
  ShardedAdapter(sim::ShardedEngine& eng, std::uint32_t participants)
      : eng_(eng), nrooms_(participants / kRoom) {}

  [[nodiscard]] std::uint16_t shard_of(std::uint32_t p) const {
    // Block assignment: contiguous room ranges, rooms never straddle.
    return static_cast<std::uint16_t>(
        static_cast<std::uint64_t>(p / kRoom) * eng_.shards() / nrooms_);
  }

  template <typename F>
  std::uint64_t schedule(std::uint32_t p, sim::TimePoint when, F&& fn) {
    return eng_.schedule_at(shard_of(p), when, std::forward<F>(fn));
  }
  void cancel(std::uint32_t p, std::uint64_t handle) {
    eng_.cancel(shard_of(p), handle);
  }
  void send(std::uint32_t src, std::uint32_t dst, sim::TimePoint at,
            std::uint64_t payload, std::uint64_t seq) {
    eng_.send(sim::ShardMsg{at, src, dst, shard_of(src), shard_of(dst),
                            static_cast<std::uint32_t>(seq), payload});
  }

 private:
  sim::ShardedEngine& eng_;
  std::uint32_t nrooms_;
};

struct CellResult {
  std::uint64_t hash = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t events = 0;
  double wall_s = 0;
};

CellResult run_serial(std::uint32_t participants, std::uint64_t seed,
                      Topology topo, sim::TimePoint horizon) {
  sim::Simulator sim;
  SerialAdapter adapter(sim);
  SpaceTimeScenario<SerialAdapter> scen(participants, seed, topo, adapter);
  adapter.ctx_ = &scen;
  adapter.deliver_ = [](void* ctx, std::uint32_t dst, sim::TimePoint at,
                        std::uint64_t payload) {
    static_cast<SpaceTimeScenario<SerialAdapter>*>(ctx)->on_delivery(
        dst, at, payload);
  };
  scen.start();
  const auto t0 = std::chrono::steady_clock::now();
  sim.run_until(horizon);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return {scen.outcome_hash(), scen.total_deliveries(), sim.events_processed(),
          wall};
}

CellResult run_sharded(std::uint32_t participants, std::uint64_t seed,
                       Topology topo, sim::TimePoint horizon,
                       std::uint32_t shards, std::uint32_t threads = 1) {
  sim::ShardedConfig cfg;
  cfg.shards = shards;
  cfg.threads = threads;
  cfg.lookahead = topo.min_latency;
  cfg.seed = seed;
  sim::ShardedEngine eng(cfg);
  ShardedAdapter adapter(eng, participants);
  SpaceTimeScenario<ShardedAdapter> scen(participants, seed, topo, adapter);
  struct Ctx {
    SpaceTimeScenario<ShardedAdapter>* scen;
  } ctx{&scen};
  eng.set_msg_handler(
      [](void* c, const sim::ShardMsg& m) {
        static_cast<Ctx*>(c)->scen->on_delivery(m.dst, m.at, m.payload);
      },
      &ctx);
  scen.start();
  const auto t0 = std::chrono::steady_clock::now();
  eng.run_until(horizon);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (eng.lookahead_violations() != 0) {
    std::fprintf(stderr, "E13: %llu lookahead violations (N=%u)\n",
                 static_cast<unsigned long long>(eng.lookahead_violations()),
                 participants);
    ++g_parity_failures;
  }
  return {scen.outcome_hash(), scen.total_deliveries(), eng.events_processed(),
          wall};
}

void check_parity(const char* what, const CellResult& serial,
                  const CellResult& sharded) {
  if (serial.hash != sharded.hash || serial.deliveries != sharded.deliveries ||
      serial.events != sharded.events) {
    std::fprintf(stderr,
                 "E13 PARITY FAILURE [%s]: serial {hash %s, deliveries %llu, "
                 "events %llu} vs sharded {hash %s, deliveries %llu, "
                 "events %llu}\n",
                 what, hex64(serial.hash).c_str(),
                 static_cast<unsigned long long>(serial.deliveries),
                 static_cast<unsigned long long>(serial.events),
                 hex64(sharded.hash).c_str(),
                 static_cast<unsigned long long>(sharded.deliveries),
                 static_cast<unsigned long long>(sharded.events));
    ++g_parity_failures;
  }
}

// --- benchmark cells --------------------------------------------------------

/// One space-time cell: serial oracle and sharded kernel over the same
/// seed and horizon, parity-checked, both rates reported.  Horizons
/// shrink as N grows so each cell stays within a CI-friendly budget
/// while still covering multiple cadence periods of both quadrants.
void BM_E13_SpaceTime(benchmark::State& state) {
  const auto participants = static_cast<std::uint32_t>(state.range(0));
  const sim::TimePoint horizon = participants >= 1'000'000  ? sim::msec(250)
                                 : participants >= 100'000 ? sim::msec(500)
                                                           : sim::sec(2);
  constexpr std::uint64_t kSeed = 1301;
  constexpr std::uint32_t kShards = 8;

  CellResult serial, sharded;
  for (auto _ : state) {
    serial = run_serial(participants, kSeed, kWanTopology, horizon);
    sharded =
        run_sharded(participants, kSeed, kWanTopology, horizon, kShards);
  }
  const std::string tag = "N=" + std::to_string(participants);
  check_parity(tag.c_str(), serial, sharded);

  const std::string prefix = "e13." + std::to_string(participants);
  knob(prefix + ".sharded.hash", hex64(sharded.hash));
  knob(prefix + ".serial.hash", hex64(serial.hash));
  knob(prefix + ".events", std::to_string(sharded.events));

  state.counters["participants"] = static_cast<double>(participants);
  state.counters["sharded_events_per_sec"] =
      static_cast<double>(sharded.events) / sharded.wall_s;
  state.counters["serial_events_per_sec"] =
      static_cast<double>(serial.events) / serial.wall_s;
  state.counters["speedup"] = serial.wall_s / sharded.wall_s;
  state.counters["deliveries"] = static_cast<double>(sharded.deliveries);
}

/// The full parity seed matrix at small N: seeds x topologies x shard
/// counts (including shards=1 and the zero-lookahead barrier mode), each
/// cell checked against the serial oracle.  Sharded cells run on the
/// worker pool, so sanitizer runs of the matrix cover it: 4 threads (the
/// engine caps them at the shard count) give the 8-shard cells workers
/// that own two shards each.  Threads never change an outcome.
void BM_E13_ParityMatrix(benchmark::State& state) {
  constexpr std::uint32_t kParticipants = 512;  // 32 rooms
  constexpr std::uint32_t kThreads = 4;
  const sim::TimePoint horizon = sim::msec(600);
  std::uint64_t cells = 0;
  for (auto _ : state) {
    for (const std::uint64_t seed : {11ULL, 12ULL, 13ULL}) {
      int topo_idx = 0;
      for (const Topology& topo : {kWanTopology, kZeroLookahead}) {
        const CellResult serial =
            run_serial(kParticipants, seed, topo, horizon);
        for (const std::uint32_t shards : {1u, 2u, 4u, 8u}) {
          const CellResult sharded = run_sharded(kParticipants, seed, topo,
                                                 horizon, shards, kThreads);
          const std::string tag = "seed=" + std::to_string(seed) +
                                  " topo=" + std::to_string(topo_idx) +
                                  " shards=" + std::to_string(shards);
          check_parity(tag.c_str(), serial, sharded);
          ++cells;
        }
        ++topo_idx;
      }
    }
  }
  knob("e13.parity_cells", std::to_string(cells));
  knob("e13.parity_failures", std::to_string(g_parity_failures));
  state.counters["cells"] = static_cast<double>(cells);
  state.counters["failures"] = static_cast<double>(g_parity_failures);
}

BENCHMARK(BM_E13_ParityMatrix)->Iterations(1);
BENCHMARK(BM_E13_SpaceTime)
    ->Arg(10'000)
    ->Arg(100'000)
    ->Arg(1'000'000)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

// COOP_BENCH_MAIN plus the in-binary parity verdict: any oracle mismatch
// fails the binary (and with it the shard-parity CI job), not just a
// counter in the artifact.
int main(int argc, char** argv) {
  coop::obs::Obs obs;
  coop::obs::ScopedDefaultObs ambient(&obs);
  obs.meta.knobs["tag"] = "e13_million_users";
  obs.meta.knobs["trace_cap"] = std::to_string(obs.tracer.capacity());
  if (const char* cap = std::getenv("COOP_TRACE_CAP"))
    obs.meta.knobs["COOP_TRACE_CAP"] = cap;
  {
    std::string args;
    for (int i = 1; i < argc; ++i) {
      if (i > 1) args += ' ';
      args += argv[i];
    }
    if (!args.empty()) obs.meta.knobs["argv"] = args;
  }
  const auto wall_start = std::chrono::steady_clock::now();
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  obs.meta.wall_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - wall_start)
                         .count();
  obs.meta.knobs["e13.parity_failures"] = std::to_string(g_parity_failures);
  if (!coop::obs::write_bench_artifacts(obs, "e13_million_users")) {
    std::fprintf(stderr, "warning: failed to write BENCH_e13_million_users.*\n");
  }
  if (g_parity_failures != 0) {
    std::fprintf(stderr, "E13: %d parity failure(s) — sharded kernel diverged "
                 "from the serial oracle\n", g_parity_failures);
    return 3;
  }
  return 0;
}
