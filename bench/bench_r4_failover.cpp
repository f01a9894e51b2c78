// R4 — failover soak: no single point of failure in session membership
// and total order.
//
// A seed x scenario matrix drives a five-participant SessionGroup (total
// order, failover replay) plus its membership coordinator through the
// failure modes §4.2.2 warns about: the coordinator crashing, the
// coordinator crash-restarting and recovering from survivor summaries,
// the total-order sequencer crashing, both dying in the same incident,
// an asymmetric partition that strands the coordinator AND the sequencer
// in the minority, and a member flapping in and out of the group.
//
// Every run feeds a fault::Invariants collector and the binary exits
// non-zero if ANY run violates a safety invariant:
//   * zero acked-broadcast loss — a broadcast the originator saw
//     committed (delivered back to itself) reaches every core survivor,
//     even across a simultaneous sequencer+coordinator crash;
//   * total-order agreement — core survivors' delivery logs are
//     byte-identical at quiesce;
//   * exactly one active coordinator per primary partition — no split
//     brain, no headless group;
//   * strictly monotone view ids at every member across failover.
// Failover latency (fault injection -> last core member installs a
// higher view) is aggregated into failover.convergence_us.  Same seed =>
// byte-identical artifacts (the wall_ms line excluded).
//
// Expected shape: zero violations on every seed; convergence is
// dominated by the coordinator lease (700 ms) plus the claimant's rank
// stagger for crash scenarios, and by the failure detector (350 ms) when
// only the sequencer dies.
#include <benchmark/benchmark.h>

#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/coop.hpp"

using namespace coop;

namespace {

constexpr const char* kScenarioNames[] = {"coord_crash",    "coord_restart",
                                          "seq_crash",      "dual_crash",
                                          "partition_heal", "member_flap"};
constexpr int kScenarios = 6;
constexpr int kNodes = 5;

std::uint64_t g_total_violations = 0;

// Members that are never crashed or partitioned away in each scenario;
// agreement and zero-loss are asserted over exactly this set.
std::set<net::NodeId> core_of(int scenario) {
  switch (scenario) {
    case 2:  // seq_crash: node 1 dies
    case 3:  // dual_crash: nodes 100 + 1 die
    case 4:  // partition_heal: node 1 strands with the coordinator
      return {2, 3, 4, 5};
    case 5:  // member_flap: node 5 flaps
      return {1, 2, 3, 4};
    default:  // coordinator-only faults: every participant survives
      return {1, 2, 3, 4, 5};
  }
}

struct RunOutcome {
  std::vector<std::string> violations;
  double convergence_us = -1.0;  ///< fault -> all core on a higher view
  std::uint64_t acked = 0;
  std::uint64_t delivered = 0;
  std::uint64_t replayed = 0;
  std::uint64_t lost = 0;
  std::uint64_t phantoms = 0;
};

RunOutcome run_failover(int scenario, std::uint64_t seed) {
  obs::Obs local;  // per-run sink so nothing leaks across runs
  Platform platform(seed, &local);
  auto& sim = platform.simulator();
  auto& net = platform.network();
  net.set_default_link({.latency = sim::msec(3), .jitter = sim::msec(1),
                        .bandwidth_bps = 10e6, .loss = 0.0});

  fault::Invariants inv;
  RunOutcome out;
  const std::set<net::NodeId> core = core_of(scenario);

  groups::MembershipConfig mcfg;
  mcfg.enable_failover = true;
  mcfg.timer_jitter = 0.2;  // desynchronized timers, still seed-reproducible
  groups::ChannelConfig ccfg;
  ccfg.ordering = groups::Ordering::kTotal;
  ccfg.retransmit_timeout = sim::msec(50);
  ccfg.max_retransmits = 100;  // requests must outlive a ~1.5 s failover

  const net::Address coord_addr{100, 1};
  auto coord =
      std::make_unique<groups::MembershipCoordinator>(net, coord_addr, mcfg);

  struct Part {
    std::unique_ptr<groupware::SessionGroup> sg;
    std::vector<std::string> log;
    std::vector<std::pair<sim::TimePoint, std::uint64_t>> installed;
    std::uint64_t sent = 0;  ///< broadcasts this site has made
  };
  std::vector<net::NodeId> roster;
  for (net::NodeId n = 1; n <= kNodes; ++n) roster.push_back(n);
  std::array<Part, kNodes> parts;
  for (net::NodeId n = 1; n <= kNodes; ++n) {
    Part& p = parts[static_cast<std::size_t>(n - 1)];
    p.sg = std::make_unique<groupware::SessionGroup>(
        net, n, roster, coord_addr, /*group=*/42,
        groupware::SessionGroup::Ports(), mcfg, ccfg);
    const bool is_core = core.count(n) != 0;
    const std::string self_prefix = "m" + std::to_string(n) + "-";
    p.sg->on_deliver([&p, &inv, &out, n, is_core,
                      self_prefix](const groups::Delivery& d) {
      p.log.push_back(d.payload);
      if (!is_core) return;
      ++out.delivered;
      inv.record_broadcast_delivered("n" + std::to_string(n), d.payload);
      // Self-delivery of a core member's own broadcast == the group
      // committed it: from here on, losing it anywhere is a violation.
      if (d.payload.rfind(self_prefix, 0) == 0) {
        ++out.acked;
        inv.record_broadcast_acked(d.payload);
      }
    });
    p.sg->on_view([&p, &inv, &sim, n](const groups::View& v) {
      p.installed.emplace_back(sim.now(), v.id);
      inv.record_view_installed("n" + std::to_string(n), v.id);
    });
    p.sg->join();
  }

  // Workload: ten staggered rounds through the fault window, then a
  // post-failover liveness round — all five sites broadcasting.
  const auto round_at = [&](sim::TimePoint t, int i) {
    for (net::NodeId n = 1; n <= kNodes; ++n) {
      sim.schedule_at(t, [&parts, &inv, n, i] {
        Part& p = parts[static_cast<std::size_t>(n - 1)];
        if (!p.sg) return;
        // broadcast() returns the site's per-sender sequence number, one
        // past its previous broadcast.
        const std::uint64_t seq =
            p.sg->broadcast("m" + std::to_string(n) + "-" + std::to_string(i));
        if (seq != ++p.sent) {
          inv.report_violation("broadcast seq " + std::to_string(seq) +
                               " at n" + std::to_string(n) + ", expected " +
                               std::to_string(p.sent));
        }
      });
    }
  };
  for (int i = 0; i < 10; ++i) round_at(sim::msec(200 + 150 * i), i);
  round_at(sim::sec(6), 99);

  // Fault schedule: seed-jittered times, drawn up front from a stream
  // independent of the simulator's so the fabric is unperturbed.
  sim::Rng fault_rng(seed * 7919 + static_cast<std::uint64_t>(scenario));
  const sim::TimePoint t_fault =
      sim::msec(900 + fault_rng.uniform_int(0, 400));
  const sim::TimePoint t_heal =
      t_fault + sim::msec(1800 + fault_rng.uniform_int(0, 400));
  const auto kill_coord = [&] {
    net.crash(100);
    coord.reset();  // fail-stop: the process dies with its state
  };
  const auto kill_seq = [&] {
    net.crash(1);
    parts[0].sg.reset();
  };
  switch (scenario) {
    case 0:
      sim.schedule_at(t_fault, kill_coord);
      break;
    case 1:
      sim.schedule_at(t_fault, kill_coord);
      // Back before any member lease (700 ms) expires: the restarted
      // coordinator must recover the view from REJOIN summaries alone.
      sim.schedule_at(t_fault + sim::msec(250), [&] {
        net.recover(100);
        groups::MembershipConfig rcfg = mcfg;
        rcfg.recover_on_start = true;
        coord = std::make_unique<groups::MembershipCoordinator>(
            net, coord_addr, rcfg);
      });
      break;
    case 2:
      sim.schedule_at(t_fault, kill_seq);
      break;
    case 3:
      sim.schedule_at(t_fault, [&] {
        kill_coord();
        kill_seq();
      });
      break;
    case 4:
      sim.schedule_at(t_fault,
                      [&] { net.partition({100, 1}, {2, 3, 4, 5}); });
      sim.schedule_at(t_heal, [&] { net.heal_partition(); });
      break;
    case 5:
      for (int c = 0; c < 3; ++c) {
        sim.schedule_at(t_fault + sim::msec(800) * c,
                        [&net] { net.crash(5); });
        sim.schedule_at(t_fault + sim::msec(800) * c + sim::msec(350),
                        [&net] { net.recover(5); });
      }
      break;
    default:
      break;
  }

  sim.run_until(sim::sec(8));

  // --- evidence + checks.
  // Exactly one active coordinator per primary partition: feed every
  // instance that still exists — the original (or its restarted
  // incarnation) and every member-hosted promotion.
  if (coord) {
    inv.record_coordinator(scenario == 1 ? "restarted" : "orig",
                           coord->active());
  }
  for (net::NodeId n = 1; n <= kNodes; ++n) {
    const Part& p = parts[static_cast<std::size_t>(n - 1)];
    if (!p.sg) continue;
    if (auto* hosted = p.sg->member().hosted_coordinator()) {
      inv.record_coordinator("hosted_n" + std::to_string(n),
                             hosted->active());
    }
  }

  // Total-order agreement: core logs byte-identical at quiesce.
  const Part* ref = nullptr;
  for (const net::NodeId n : core) {
    const Part& p = parts[static_cast<std::size_t>(n - 1)];
    if (!ref) {
      ref = &p;
    } else if (p.log != ref->log) {
      inv.report_violation("total order divergence: core member n" +
                           std::to_string(n) + " delivered " +
                           std::to_string(p.log.size()) +
                           " messages, disagreeing with the reference log (" +
                           std::to_string(ref->log.size()) + ")");
    }
  }

  // Failover convergence: every core member must end up past its
  // pre-fault view; latency is until the LAST of them gets there.
  sim::TimePoint worst = t_fault;
  std::size_t advanced = 0;
  bool all_converged = true;
  for (const net::NodeId n : core) {
    const Part& p = parts[static_cast<std::size_t>(n - 1)];
    std::uint64_t before = 0;
    for (const auto& [t, id] : p.installed) {
      if (t <= t_fault) before = std::max(before, id);
    }
    bool converged = false;
    for (const auto& [t, id] : p.installed) {
      if (t > t_fault && id > before) {
        worst = std::max(worst, t);
        converged = true;
        ++advanced;
        break;
      }
    }
    if (!converged) {
      all_converged = false;
      // A flap the member recovers from inside the failure timeout never
      // triggers a view change at all — that is absorption, not a stall.
      // Partial advancement (some core members saw a new view, others
      // never did) is a stall in every scenario.
      if (scenario != 5) {
        inv.report_violation("stuck view: core member n" + std::to_string(n) +
                             " never installed a view past the fault");
      }
    }
  }
  if (scenario == 5 && !all_converged && advanced > 0) {
    inv.report_violation("stuck view: only " + std::to_string(advanced) +
                         "/" + std::to_string(core.size()) +
                         " core members installed the flap's view change");
  }
  if (all_converged) {
    out.convergence_us = static_cast<double>(worst - t_fault);
  }

  for (const net::NodeId n : core) {
    const auto& st =
        parts[static_cast<std::size_t>(n - 1)].sg->channel().stats();
    out.replayed += st.failover_replayed;
    out.lost += st.failover_lost;
    out.phantoms += st.phantom_commits;
  }
  if (out.lost > 0) {
    inv.report_violation("loss window open: " + std::to_string(out.lost) +
                         " acked broadcast(s) counted lost at core members "
                         "despite failover replay");
  }

  inv.check_all();
  out.violations = inv.violations();
  return out;
}

void BM_FailoverSoak(benchmark::State& state) {
  const int scenario = static_cast<int>(state.range(0));
  const auto seed = static_cast<std::uint64_t>(state.range(1));
  RunOutcome out;
  for (auto _ : state) out = run_failover(scenario, seed);

  obs::Obs& ambient = *obs::default_obs();
  if (out.convergence_us >= 0.0) {
    ambient.metrics.summary("failover.convergence_us")
        .add(out.convergence_us);
    ambient.metrics
        .summary(std::string("failover.convergence_us.") +
                 kScenarioNames[scenario])
        .add(out.convergence_us);
  }
  ambient.metrics.counter("failover.soak.runs").inc();
  ambient.metrics.counter("failover.soak.acked").inc(out.acked);
  ambient.metrics.counter("failover.soak.delivered").inc(out.delivered);
  ambient.metrics.counter("failover.soak.replayed").inc(out.replayed);
  ambient.metrics.counter("failover.soak.lost").inc(out.lost);
  ambient.metrics.counter("failover.soak.phantom_commits").inc(out.phantoms);
  if (!out.violations.empty()) {
    ambient.metrics.counter("fault.invariant_violations")
        .inc(out.violations.size());
    g_total_violations += out.violations.size();
    for (const std::string& v : out.violations) {
      std::fprintf(stderr, "[%s seed %llu] INVARIANT VIOLATION: %s\n",
                   kScenarioNames[scenario],
                   static_cast<unsigned long long>(seed), v.c_str());
    }
  }
  state.counters["violations"] = static_cast<double>(out.violations.size());
  state.counters["convergence_ms"] = out.convergence_us / 1000.0;
  state.counters["acked"] = static_cast<double>(out.acked);
  state.counters["replayed"] = static_cast<double>(out.replayed);
  state.counters["lost"] = static_cast<double>(out.lost);
  state.SetLabel(kScenarioNames[scenario]);
}

BENCHMARK(BM_FailoverSoak)
    ->ArgsProduct({benchmark::CreateDenseRange(0, kScenarios - 1, 1),
                   benchmark::CreateDenseRange(1, 20, 1)})
    ->Iterations(1);

}  // namespace

// COOP_BENCH_MAIN with one addition: a non-zero exit code when any run
// violated an invariant, so CI fails on the soak, not on a diff.
int main(int argc, char** argv) {
  coop::obs::Obs obs;
  coop::obs::ScopedDefaultObs ambient(&obs);
  obs.meta.knobs["tag"] = "r4_failover";
  obs.meta.knobs["trace_cap"] = std::to_string(obs.tracer.capacity());
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
  if (!coop::obs::write_bench_artifacts(obs, "r4_failover")) {
    std::fprintf(stderr, "warning: failed to write BENCH_r4_failover.*\n");
  }
  if (g_total_violations > 0) {
    std::fprintf(stderr,
                 "failover soak FAILED: %llu invariant violation(s)\n",
                 static_cast<unsigned long long>(g_total_violations));
    return 2;
  }
  return 0;
}
