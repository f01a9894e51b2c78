// coop_perfbench — whole cooperative sessions driven through the public
// API of every layer, timed from outside.
//
//   coop_perfbench --workload <conference|coauthoring|crowd|matrix>
//                  [--seed N] [--seconds S] [--trace 0|1]
//
// --trace 0: builds the session 5 or more times (median = setup_s), then
// runs the untraced timed run and prints the end-to-end metrics.
// --trace 1: one untraced run (per-layer counts, untraced wall) and one
// traced run (profiler + head-sampled tracing: per-layer times), then
// prints the per-layer metrics.  The last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}; the exit status is
// non-zero when an output check fails.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "harness.hpp"
#include "obs/critical_path.hpp"

using namespace perfbench;
namespace obs = coop::obs;

namespace {

constexpr std::uint64_t kDefaultSeed = 1;
constexpr int kDefaultSeconds = 20;
// Set-ups per --trace 0 run (setup_s = their median): at least
// kMinSetups, more while the set-ups so far took under kSetupBudgetS, so a
// short set-up is sampled many times across the run's first seconds.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 31;
constexpr double kSetupBudgetS = 3.0;
constexpr int kTenths = 10;  // slices of the timed run (sim.rate_drift)

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  int seconds = kDefaultSeconds;
  int trace = 0;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "coop_perfbench: %s\nusage: coop_perfbench --workload "
               "<conference|coauthoring|crowd|matrix> [--seed N] "
               "[--seconds S] [--trace 0|1]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const char* val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val, &end, 10);
      if (*end != '\0') usage("--seed takes an unsigned integer");
    } else if (key == "--seconds") {
      a.seconds = static_cast<int>(std::strtol(val, &end, 10));
      if (*end != '\0' || a.seconds < 1 || a.seconds > 120)
        usage("--seconds takes an integer in [1, 120]");
    } else if (key == "--trace") {
      a.trace = static_cast<int>(std::strtol(val, &end, 10));
      if (*end != '\0' || (a.trace != 0 && a.trace != 1))
        usage("--trace takes 0 or 1");
    } else {
      usage(("unknown flag " + key).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

SessionFactory factory_for(const std::string& name) {
  if (name == "conference") return &make_conference;
  if (name == "coauthoring") return &make_coauthoring;
  if (name == "crowd") return &make_crowd;
  if (name == "matrix") return &make_matrix;
  usage(("unknown workload " + name).c_str());
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Everything one timed run produced.
struct RunResult {
  std::vector<double> setup_s;
  double wall_s = 0;
  double cpu_s = 0;
  std::uint64_t window_completions = 0;
  std::vector<double> tenth_rate;       // ops per CPU second, per slice
  std::vector<double> tenth_wall_rate;  // ops per wall second, per slice
  std::uint64_t attempted = 0;
  std::uint64_t completed_ok = 0;
  std::uint64_t latency_samples = 0;
  std::uint64_t latency_clamped = 0;
  double p50 = 0, p99 = 0, p999 = 0;
  std::size_t pending_max = 0;
  double peak_rss_mb = 0;
  double retained_bytes_per_delivery = 0;
  AllocCounts allocs;
  Duration window_us = 0;
  CheckReport checks;
  Metrics counts;
  // Traced run only.
  std::map<std::string, double> times;
};

/// One run: the set-up (repeated when @p sample_setup; the last session
/// built is the one timed), then the timed run, drain and checks.
RunResult run(SessionFactory make, const Args& a, bool traced,
              bool sample_setup) {
  RunResult r;
  std::unique_ptr<Session> s;
  double spent = 0;
  do {
    s.reset();
    release_free_heap();
    const double t0 = wall_now();
    s = make(a.seed, traced);
    s->warm_up();
    r.setup_s.push_back(wall_now() - t0);
    spent += r.setup_s.back();
  } while (sample_setup && std::ssize(r.setup_s) < kMaxSetups &&
           (std::ssize(r.setup_s) < kMinSetups || spent < kSetupBudgetS));
  release_free_heap();

  obs::Profiler& prof = s->obs().profiler;
  const auto run_site = prof.site("bench.run_until", obs::Category::kSim);
  const std::uint64_t hwm0 = peak_rss_bytes();
  const AllocCounts a0 = alloc_counts();
  const std::uint64_t dropped0 = s->obs().tracer.dropped();
  s->begin_window();
  const ProfSnap p0 = prof_snap(prof);
  const TimePoint t0 = s->now();
  r.window_us = s->window(a.seconds);
  const std::uint64_t comp0 = s->ops().completions();
  const double c0 = cpu_now();
  const double w0 = wall_now();
  for (int i = 1; i <= kTenths; ++i) {
    // Slice rates per CPU second and per wall second; the ten of a run
    // show how much of its host-time noise lies within the run.
    const double cpu_slice = cpu_now();
    const double wall_slice = wall_now();
    const std::uint64_t cs = s->ops().completions();
    {
      obs::ProfScope ps(prof, run_site);
      s->run_until(t0 + r.window_us * i / kTenths);
    }
    const auto done = static_cast<double>(s->ops().completions() - cs);
    r.tenth_rate.push_back(done / (cpu_now() - cpu_slice));
    r.tenth_wall_rate.push_back(done / (wall_now() - wall_slice));
    s->ops().sample_pending(s->pending());
  }
  r.wall_s = wall_now() - w0;
  r.cpu_s = cpu_now() - c0;
  r.window_completions = s->ops().completions() - comp0;
  const AllocCounts a1 = alloc_counts();
  r.allocs = {a1.allocs - a0.allocs, a1.bytes - a0.bytes};
  const ProfSnap p1 = prof_snap(prof);
  r.peak_rss_mb = static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0);
  const std::uint64_t groups = s->group_deliveries();
  if (groups > 0) {
    r.retained_bytes_per_delivery =
        static_cast<double>(peak_rss_bytes() - hwm0) /
        static_cast<double>(groups);
  }

  s->end_window();
  s->drain();
  s->check(r.checks);
  s->layer_counts(r.counts);

  const OpLog& ops = s->ops();
  r.attempted = ops.attempted();
  r.completed_ok = ops.completed_ok();
  r.latency_samples = ops.latency().count();
  r.latency_clamped = ops.latency().clamped();
  r.p50 = ops.latency().percentile_ms(0.50);
  r.p99 = ops.latency().percentile_ms(0.99);
  r.p999 = ops.latency().percentile_ms(0.999);
  r.pending_max = ops.pending_max();

  if (traced) {
    const auto site_s = [&](const char* name, bool self) {
      const auto id = prof.site(name, obs::Category::kApp);
      if (id == obs::Profiler::kInvalidSite || id >= p1.total_ns.size())
        return 0.0;
      const auto& a = self ? p0.self_ns : p0.total_ns;
      const auto& b = self ? p1.self_ns : p1.total_ns;
      const std::uint64_t before = id < a.size() ? a[id] : 0;
      return static_cast<double>(b[id] - before) * 1e-9;
    };
    const double run_wall = site_s("bench.run_until", false);
    const double steps = static_cast<double>(p1.step_ns - p0.step_ns) * 1e-9;
    const double kernel_self = run_wall - steps;
    double sites_self = 0;
    for (std::size_t i = 0; i < p1.self_ns.size(); ++i) {
      if (i == run_site) continue;
      sites_self += static_cast<double>(
                        p1.self_ns[i] - (i < p0.self_ns.size() ? p0.self_ns[i]
                                                               : 0)) *
                    1e-9;
    }
    auto& t = r.times;
    t[s->sharded() ? "shard.self_s" : "sim.self_s"] = kernel_self;
    t["net.deliver_self_s"] = site_s("net.deliver", true);
    t["groups.broadcast_s"] = site_s("bench.groups.broadcast", false);
    t["rpc.call_s"] = site_s("bench.rpc.call", false);
    t["rpc.handler_s"] = site_s("rpc.handle", false);
    t["ccontrol.edit_s"] = site_s("bench.ccontrol.insert", false) +
                           site_s("bench.ccontrol.erase", false);
    t["durable.put_s"] = site_s("bench.durable.put", false);
    t["awareness.publish_s"] = site_s("bench.awareness.publish", false);
    t["awareness.move_s"] = site_s("bench.awareness.place", false);
    t["awareness.flush_s"] = site_s("awareness.flush", false);
    t["obs.unattributed_frac"] =
        run_wall > 0 ? 1.0 - (kernel_self + sites_self) / run_wall : 0.0;
    t["obs.trace_dropped"] =
        static_cast<double>(s->obs().tracer.dropped() - dropped0);

    // Virtual wait: the critical-path queue bucket of the RPC traces the
    // head sampler kept (link serializer queues + server run queues).
    std::vector<obs::TraceEvent> events = s->obs().tracer.snapshot();
    std::set<std::uint64_t> rpc_traces;
    for (const obs::TraceEvent& e : events) {
      if (e.ctx.valid() && e.category == obs::Category::kRpc &&
          std::strcmp(e.name, "call") == 0)
        rpc_traces.insert(e.ctx.trace_id);
    }
    std::erase_if(events, [&](const obs::TraceEvent& e) {
      return !e.ctx.valid() || rpc_traces.count(e.ctx.trace_id) == 0;
    });
    const obs::CriticalPath cp(events);
    t["rpc.queue_wait_p99_ms"] =
        cp.traces().empty()
            ? 0.0
            : cp.bucket_us(obs::PathBucket::kQueue).percentile(0.99) / 1000.0;
  }
  return r;
}

void print_checks(const RunResult& r, const char* label) {
  for (const CheckReport::Item& i : r.checks.items) {
    std::printf("check[%s] %-28s %s%s%s\n", label, i.name.c_str(),
                i.ok ? "ok" : "FAILED", i.detail.empty() ? "" : "  ",
                i.detail.c_str());
  }
  std::printf("outcome_hash[%s] %s\n", label,
              hex64(r.checks.outcome_hash).c_str());
}

void print_run(const RunResult& r, const char* label) {
  std::printf(
      "run[%s] window_virtual_s=%.3f wall_s=%.4f cpu_s=%.4f attempted=%llu "
      "completed=%llu latency_samples=%llu latency_clamped=%llu "
      "p50_ms=%.3f p99_ms=%.3f p999_ms=%.3f\n",
      label, static_cast<double>(r.window_us) / 1e6, r.wall_s, r.cpu_s,
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.completed_ok),
      static_cast<unsigned long long>(r.latency_samples),
      static_cast<unsigned long long>(r.latency_clamped), r.p50, r.p99,
      r.p999);
  std::printf("run[%s] ops_per_cpu_s by tenth:", label);
  for (const double x : r.tenth_rate) std::printf(" %.0f", x);
  std::printf("\nrun[%s] ops_per_wall_s by tenth:", label);
  for (const double x : r.tenth_wall_rate) std::printf(" %.0f", x);
  std::printf("\n");
  for (const Metric& m : r.counts) {
    std::printf("count[%s] %s = %.17g %s\n", label, m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

/// The per-layer metric table: every name on every workload (a layer a
/// workload bypasses reports 0), in a fixed order, with its unit.
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"sim.events", "count"},
    {"sim.events_per_s", "1/s"},
    {"sim.self_s", "s"},
    {"sim.pending_max", "count"},
    {"sim.rate_drift", "ratio"},
    {"shard.events", "count"},
    {"shard.epochs", "count"},
    {"shard.cross_msgs", "count"},
    {"shard.self_s", "s"},
    {"shard.lookahead_violations", "count"},
    {"net.datagrams", "count"},
    {"net.bytes", "B"},
    {"net.dropped", "count"},
    {"net.deliver_self_s", "s"},
    {"groups.delivered", "count"},
    {"groups.retransmits", "count"},
    {"groups.held_back_max", "count"},
    {"groups.broadcast_s", "s"},
    {"groups.retained_bytes_per_delivery", "B"},
    {"rpc.calls", "count"},
    {"rpc.failed", "count"},
    {"rpc.call_s", "s"},
    {"rpc.handler_s", "s"},
    {"rpc.queue_wait_p99_ms", "ms"},
    {"ccontrol.edits", "count"},
    {"ccontrol.remote_applies", "count"},
    {"ccontrol.edit_s", "s"},
    {"ccontrol.notify_p99_ms", "ms"},
    {"durable.puts", "count"},
    {"durable.group_commits", "count"},
    {"durable.checkpoints", "count"},
    {"durable.put_s", "s"},
    {"durable.ack_p99_ms", "ms"},
    {"durable.log_bytes_max", "B"},
    {"awareness.published", "count"},
    {"awareness.delivered", "count"},
    {"awareness.useful_frac", "ratio"},
    {"awareness.publish_s", "s"},
    {"awareness.move_s", "s"},
    {"awareness.flush_s", "s"},
    {"util.allocs_per_op", "count"},
    {"util.alloc_bytes_per_op", "B"},
    {"obs.trace_overhead_frac", "ratio"},
    {"obs.unattributed_frac", "ratio"},
    {"obs.trace_dropped", "count"},
    {"ops.latency_samples", "count"},
};

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  const SessionFactory make = factory_for(a.workload);
  // Room for the head-sampled trace of the traced run; the untraced run's
  // tracer is disabled and never allocates its ring.
  setenv("COOP_TRACE_CAP", "65536", 1);

  std::printf("perfbench workload=%s seed=%llu seconds=%d trace=%d\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace);
  std::printf("generator: virtual-time schedule, never late (lateness 0 by "
              "construction)\n");

  if (a.trace == 0) {
    const RunResult r = run(make, a, /*traced=*/false, /*sample_setup=*/true);
    print_run(r, "untraced");
    print_checks(r, "untraced");
    std::printf("setup_s each:");
    for (const double x : r.setup_s) std::printf(" %.4f", x);
    std::printf("\n");
    const bool correct = r.checks.all_ok();
    const Metrics m = {
        {"ops_per_s", static_cast<double>(r.window_completions) / r.wall_s,
         "1/s"},
        {"cpu_s", r.cpu_s, "s"},
        {"setup_s", median(r.setup_s), "s"},
        {"peak_rss_mb", r.peak_rss_mb, "MB"},
        {"sim_latency_p50_ms", r.p50, "ms"},
        {"sim_latency_p99_ms", r.p99, "ms"},
        {"sim_latency_p999_ms", r.p999, "ms"},
        {"completed_frac",
         r.attempted ? static_cast<double>(r.completed_ok) /
                           static_cast<double>(r.attempted)
                     : 0.0,
         "ratio"},
    };
    print_json(correct, r.attempted, r.attempted - r.completed_ok, m);
    return correct ? 0 : 1;
  }

  const RunResult u = run(make, a, /*traced=*/false, /*sample_setup=*/false);
  print_run(u, "untraced");
  print_checks(u, "untraced");
  const RunResult t = run(make, a, /*traced=*/true, /*sample_setup=*/false);
  print_run(t, "traced");
  print_checks(t, "traced");

  std::map<std::string, double> v;
  for (const Metric& m : u.counts) v[m.name] = m.value;
  for (const auto& [name, value] : t.times) v[name] = value;
  const double ops = static_cast<double>(u.window_completions);
  v["sim.rate_drift"] = u.tenth_rate.back() / u.tenth_rate.front();
  v["sim.events_per_s"] = v["sim.events"] / u.wall_s;
  if (!t.times.count("shard.self_s"))
    v["sim.pending_max"] = static_cast<double>(u.pending_max);
  v["groups.retained_bytes_per_delivery"] = u.retained_bytes_per_delivery;
  v["util.allocs_per_op"] =
      ops > 0 ? static_cast<double>(u.allocs.allocs) / ops : 0;
  v["util.alloc_bytes_per_op"] =
      ops > 0 ? static_cast<double>(u.allocs.bytes) / ops : 0;
  v["obs.trace_overhead_frac"] = t.wall_s / u.wall_s - 1.0;
  v["ops.latency_samples"] = static_cast<double>(u.latency_samples);

  // Tracing must not change behaviour: same outcome, same counts.
  const bool same = t.checks.outcome_hash == u.checks.outcome_hash &&
                    t.attempted == u.attempted &&
                    t.completed_ok == u.completed_ok;
  std::printf("check[both] %-28s %s\n", "traced_run_same_outcome",
              same ? "ok" : "FAILED");

  Metrics m;
  for (const auto& [name, unit] : kLayerMetrics) {
    auto it = v.find(name);
    m.push_back({name, it != v.end() ? it->second : 0.0, unit});
  }
  const bool correct = u.checks.all_ok() && t.checks.all_ok() && same;
  print_json(correct, u.attempted, u.attempted - u.completed_ok, m);
  return correct ? 0 : 1;
}
