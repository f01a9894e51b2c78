// Shared machinery of the session benchmark: op accounting with exact
// virtual-time latency percentiles, host clocks, heap counters, profiler
// snapshots and the Session interface every workload implements.
//
// Host time (wall, CPU, RSS) and virtual time (sim::TimePoint, µs) are
// kept apart by type and by name: every virtual figure is a pure function
// of (workload, seed, seconds); every host figure is noisy.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "sim/time.hpp"

namespace perfbench {

using coop::sim::Duration;
using coop::sim::TimePoint;

// --- host measurements -----------------------------------------------------

/// Monotonic wall clock, seconds.
double wall_now() noexcept;
/// Process CPU time (user + sys), seconds.
double cpu_now() noexcept;
/// Process peak resident set (VmHWM), bytes.
std::uint64_t peak_rss_bytes() noexcept;
/// Returns freed heap pages to the OS, so RSS growth after this point is
/// growth of live state rather than reuse of an earlier session's pages.
void release_free_heap() noexcept;

/// Heap allocations made by this process (the operator new override in
/// harness.cpp).  Exact: the benchmark runs on one thread.
struct AllocCounts {
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;
};
AllocCounts alloc_counts() noexcept;

// --- hashing ---------------------------------------------------------------

inline void fnv_mix(std::uint64_t& h, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffULL;
    h *= 1099511628211ULL;
  }
}
inline constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;
std::string hex64(std::uint64_t v);

// --- metrics ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// Exact latency distribution over virtual microseconds: one counter per
/// microsecond, allocated and touched up front, so percentiles are exact
/// and the log's memory is fixed before any measurement starts (it does
/// not grow with the sample count or with the slowest op).
class LatencyLog {
 public:
  /// Largest latency kept exactly (about 2.1 s); longer samples are
  /// counted at the cap and reported by clamped().
  static constexpr Duration kCapUs = Duration{1} << 21;

  LatencyLog() : counts_(static_cast<std::size_t>(kCapUs) + 1, 0) {}
  void add(Duration us);
  [[nodiscard]] std::uint64_t count() const noexcept { return n_; }
  [[nodiscard]] std::uint64_t clamped() const noexcept { return clamped_; }
  /// Percentile in milliseconds, smoothed: the mean of the samples whose
  /// rank lies within h of r = round(q * (n - 1)), where h is 0.5% of n
  /// but at most half the distance from r to either end.  Nearest rank
  /// alone lands on the same whole microsecond for many seeds; the local
  /// mean does not, and it stays a pure function of the samples.
  [[nodiscard]] double percentile_ms(double q) const;

 private:
  std::vector<std::uint32_t> counts_;
  std::uint64_t n_ = 0;
  std::uint64_t clamped_ = 0;
};

/// Operation accounting shared by every workload.  An op is *counted*
/// when it is issued inside the measurement window; counted ops that
/// complete (before or during the drain) give the latency samples.
/// completions() counts every completion whenever it was issued — the
/// numerator of the host-time rate of a slice of the timed run.
class OpLog {
 public:
  void open() noexcept { open_ = true; }
  void close() noexcept { open_ = false; }
  [[nodiscard]] bool open_now() const noexcept { return open_; }

  /// Registers an issued op; returns whether it is counted.
  bool issue() noexcept {
    if (open_) ++attempted_;
    return open_;
  }
  /// Records a completed op and its virtual latency.
  void complete(bool counted, Duration latency) {
    ++completions_;
    if (!counted) return;
    ++completed_;
    latency_.add(latency);
  }
  /// Ops found wrong by an output check after completing.
  void discount(std::uint64_t n) noexcept { discounted_ += n; }
  void sample_pending(std::size_t pending) noexcept {
    if (pending > pending_max_) pending_max_ = pending;
  }

  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t completed_ok() const noexcept {
    return completed_ > discounted_ ? completed_ - discounted_ : 0;
  }
  [[nodiscard]] std::uint64_t completions() const noexcept {
    return completions_;
  }
  [[nodiscard]] std::size_t pending_max() const noexcept {
    return pending_max_;
  }
  [[nodiscard]] const LatencyLog& latency() const noexcept { return latency_; }

 private:
  bool open_ = false;
  std::uint64_t attempted_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t completions_ = 0;
  std::uint64_t discounted_ = 0;
  std::size_t pending_max_ = 0;
  LatencyLog latency_;
};

/// Outcome of a workload's output checks.
struct CheckReport {
  struct Item {
    std::string name;
    bool ok = true;
    std::string detail;
  };
  std::vector<Item> items;
  std::uint64_t outcome_hash = kFnvBasis;

  void add(std::string name, bool ok, std::string detail = {}) {
    items.push_back({std::move(name), ok, std::move(detail)});
  }
  [[nodiscard]] bool all_ok() const {
    for (const Item& i : items)
      if (!i.ok) return false;
    return true;
  }
};

// --- profiler sites --------------------------------------------------------

/// Per-site profiler totals at one instant; the window's figures are the
/// difference of two snapshots (set-up work is excluded that way).
struct ProfSnap {
  std::vector<std::uint64_t> self_ns;
  std::vector<std::uint64_t> total_ns;
  std::uint64_t step_ns = 0;
};
ProfSnap prof_snap(const coop::obs::Profiler& p);

// --- workloads -------------------------------------------------------------

/// Virtual length of a timed run: @p seconds host seconds at
/// @p virtual_per_host_s, rounded to a whole number (at least one) of ten
/// @p cycle periods, so every tenth of the run holds the same number of
/// the workload's periodic cycles (digest flushes, tick rounds).
Duration timed_window(int seconds, double virtual_per_host_s, Duration cycle);

/// One cooperative session, built by the constructor (the set-up) and
/// driven by the harness.  Every call the benchmark makes into a layer is
/// wrapped in a benchmark-owned profiler site ("bench.<layer>.<call>"),
/// so in a traced run the program's own sites nest under them.
class Session {
 public:
  virtual ~Session() = default;

  /// Runs the session to steady state (part of the set-up).
  virtual void warm_up() = 0;
  /// Current virtual time of the session's kernel.
  [[nodiscard]] virtual TimePoint now() const = 0;
  /// Runs the kernel to @p t.
  virtual void run_until(TimePoint t) = 0;
  /// Virtual length of the timed run for a host budget of @p seconds.
  [[nodiscard]] virtual Duration window(int seconds) const = 0;
  /// Snapshots layer counters and opens the measurement window.
  virtual void begin_window() = 0;
  /// Closes the window and stops the generators (no new ops).
  virtual void end_window() = 0;
  /// Completes every op still in flight.
  virtual void drain() = 0;
  /// Output checks; discounts wrong ops from ops().
  virtual void check(CheckReport& out) = 0;
  /// Per-layer counts over the window (units included).
  virtual void layer_counts(Metrics& out) = 0;
  /// Deliveries of the group layer in the window (retained-bytes base).
  [[nodiscard]] virtual std::uint64_t group_deliveries() const { return 0; }
  /// The kernel's pending-event count (sampled at tenth boundaries).
  [[nodiscard]] virtual std::size_t pending() const = 0;
  /// True when the kernel is the sharded engine.
  [[nodiscard]] virtual bool sharded() const { return false; }

  [[nodiscard]] coop::obs::Obs& obs() noexcept { return *obs_; }
  [[nodiscard]] OpLog& ops() noexcept { return ops_; }

 protected:
  /// Configures the observability context before any layer is built:
  /// the untraced run records nothing; the traced run enables the
  /// profiler (so Platform wires the kernel step timer) and head-sampled
  /// causal tracing.
  explicit Session(bool traced);

  std::unique_ptr<coop::obs::Obs> obs_;
  OpLog ops_;
};

using SessionFactory = std::unique_ptr<Session> (*)(std::uint64_t seed,
                                                    bool traced);

std::unique_ptr<Session> make_conference(std::uint64_t seed, bool traced);
std::unique_ptr<Session> make_coauthoring(std::uint64_t seed, bool traced);
std::unique_ptr<Session> make_crowd(std::uint64_t seed, bool traced);
std::unique_ptr<Session> make_matrix(std::uint64_t seed, bool traced);

}  // namespace perfbench
