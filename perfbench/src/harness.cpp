#include "harness.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <new>

namespace perfbench {

// --- heap accounting -------------------------------------------------------
//
// Plain counters, not atomics: every workload runs on one thread (the
// sharded engine is configured with threads = 1 and starts no workers).

namespace {
std::uint64_t g_allocs = 0;
std::uint64_t g_alloc_bytes = 0;

void* counted_alloc(std::size_t n) noexcept {
  ++g_allocs;
  g_alloc_bytes += n;
  return std::malloc(n != 0 ? n : 1);
}

}  // namespace

AllocCounts alloc_counts() noexcept { return {g_allocs, g_alloc_bytes}; }

// --- host clocks -----------------------------------------------------------

double wall_now() noexcept {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::uint64_t peak_rss_bytes() noexcept {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;  // KiB on Linux
}

void release_free_heap() noexcept { malloc_trim(0); }

std::string hex64(std::uint64_t v) {
  static const char* kDigits = "0123456789abcdef";
  std::string s(16, '0');
  for (int i = 15; i >= 0; --i, v >>= 4)
    s[static_cast<std::size_t>(i)] = kDigits[v & 0xf];
  return s;
}

// --- latency ---------------------------------------------------------------

void LatencyLog::add(Duration us) {
  if (us > kCapUs) {
    us = kCapUs;
    ++clamped_;
  }
  ++counts_[static_cast<std::size_t>(us < 0 ? 0 : us)];
  ++n_;
}

double LatencyLog::percentile_ms(double q) const {
  if (n_ == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(
      q * static_cast<double>(n_ - 1) + 0.5);
  const std::uint64_t room = std::min(rank, n_ - 1 - rank) / 2;
  const std::uint64_t half =
      std::max<std::uint64_t>(1, std::min(n_ / 200, room));
  const std::uint64_t lo = rank > half ? rank - half : 0;
  const std::uint64_t hi = std::min(rank + half, n_ - 1);  // inclusive
  // Sum of sample values over ranks [lo, hi]: each microsecond bucket
  // covers ranks [seen, seen + count).
  double sum = 0;
  std::uint64_t seen = 0;
  for (std::size_t us = 0; us < counts_.size() && seen <= hi; ++us) {
    const std::uint64_t first = seen;
    const std::uint64_t last = seen + counts_[us];  // exclusive
    seen = last;
    const std::uint64_t a = std::max(first, lo);
    const std::uint64_t b = std::min(last, hi + 1);
    if (a < b) sum += static_cast<double>(b - a) * static_cast<double>(us);
  }
  return sum / static_cast<double>(hi - lo + 1) / 1000.0;
}

Duration timed_window(int seconds, double virtual_per_host_s,
                      Duration cycle) {
  const double tenths = static_cast<double>(seconds) * virtual_per_host_s *
                        1e6 / static_cast<double>(10 * cycle);
  const auto n = static_cast<Duration>(tenths + 0.5);
  return 10 * cycle * (n > 0 ? n : 1);
}

// --- profiler --------------------------------------------------------------

ProfSnap prof_snap(const coop::obs::Profiler& p) {
  ProfSnap s;
  for (std::size_t i = 0; i < p.site_count(); ++i) {
    const auto id = static_cast<coop::obs::Profiler::SiteId>(i);
    s.self_ns.push_back(p.self_ns_of(id));
    s.total_ns.push_back(p.total_ns_of(id));
  }
  s.step_ns = p.step_ns();
  return s;
}

// --- sessions --------------------------------------------------------------

Session::Session(bool traced) : obs_(std::make_unique<coop::obs::Obs>()) {
  obs_->profiler.set_enabled(traced);
  obs_->tracer.set_enabled(traced);
  if (traced) {
    // Head sampling keeps whole causal traces (the critical-path analyzer
    // needs every hop of a kept trace); kernel step events carry no
    // context and are thinned harder.
    coop::obs::SampleConfig sc;
    sc.set_all(0.02);
    sc.rate[static_cast<std::size_t>(coop::obs::Category::kSim)] = 0.001;
    obs_->tracer.set_sampling(sc);
  }
}

}  // namespace perfbench

// Global allocation functions: count every heap allocation the program
// makes, so allocations per op are an exact, repeatable figure.
// (Over-aligned new keeps the library's default; coop allocates none.)
void* operator new(std::size_t n) {
  if (void* p = perfbench::counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = perfbench::counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return perfbench::counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return perfbench::counted_alloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
