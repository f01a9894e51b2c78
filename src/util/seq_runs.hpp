// Run-length set of 64-bit sequence numbers.
//
// Receivers dedupe by remembering every (sender, seq) they have seen.
// Per-sender sequence numbers are dense — each sender counts 1, 2, 3, ... —
// so the seen set is almost always one contiguous interval with, at most, a
// few holes left by loss or expiry.  SeqRuns stores it as disjoint, non-
// adjacent closed runs [lo, hi] in a sorted flat vector: memory is O(gaps)
// instead of one tree node per value, and the in-order insert (extend the
// last run) allocates nothing.  count()/insert() answer exactly as
// std::set<std::uint64_t> would.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

namespace coop::util {

class SeqRuns {
 public:
  /// 1 if @p v is in the set, else 0 (std::set::count).
  [[nodiscard]] std::size_t count(std::uint64_t v) const noexcept {
    return find(v) != runs_.end() ? 1 : 0;
  }

  /// Adds @p v; returns true if it was not already present
  /// (std::set::insert(v).second).
  bool insert(std::uint64_t v) {
    // Fast path: at or beyond the last run — the in-order steady state.
    if (!runs_.empty() && v >= runs_.back().lo) {
      Run& last = runs_.back();
      if (v <= last.hi) return false;
      if (v - last.hi == 1) {
        last.hi = v;
      } else {
        runs_.push_back({v, v});
      }
      return true;
    }
    // First run that ends at or after v; every run before it ends below v.
    const auto next =
        std::lower_bound(runs_.begin(), runs_.end(), v, ends_before);
    if (next != runs_.end() && next->lo <= v) return false;
    // Neither neighbour holds v, so prev->hi < v < next->lo: the +1
    // adjacency tests below cannot overflow.
    const bool joins_prev =
        next != runs_.begin() && std::prev(next)->hi + 1 == v;
    const bool joins_next = next != runs_.end() && v + 1 == next->lo;
    if (joins_prev && joins_next) {
      std::prev(next)->hi = next->hi;
      runs_.erase(next);
    } else if (joins_prev) {
      std::prev(next)->hi = v;
    } else if (joins_next) {
      next->lo = v;
    } else {
      runs_.insert(next, {v, v});
    }
    return true;
  }

  /// The first value at or after @p v that is absent — what
  /// `while (count(v)) ++v;` computes, one run per step instead of one
  /// value (and wrapping past UINT64_MAX exactly as ++ would).
  [[nodiscard]] std::uint64_t next_absent(std::uint64_t v) const noexcept {
    for (auto it = find(v); it != runs_.end(); it = find(v)) v = it->hi + 1;
    return v;
  }

  /// Number of disjoint runs: 1 for a gap-free set, 0 when empty.
  [[nodiscard]] std::size_t runs() const noexcept { return runs_.size(); }

 private:
  struct Run {
    std::uint64_t lo;
    std::uint64_t hi;
  };

  static bool ends_before(const Run& r, std::uint64_t v) noexcept {
    return r.hi < v;
  }

  /// The run holding @p v, or end().
  [[nodiscard]] std::vector<Run>::const_iterator find(
      std::uint64_t v) const noexcept {
    const auto it =
        std::lower_bound(runs_.begin(), runs_.end(), v, ends_before);
    return it != runs_.end() && it->lo <= v ? it : runs_.end();
  }

  std::vector<Run> runs_;  ///< sorted, disjoint, never adjacent
};

}  // namespace coop::util
