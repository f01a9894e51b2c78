// sim::CalendarQueue — the shard-local pending-event set.
//
// The serial kernel's 4-ary heap pays O(log n) per push/pop against the
// *whole* pending set; at a million simulated participants that is ~20
// levels of cache-cold sifting per event.  A calendar queue exploits what
// the heap ignores: event timestamps are clustered a bounded distance
// ahead of the clock (timer cadences, link latencies), so hashing an event
// by time into a ring of bucket "days" makes the common insert an O(1)
// append and confines ordering work to one bucket at a time.
//
// Layout: a power-of-two ring of unsorted buckets, each `bucket_width`
// wide; the bucket the clock currently occupies is kept as a small 4-ary
// min-heap (pop = heap pop, same-bucket insert = heap push); events beyond
// one ring revolution sit in an overflow min-heap and are pulled forward a
// bucket at a time as the cursor advances.  Pop order is the strict
// (when, seq) total order — identical to the serial kernel's heap, and
// independent of bucket geometry — so artifacts never depend on tuning.
//
// Storage: a bucket is a singly linked list of fixed-size chunks
// (kChunkEntries entries each) drawn from one per-queue pool with a free
// list.  Inserts append to the bucket's head chunk; draining a bucket
// copies its chunks into the cursor heap and returns them to the pool.
// Entry storage is therefore bounded by the peak number of pending
// entries plus one partial chunk per occupied bucket, whatever the run
// length, and a warm queue never allocates.  Per-bucket vectors would not
// be bounded: timer cadences that do not divide the ring span drift their
// clusters across every bucket, and each bucket's capacity would ratchet
// up to the largest cluster (DESIGN.md §17).
//
// The ring doubles (up to kMaxBuckets) when occupancy crosses
// kGrowOccupancy, which keeps per-bucket heaps small under load; resizing
// is a function of queue content only, so runs stay deterministic.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace coop::sim {

/// Queue entry: POD ordering data plus the callable-slot index, same shape
/// as the serial kernel's heap entry.
struct CalEntry {
  TimePoint when;
  std::uint64_t seq;   // unique, monotone; breaks timestamp ties FIFO
  std::uint32_t slot;  // owner's callable slot table index
};

class CalendarQueue {
 public:
  explicit CalendarQueue(Duration bucket_width = usec(256),
                         std::size_t buckets = 64)
      : width_(bucket_width > 0 ? bucket_width : 1) {
    std::size_t n = 8;
    while (n < buckets && n < kMaxBuckets) n <<= 1;
    head_.assign(n, kNil);
    occupied_.resize(words_for(n), 0);
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// Strict total order (seq is unique).
  static bool before(const CalEntry& a, const CalEntry& b) noexcept {
    return a.when != b.when ? a.when < b.when : a.seq < b.seq;
  }

  void push(const CalEntry& e) {
    assert(e.when >= 0);
    if (size_ == 0) rebase(e.when);  // keep the ring mapping tight
    place(e);
    ++size_;
    if (size_ > head_.size() * kGrowOccupancy && head_.size() < kMaxBuckets)
      grow();
  }

  /// Copies the minimum entry into @p out without removing it.  Returns
  /// false when empty.  May advance the internal cursor over drained
  /// buckets (structural, not logical, mutation).
  bool peek(CalEntry& out) {
    if (size_ == 0) return false;
    settle();
    out = cur_[0];
    return true;
  }

  /// Removes the minimum entry (queue must be non-empty).
  void pop() {
    assert(size_ > 0);
    settle();
    heap_pop(cur_);
    --size_;
  }

  /// Visits every queued entry in unspecified order (liveness-window
  /// compaction scans).
  template <typename F>
  void for_each(F&& f) const {
    for (const CalEntry& e : cur_) f(e);
    for (std::uint32_t head : head_)
      for (std::uint32_t c = head; c != kNil; c = pool_[c].next)
        for (std::uint32_t i = 0; i < pool_[c].count; ++i) f(pool_[c].e[i]);
    for (const CalEntry& e : over_) f(e);
  }

  /// Ring geometry and storage (test/diagnostic hooks).
  [[nodiscard]] std::size_t bucket_count() const noexcept {
    return head_.size();
  }
  [[nodiscard]] Duration bucket_width() const noexcept { return width_; }
  /// Entries the queue has room for without allocating: the chunk pool
  /// plus the cursor and overflow heaps' capacities.
  [[nodiscard]] std::size_t reserved_entries() const noexcept {
    return pool_.capacity() * kChunkEntries + cur_.capacity() +
           over_.capacity();
  }

  /// Entries per chunk; 16 measured lowest in memory and level in CPU
  /// against 8 and 32 on the matrix workload (DESIGN.md §17).
  static constexpr std::size_t kChunkEntries = 16;

 private:
  static constexpr std::size_t kMaxBuckets = std::size_t{1} << 16;
  static constexpr std::size_t kGrowOccupancy = 8;
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  /// A run of up to kChunkEntries entries of one bucket, linked to the
  /// bucket's older chunks (or, when free, to the next free chunk).
  struct Chunk {
    std::uint32_t next = kNil;
    std::uint32_t count = 0;
    CalEntry e[kChunkEntries];
  };

  static std::size_t words_for(std::size_t buckets) noexcept {
    return (buckets + 63) >> 6;
  }

  // 4-ary min-heap primitives over a vector (same sift shape as the
  // serial kernel; small heaps, so the depth is typically 1-3 levels).
  static void heap_push(std::vector<CalEntry>& h, const CalEntry& e) {
    std::size_t i = h.size();
    h.push_back(e);
    while (i > 0) {
      const std::size_t parent = (i - 1) >> 2;
      if (!before(e, h[parent])) break;
      h[i] = h[parent];
      i = parent;
    }
    h[i] = e;
  }

  static void heap_pop(std::vector<CalEntry>& h) {
    const CalEntry last = h.back();
    h.pop_back();
    const std::size_t n = h.size();
    if (n == 0) return;
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = (i << 2) + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t end = first + 4 < n ? first + 4 : n;
      for (std::size_t c = first + 1; c < end; ++c)
        if (before(h[c], h[best])) best = c;
      if (!before(h[best], last)) break;
      h[i] = h[best];
      i = best;
    }
    h[i] = last;
  }

  static void heapify(std::vector<CalEntry>& h) {
    if (h.size() < 2) return;
    for (std::size_t i = (h.size() - 2) >> 2; i + 1 > 0; --i) {
      const CalEntry e = h[i];
      std::size_t j = i;
      const std::size_t n = h.size();
      for (;;) {
        const std::size_t first = (j << 2) + 1;
        if (first >= n) break;
        std::size_t best = first;
        const std::size_t end = first + 4 < n ? first + 4 : n;
        for (std::size_t c = first + 1; c < end; ++c)
          if (before(h[c], h[best])) best = c;
        if (!before(h[best], e)) break;
        h[j] = h[best];
        j = best;
      }
      h[j] = e;
    }
  }

  [[nodiscard]] TimePoint horizon() const noexcept {
    // End of the ring's representable window; everything at or beyond
    // waits in the overflow heap.  Saturating: near kTimeMax the ring
    // simply never admits far-future entries.
    const auto span = static_cast<std::uint64_t>(width_) * head_.size();
    const auto limit = static_cast<std::uint64_t>(kTimeMax - cur_start_);
    return span >= limit ? kTimeMax : cur_start_ + static_cast<TimePoint>(span);
  }

  void mark_occupied(std::size_t b) noexcept {
    occupied_[b >> 6] |= std::uint64_t{1} << (b & 63);
  }
  void mark_empty(std::size_t b) noexcept {
    occupied_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
  }

  /// Files @p e into the current heap, a ring bucket, or overflow.
  /// Entries before the cursor's bucket (a rewind after the cursor
  /// hunted ahead, e.g. a barrier insert below a drained region) join
  /// the current heap, which keeps pop order exact.  When the window
  /// saturates at kTimeMax ("never" sentinels from the saturating
  /// schedule_after) the terminal bucket's range extends to the end of
  /// time, so nothing can be stranded in overflow.
  void place(const CalEntry& e) {
    const TimePoint h = horizon();
    if (h != kTimeMax && e.when >= h) {
      heap_push(over_, e);
      return;
    }
    const TimePoint cur_end = saturating_after(cur_start_, width_);
    if (e.when < cur_end || cur_end == kTimeMax) {
      heap_push(cur_, e);
      return;
    }
    auto j = static_cast<std::size_t>(
        (e.when - cur_start_) / width_);           // 1 <= j
    if (j >= head_.size()) j = head_.size() - 1;   // saturated window only
    const std::size_t b = (cursor_ + j) & (head_.size() - 1);
    std::uint32_t c = head_[b];
    if (c == kNil || pool_[c].count == kChunkEntries) {
      const std::uint32_t fresh = take_chunk();  // may move pool_
      pool_[fresh].next = c;
      head_[b] = c = fresh;
      mark_occupied(b);
    }
    Chunk& k = pool_[c];
    k.e[k.count++] = e;
  }

  /// Pops a chunk off the free list, extending the pool when it is empty.
  std::uint32_t take_chunk() {
    if (free_ == kNil) {
      pool_.emplace_back();
      return static_cast<std::uint32_t>(pool_.size() - 1);
    }
    const std::uint32_t c = free_;
    free_ = pool_[c].next;
    pool_[c].count = 0;
    return c;
  }

  void give_chunk(std::uint32_t c) noexcept {
    pool_[c].next = free_;
    free_ = c;
  }

  /// Ensures the minimum entry sits at cur_[0]: advances the cursor over
  /// empty buckets, pulls overflow entries that fell inside the window,
  /// and heapifies the bucket it lands on.  Pre: size_ > 0.
  void settle() {
    while (cur_.empty()) {
      if (ring_is_empty()) {
        // Everything pending is in overflow: jump the window there
        // instead of stepping one bucket at a time.
        assert(!over_.empty());
        rebase(over_[0].when);
        drain_overflow();
        continue;  // cur_ may still be empty if rebasing landed oddly
      }
      // Step to the next occupied bucket (bitmap scan, then move that
      // bucket's entries into the current heap).
      const std::size_t steps = next_occupied_distance();
      cursor_ = (cursor_ + steps) & (head_.size() - 1);
      cur_start_ += static_cast<TimePoint>(steps) * width_;
      for (std::uint32_t c = head_[cursor_]; c != kNil;) {
        const Chunk& k = pool_[c];
        cur_.insert(cur_.end(), k.e, k.e + k.count);
        const std::uint32_t next = k.next;
        give_chunk(c);
        c = next;
      }
      head_[cursor_] = kNil;
      mark_empty(cursor_);
      heapify(cur_);
      drain_overflow();  // window advanced: pull newly eligible entries
    }
  }

  /// Moves overflow entries now inside the ring window to their buckets.
  void drain_overflow() {
    while (!over_.empty()) {
      const TimePoint h = horizon();
      if (over_[0].when >= h && h != kTimeMax) break;
      const CalEntry e = over_[0];
      heap_pop(over_);
      place(e);  // cannot bounce back: the overflow test above excludes it
    }
  }

  [[nodiscard]] bool ring_is_empty() const noexcept {
    for (const std::uint64_t w : occupied_)
      if (w != 0) return false;
    return true;
  }

  /// Distance (in buckets, >= 1) from the cursor to the next occupied
  /// bucket.  Pre: some ring bucket is occupied.
  [[nodiscard]] std::size_t next_occupied_distance() const noexcept {
    const std::size_t n = head_.size();
    for (std::size_t d = 1; d <= n; ++d) {
      const std::size_t b = (cursor_ + d) & (n - 1);
      if (occupied_[b >> 6] >> (b & 63) & 1) return d;
    }
    assert(false && "ring_is_empty() said otherwise");
    return 1;
  }

  /// Re-anchors the window so @p t falls in the cursor bucket.  Only
  /// valid when the ring and current heap are empty.
  void rebase(TimePoint t) {
    cursor_ = 0;
    cur_start_ = t - (t % width_);
  }

  /// Doubles the ring and re-files everything (amortized by the growth
  /// threshold; deterministic — depends only on queue content).
  void grow() {
    std::vector<CalEntry> all;
    all.reserve(size_);
    for_each([&all](const CalEntry& e) { all.push_back(e); });
    const std::size_t n = head_.size() << 1;
    head_.assign(n, kNil);
    occupied_.assign(words_for(n), 0);
    free_ = kNil;
    for (std::size_t c = pool_.size(); c-- > 0;)
      give_chunk(static_cast<std::uint32_t>(c));
    cur_.clear();
    over_.clear();
    TimePoint anchor = all.front().when;
    for (const CalEntry& e : all) anchor = e.when < anchor ? e.when : anchor;
    rebase(anchor);
    for (const CalEntry& e : all) place(e);
  }

  Duration width_;
  std::vector<std::uint32_t> head_;      // per bucket: newest chunk or kNil
  std::vector<std::uint64_t> occupied_;  // one bit per ring bucket
  std::vector<Chunk> pool_;              // every bucket's chunks
  std::uint32_t free_ = kNil;            // free-list head in pool_
  std::vector<CalEntry> cur_;            // 4-ary heap: cursor bucket
  std::vector<CalEntry> over_;           // 4-ary heap: beyond horizon
  std::size_t cursor_ = 0;
  TimePoint cur_start_ = 0;
  std::size_t size_ = 0;
};

}  // namespace coop::sim
