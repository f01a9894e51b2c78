// Tests for the hot-message-path memory model: SmallFn inline storage,
// BlockPool recycling, shared Buf payloads, the Writer/Reader length-cap
// fixes, the Address hash spread, delivery coalescing, and the
// zero-allocation steady-state guarantee.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <set>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "sim/small_fn.hpp"
#include "util/buf.hpp"
#include "util/codec.hpp"
#include "util/pool.hpp"

// --- allocation counting hook ----------------------------------------------
//
// Replaces the global operator new/delete for this test binary with a
// counting wrapper over malloc/free.  The zero-allocation test below uses
// the counter to prove the steady-state unicast path never touches the
// heap.  Compiled out under AddressSanitizer (which must own operator new
// to poison allocations); the dependent test skips itself there.
#if defined(__SANITIZE_ADDRESS__)
#define COOP_COUNT_ALLOCS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define COOP_COUNT_ALLOCS 0
#else
#define COOP_COUNT_ALLOCS 1
#endif
#else
#define COOP_COUNT_ALLOCS 1
#endif

namespace {
// Relaxed atomic: operator new also runs on other threads (the sharded
// kernel's workers), and only the count matters, not any ordering.
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

#if COOP_COUNT_ALLOCS
namespace {
void count_alloc() { g_alloc_count.fetch_add(1, std::memory_order_relaxed); }
void* counted_alloc(std::size_t n) {
  count_alloc();
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  count_alloc();
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  count_alloc();
  return std::malloc(n ? n : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#endif  // COOP_COUNT_ALLOCS

namespace coop {
namespace {

// --- SmallFn ---------------------------------------------------------------

TEST(SmallFnTest, EmptyIsFalsy) {
  sim::SmallFn fn;
  EXPECT_FALSE(static_cast<bool>(fn));
  sim::SmallFn null_fn(nullptr);
  EXPECT_FALSE(static_cast<bool>(null_fn));
}

TEST(SmallFnTest, CaptureAtInlineThresholdStaysInline) {
  // 48 bytes of capture: exactly kInlineBytes.
  struct Pad {
    char bytes[sim::SmallFn::kInlineBytes] = {};
  };
  static_assert(sizeof(Pad) == sim::SmallFn::kInlineBytes);
  int hits = 0;
  int* hp = &hits;
  Pad pad;
  pad.bytes[0] = 7;
  sim::SmallFn fn([pad, hp] { *hp += pad.bytes[0]; });
  // {Pad, int*} exceeds the threshold; {Pad} alone would not.  Verify the
  // exact boundary with two separate callables instead:
  sim::SmallFn at_limit([pad] { (void)pad.bytes[0]; });
  EXPECT_TRUE(at_limit.inline_stored());
  EXPECT_FALSE(fn.inline_stored());  // 48 + 8 bytes: spilled
  fn();
  EXPECT_EQ(hits, 7);
}

TEST(SmallFnTest, SmallCaptureIsInlineAndInvokes) {
  int hits = 0;
  sim::SmallFn fn([&hits] { ++hits; });
  EXPECT_TRUE(fn.inline_stored());
  fn();
  fn();
  EXPECT_EQ(hits, 2);
}

TEST(SmallFnTest, OversizedCaptureSpillsAndStillWorks) {
  struct Big {
    char bytes[96] = {};
  };
  Big big;
  big.bytes[95] = 42;
  int got = 0;
  int* gp = &got;
  sim::SmallFn fn([big, gp] { *gp = big.bytes[95]; });
  EXPECT_FALSE(fn.inline_stored());
  fn();
  EXPECT_EQ(got, 42);
}

TEST(SmallFnTest, MoveTransfersOwnership) {
  int hits = 0;
  sim::SmallFn a([&hits] { ++hits; });
  sim::SmallFn b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(hits, 1);

  sim::SmallFn c;
  c = std::move(b);
  c();
  EXPECT_EQ(hits, 2);
}

TEST(SmallFnTest, ResetDestroysCapture) {
  auto token = std::make_shared<int>(5);
  std::weak_ptr<int> watch = token;
  sim::SmallFn fn([token] { (void)*token; });
  token.reset();
  EXPECT_FALSE(watch.expired());  // capture keeps it alive
  fn.reset();
  EXPECT_TRUE(watch.expired());
  EXPECT_FALSE(static_cast<bool>(fn));
}

TEST(SmallFnTest, CancelledEventNeverRunsAndReleasesItsCapture) {
  // A cancelled event must not fire, cancel() must succeed exactly once,
  // and the callable's captures must be destroyed no later than lazy
  // queue cleanup (when the dead entry is popped past).
  sim::Simulator sim;
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> watch = token;
  const sim::EventId id =
      sim.schedule_after(sim::msec(5), [token] { (void)*token; });
  token.reset();
  EXPECT_FALSE(watch.expired());
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));  // second cancel is a clean no-op
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.run(), 0u);      // the dead entry is skipped, not fired
  EXPECT_TRUE(watch.expired());  // queue drain reclaimed the capture
}

TEST(SmallFnTest, KernelRecyclesSlotsAcrossEvents) {
  // Steady-state schedule/fire cycles reuse callable slots; this is a
  // behavioural smoke test that recycling preserves per-event identity.
  sim::Simulator sim;
  std::vector<int> order;
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 4; ++i) {
      sim.schedule_after(sim::usec(round * 10 + i),
                         [&order, round, i] { order.push_back(round * 4 + i); });
    }
  }
  sim.run();
  ASSERT_EQ(order.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

// --- BlockPool -------------------------------------------------------------

TEST(BlockPoolTest, RecyclesSameClassBlocks) {
  void* a = util::BlockPool::alloc(100);
  util::BlockPool::free(a, 100);
  void* b = util::BlockPool::alloc(128);  // same 128-byte class
  EXPECT_EQ(a, b);
  util::BlockPool::free(b, 128);
}

TEST(BlockPoolTest, ClassCapacityCoversRequest) {
  EXPECT_GE(util::BlockPool::class_capacity(1), std::size_t{1});
  EXPECT_GE(util::BlockPool::class_capacity(100), std::size_t{100});
  EXPECT_GE(util::BlockPool::class_capacity(65536), std::size_t{65536});
}

// --- Buf sharing -----------------------------------------------------------

TEST(BufTest, CopyShareStorageByRefcount) {
  util::Buf a("shared payload bytes");
  EXPECT_EQ(a.refs(), 1u);
  util::Buf b = a;
  util::Buf c = b;
  EXPECT_EQ(a.refs(), 3u);
  EXPECT_EQ(a.data(), b.data());  // same storage, no copy
  EXPECT_EQ(b.data(), c.data());
  c = {};
  EXPECT_EQ(a.refs(), 2u);
}

TEST(BufTest, MutateByteClonesWhenShared) {
  util::Buf a("immutable");
  util::Buf b = a;
  b.mutate_byte(0, 0xff);
  // The mutation must not leak into the sibling: b cloned first.
  EXPECT_EQ(a, "immutable");
  EXPECT_NE(b[0], 'i');
  EXPECT_NE(a.data(), b.data());
  EXPECT_EQ(a.refs(), 1u);
  EXPECT_EQ(b.refs(), 1u);
}

TEST(BufTest, MutateByteInPlaceWhenExclusive) {
  util::Buf a("x");
  const char* before = a.data();
  a.mutate_byte(0, 0x01);
  EXPECT_EQ(a.data(), before);  // sole owner: no clone
  EXPECT_EQ(a[0], 'x' ^ 0x01);
}

TEST(BufTest, MulticastFanOutSharesOnePayload) {
  // A multicast send() copies the Message per member; all copies must
  // alias one payload allocation.
  sim::Simulator sim{1};
  net::Network net{sim};
  struct Sink : net::Endpoint {
    std::vector<net::Message> got;
    void on_message(const net::Message& m) override { got.push_back(m); }
  };
  Sink sinks[3];
  for (std::uint32_t i = 0; i < 3; ++i)
    net.mcast_join(50, net::Address{i + 2, 1});
  for (std::uint32_t i = 0; i < 3; ++i)
    net.attach(net::Address{i + 2, 1}, sinks[i]);
  net.multicast(50, {.src = {1, 1}, .payload = "fan-out-payload"});
  sim.run();
  ASSERT_EQ(sinks[0].got.size(), 1u);
  ASSERT_EQ(sinks[1].got.size(), 1u);
  ASSERT_EQ(sinks[2].got.size(), 1u);
  // All three deliveries share storage (refs counts the sink-held copies).
  EXPECT_EQ(sinks[0].got[0].payload.data(), sinks[1].got[0].payload.data());
  EXPECT_EQ(sinks[1].got[0].payload.data(), sinks[2].got[0].payload.data());
  EXPECT_EQ(sinks[0].got[0].payload.refs(), 3u);
}

// --- Writer/Reader bounds --------------------------------------------------

TEST(CodecBoundsTest, WriterTakeBufIsZeroCopyAndExclusive) {
  util::Writer w;
  w.put<std::uint32_t>(7).put_string("abc");
  util::Buf b = w.take_buf();
  EXPECT_EQ(b.refs(), 1u);
  util::Reader r(b);
  EXPECT_EQ(r.get<std::uint32_t>(), 7u);
  EXPECT_EQ(r.get_string(), "abc");
  EXPECT_TRUE(r.exhausted());
}

TEST(CodecBoundsTest, OversizedStringSetsStickyFailure) {
  // A string_view longer than the 32-bit wire length cap must never be
  // written (its u32 prefix would silently truncate).  The view is
  // fabricated — length checked before any byte is dereferenced.
  const char byte = 'x';
  const std::string_view oversized(&byte,
                                   util::Writer::kMaxLength + std::size_t{7});
#ifdef NDEBUG
  util::Writer w;
  w.put<std::uint8_t>(1);
  w.put_string(oversized);
  EXPECT_TRUE(w.failed());
  w.put<std::uint32_t>(42);  // dropped: failure is sticky
  EXPECT_TRUE(w.take_buf().empty());
#else
  EXPECT_DEATH(
      {
        util::Writer w;
        w.put_string(oversized);
      },
      "exceeds the 32-bit wire cap");
#endif
}

TEST(CodecBoundsTest, OversizedVectorSetsStickyFailure) {
#ifdef NDEBUG
  // put_vector length-checks the element count, same cap as strings.
  // (Cannot materialize >4G elements; exercise via put_bytes' shared
  // check_length path with a fabricated blob is impossible for vectors,
  // so verify the cap constant wiring instead.)
  EXPECT_EQ(util::Writer::kMaxLength, 0xffffffffu);
#else
  GTEST_SKIP() << "covered by the death test above in debug builds";
#endif
}

TEST(CodecBoundsTest, ReaderGetVectorRejectsOverflowingLength) {
  // Craft a frame whose element count times sizeof(T) would overflow an
  // additive bound check: len = 2^29, T = u64 -> len*8 = 2^32.
  util::Writer w;
  w.put<std::uint32_t>(1u << 29);
  const std::string frame = w.take();
  util::Reader r(frame);
  const std::vector<std::uint64_t> v = r.get_vector<std::uint64_t>();
  EXPECT_TRUE(r.failed());
  EXPECT_TRUE(v.empty());
}

TEST(CodecBoundsTest, ReaderGetVectorAcceptsExactFit) {
  util::Writer w;
  w.put_vector(std::vector<std::uint64_t>{1, 2, 3});
  const std::string frame = w.take();
  util::Reader r(frame);
  const std::vector<std::uint64_t> v = r.get_vector<std::uint64_t>();
  EXPECT_FALSE(r.failed());
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[2], 3u);
}

// --- Address hash spread ---------------------------------------------------

TEST(AddressHashTest, DenseIdsSpreadAcrossLowBits) {
  // Experiments allocate node ids densely from 0 with a handful of ports;
  // the hash must spread them across the low bits an unordered_map
  // actually uses.  The old (node<<16)^port kept sequential nodes in
  // sequential buckets.
  constexpr std::size_t kBuckets = 2048;
  std::set<std::size_t> hashes;
  std::set<std::size_t> buckets;
  const std::hash<net::Address> h;
  for (std::uint32_t node = 0; node < 200; ++node) {
    for (std::uint16_t port = 1; port <= 50; ++port) {
      const std::size_t v = h(net::Address{node, port});
      hashes.insert(v);
      buckets.insert(v & (kBuckets - 1));
    }
  }
  EXPECT_EQ(hashes.size(), 200u * 50u);  // no full collisions at all
  // 10000 keys into 2048 buckets: expect near-full occupancy (the old
  // hash filled well under half).
  EXPECT_GT(buckets.size(), kBuckets * 9 / 10);
}

// --- link-state bookkeeping ------------------------------------------------

TEST(LinkStateTest, PartitionDropCreatesNoLinkState) {
  sim::Simulator sim{1};
  net::Network net{sim};
  struct Sink : net::Endpoint {
    void on_message(const net::Message&) override {}
  } sink;
  net.attach({2, 1}, sink);
  net.partition({1}, {2});
  net.send({.src = {1, 1}, .dst = {2, 1}, .payload = "blocked"});
  sim.run();
  // The datagram never reached the link: no per-link counters may
  // materialize for it.
  EXPECT_EQ(net.link_state(1, 2), nullptr);
  EXPECT_EQ(net.stats().dropped_partition, 1u);
}

TEST(LinkStateTest, LossDropStillCountsOnTheLink) {
  sim::Simulator sim{1};
  net::Network net{sim};
  struct Sink : net::Endpoint {
    void on_message(const net::Message&) override {}
  } sink;
  net.attach({2, 1}, sink);
  net.set_link(1, 2, {.latency = sim::msec(1), .jitter = 0,
                      .bandwidth_bps = 0, .loss = 1.0});
  net.send({.src = {1, 1}, .dst = {2, 1}, .payload = "lost"});
  sim.run();
  const net::LinkState* ls = net.link_state(1, 2);
  ASSERT_NE(ls, nullptr);  // loss happens *on* the link
  EXPECT_EQ(ls->dropped, 1u);
}

// --- delivery coalescing ---------------------------------------------------

TEST(CoalescingTest, PreservesPerLinkOrderAndCountsBatches) {
  struct Sink : net::Endpoint {
    std::vector<std::string> got;
    void on_message(const net::Message& m) override {
      got.push_back(m.payload.str());
    }
  };
  auto run_once = [](bool coalesce, Sink& sink, std::uint64_t* coalesced) {
    sim::Simulator sim{7};
    net::Network net{sim};
    net.set_delivery_coalescing(coalesce);
    net.set_default_link({.latency = sim::msec(1), .jitter = 0,
                          .bandwidth_bps = 0, .loss = 0});
    net.attach({2, 1}, sink);
    for (int i = 0; i < 8; ++i) {
      net.send({.src = {1, 1},
                .dst = {2, 1},
                .payload = "m" + std::to_string(i)});
    }
    sim.run();
    if (coalesced != nullptr) *coalesced = net.coalesced_deliveries();
  };
  Sink plain;
  Sink batched;
  std::uint64_t coalesced = 0;
  run_once(false, plain, nullptr);
  run_once(true, batched, &coalesced);
  ASSERT_EQ(plain.got.size(), 8u);
  EXPECT_EQ(plain.got, batched.got);  // identical per-link delivery order
  EXPECT_GT(coalesced, 0u);  // same-instant datagrams shared kernel events
}

// --- zero-allocation steady state ------------------------------------------

TEST(ZeroAllocTest, SteadyStateUnicastPathDoesNotTouchTheHeap) {
#if !COOP_COUNT_ALLOCS
  GTEST_SKIP() << "allocation counting disabled under AddressSanitizer";
#else
  sim::Simulator sim{3};
  net::Network net{sim};
  struct Sink : net::Endpoint {
    std::uint64_t count = 0;
    void on_message(const net::Message&) override { ++count; }
  } sink;
  net.attach({2, 1}, sink);
  net.set_default_link({.latency = sim::msec(1), .jitter = 0,
                        .bandwidth_bps = 0, .loss = 0});
  // One payload allocated up front; every send shares it by refcount.
  const util::Buf payload("steady-state unicast datagram payload");

  // Warm-up: grow the event heap, live map, slot pools, tracer ring and
  // BlockPool freelists to steady-state capacity.  128 sends at 1 ms
  // apiece also cross a 100 ms timeseries window edge, so the window
  // archive's first chunk reservation lands here, not in the timed loop.
  for (int i = 0; i < 128; ++i) {
    net.send({.src = {1, 1}, .dst = {2, 1}, .payload = payload});
    sim.run();
  }

  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int i = 0; i < 256; ++i) {
    net.send({.src = {1, 1}, .dst = {2, 1}, .payload = payload});
    sim.run();
  }
  const std::uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(allocs, 0u) << "steady-state unicast performed " << allocs
                        << " heap allocations across 256 deliveries";
  EXPECT_EQ(sink.count, 128u + 256u);
#endif
}

// --- determinism differential ---------------------------------------------

TEST(DeterminismTest, IdenticalSeedsProduceIdenticalDeliverySequences) {
  auto run_once = [] {
    std::uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](std::uint64_t v) {
      for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xffULL;
        h *= 1099511628211ULL;
      }
    };
    sim::Simulator sim{11};
    net::Network net{sim};
    struct Sink : net::Endpoint {
      std::function<void(const net::Message&)> fn;
      void on_message(const net::Message& m) override { fn(m); }
    };
    Sink sinks[4];
    for (std::uint32_t i = 0; i < 4; ++i) {
      sinks[i].fn = [&mix, &sim](const net::Message& m) {
        mix(static_cast<std::uint64_t>(sim.now()));
        mix(m.id);
        mix(net::frame_checksum(m.payload));
      };
      net.attach({i + 1, 5}, sinks[i]);
    }
    net.set_default_link({.latency = sim::msec(2), .jitter = sim::usec(500),
                          .bandwidth_bps = 10e6, .loss = 0.05});
    for (int round = 0; round < 50; ++round) {
      sim.schedule_at(sim::usec(137) * round, [&net, round] {
        for (std::uint32_t s = 0; s < 4; ++s) {
          net.send({.src = {s + 1, 5},
                    .dst = {((s + 1) % 4) + 1, 5},
                    .payload = "round/" + std::to_string(round)});
        }
      });
    }
    sim.run();
    mix(sim.events_processed());
    return h;
  };
  const std::uint64_t first = run_once();
  const std::uint64_t second = run_once();
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace coop
