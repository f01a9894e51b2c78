// Tests for reliable ordered group communication, including property-style
// randomized sweeps over lossy, jittery networks.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "groups/group_channel.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace coop::groups {
namespace {

struct Member {
  std::unique_ptr<GroupChannel> chan;
  std::vector<Delivery> log;
};

/// Builds an n-member group on one mcast id with the given config.
class Harness {
 public:
  Harness(std::size_t n, ChannelConfig config, std::uint64_t seed = 1)
      : sim(seed), net(sim) {
    std::vector<net::Address> addrs;
    for (std::size_t i = 0; i < n; ++i)
      addrs.push_back({static_cast<net::NodeId>(i + 1), 10});
    for (std::size_t i = 0; i < n; ++i) {
      auto m = std::make_unique<Member>();
      m->chan = std::make_unique<GroupChannel>(net, addrs[i], 42, config);
      members.push_back(std::move(m));
    }
    for (auto& m : members) {
      m->chan->set_members(addrs);
      Member* mp = m.get();
      m->chan->on_deliver([mp](const Delivery& d) { mp->log.push_back(d); });
    }
  }

  /// Every member broadcasts once per 10 ms round, staggered by 1 µs.
  void schedule_rounds(int rounds) {
    for (int i = 0; i < rounds; ++i) {
      for (std::size_t m = 0; m < members.size(); ++m) {
        sim.schedule_at(sim::msec(10 * i) + static_cast<sim::TimePoint>(m),
                        [this, m] { members[m]->chan->broadcast("x"); });
      }
    }
  }

  std::vector<std::string> payloads(std::size_t member) const {
    std::vector<std::string> out;
    for (const auto& d : members[member]->log) out.push_back(d.payload);
    return out;
  }

  sim::Simulator sim;
  net::Network net;
  std::vector<std::unique_ptr<Member>> members;
};

TEST(GroupChannel, BroadcastReachesAllMembersIncludingSelf) {
  Harness h(3, {.ordering = Ordering::kFifo});
  h.members[0]->chan->broadcast("hello");
  h.sim.run();
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_EQ(h.members[i]->log.size(), 1u) << "member " << i;
    EXPECT_EQ(h.members[i]->log[0].payload, "hello");
    EXPECT_EQ(h.members[i]->log[0].sender, 0u);
  }
}

TEST(GroupChannel, SelfIndexMatchesMemberListPosition) {
  Harness h(3, {});
  EXPECT_EQ(h.members[0]->chan->self_index(), 0u);
  EXPECT_EQ(h.members[2]->chan->self_index(), 2u);
  EXPECT_EQ(h.members[0]->chan->member_count(), 3u);
}

TEST(GroupChannel, DeliveryCarriesOriginalSendTime) {
  Harness h(2, {});
  h.sim.run_until(sim::msec(500));
  h.members[0]->chan->broadcast("x");
  h.sim.run();
  ASSERT_EQ(h.members[1]->log.size(), 1u);
  EXPECT_EQ(h.members[1]->log[0].sent_at, sim::msec(500));
}

TEST(GroupChannel, ReliableUnderHeavyLoss) {
  Harness h(3, {.ordering = Ordering::kFifo,
                .retransmit_timeout = sim::msec(20),
                .max_retransmits = 50});
  h.net.set_default_link({.latency = sim::msec(2), .jitter = sim::msec(1),
                          .bandwidth_bps = 10e6, .loss = 0.30});
  for (int i = 0; i < 20; ++i)
    h.members[0]->chan->broadcast("m" + std::to_string(i));
  h.sim.run();
  for (std::size_t m = 1; m < 3; ++m) {
    ASSERT_EQ(h.members[m]->log.size(), 20u) << "member " << m;
    for (int i = 0; i < 20; ++i)
      EXPECT_EQ(h.members[m]->log[static_cast<size_t>(i)].payload,
                "m" + std::to_string(i));
  }
  EXPECT_GT(h.members[0]->chan->stats().retransmits, 0u);
}

TEST(GroupChannel, DuplicatesAreSuppressed) {
  Harness h(2, {.ordering = Ordering::kUnordered,
                .retransmit_timeout = sim::msec(5),  // fires before acks
                .max_retransmits = 20});
  // Slow link: the ack returns long after several retransmits went out.
  h.net.set_default_link({.latency = sim::msec(30), .jitter = 0,
                          .bandwidth_bps = 10e6, .loss = 0.0});
  h.members[0]->chan->broadcast("once");
  h.sim.run();
  EXPECT_EQ(h.members[1]->log.size(), 1u);
  EXPECT_GT(h.members[1]->chan->stats().duplicates, 0u);
}

TEST(GroupChannel, FifoOrderingRepairsNetworkReorder) {
  Harness h(2, {.ordering = Ordering::kFifo}, /*seed=*/7);
  h.net.set_default_link({.latency = sim::msec(10), .jitter = sim::msec(9),
                          .bandwidth_bps = 0, .loss = 0});
  for (int i = 0; i < 50; ++i)
    h.members[0]->chan->broadcast(std::to_string(i));
  h.sim.run();
  ASSERT_EQ(h.members[1]->log.size(), 50u);
  for (int i = 0; i < 50; ++i)
    EXPECT_EQ(h.members[1]->log[static_cast<size_t>(i)].payload,
              std::to_string(i));
}

TEST(GroupChannel, UnorderedMayDeliverOutOfOrder) {
  bool reordered = false;
  for (std::uint64_t seed = 1; seed < 30 && !reordered; ++seed) {
    Harness h(2, {.ordering = Ordering::kUnordered}, seed);
    h.net.set_default_link({.latency = sim::msec(10), .jitter = sim::msec(9),
                            .bandwidth_bps = 0, .loss = 0});
    for (int i = 0; i < 20; ++i)
      h.members[0]->chan->broadcast(std::to_string(i));
    h.sim.run();
    auto got = h.payloads(1);
    std::vector<std::string> want;
    for (int i = 0; i < 20; ++i) want.push_back(std::to_string(i));
    if (got != want) reordered = true;
  }
  EXPECT_TRUE(reordered);
}

TEST(GroupChannel, CausalOrderingHonoursReplyAfterQuestion) {
  // Classic scenario: member 0 asks, member 1 replies; member 2 must never
  // see the reply before the question, whatever the link speeds.
  Harness h(3, {.ordering = Ordering::kCausal});
  // Make 0 -> 2 slow and 1 -> 2 fast so the raw network would invert them.
  h.net.set_link(1, 3, {.latency = sim::msec(80), .jitter = 0,
                        .bandwidth_bps = 0, .loss = 0});
  h.net.set_link(2, 3, {.latency = sim::msec(1), .jitter = 0,
                        .bandwidth_bps = 0, .loss = 0});
  h.members[1]->chan->on_deliver([&](const Delivery& d) {
    h.members[1]->log.push_back(d);
    if (d.payload == "question") h.members[1]->chan->broadcast("reply");
  });
  h.members[0]->chan->broadcast("question");
  h.sim.run();
  const auto got = h.payloads(2);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], "question");
  EXPECT_EQ(got[1], "reply");
}

TEST(GroupChannel, TotalOrderAgreesAtAllMembersUnderConcurrency) {
  Harness h(4, {.ordering = Ordering::kTotal,
                .retransmit_timeout = sim::msec(30),
                .max_retransmits = 30},
            /*seed=*/3);
  h.net.set_default_link({.latency = sim::msec(5), .jitter = sim::msec(4),
                          .bandwidth_bps = 10e6, .loss = 0.05});
  // Every member broadcasts concurrently; all must deliver identically.
  for (int round = 0; round < 10; ++round) {
    for (std::size_t m = 0; m < 4; ++m) {
      h.sim.schedule_at(sim::msec(round * 10), [&h, m, round] {
        h.members[m]->chan->broadcast("r" + std::to_string(round) + "m" +
                                      std::to_string(m));
      });
    }
  }
  h.sim.run();
  const auto reference = h.payloads(0);
  EXPECT_EQ(reference.size(), 40u);
  for (std::size_t m = 1; m < 4; ++m) {
    EXPECT_EQ(h.payloads(m), reference) << "member " << m << " diverged";
  }
  // Total sequence numbers must be strictly increasing at each member.
  for (std::size_t m = 0; m < 4; ++m) {
    for (std::size_t i = 1; i < h.members[m]->log.size(); ++i)
      EXPECT_GT(h.members[m]->log[i].total_seq,
                h.members[m]->log[i - 1].total_seq);
  }
}

TEST(GroupChannel, SequencerIsLowestLiveSlot) {
  Harness h(3, {.ordering = Ordering::kTotal});
  EXPECT_TRUE(h.members[0]->chan->is_sequencer());
  EXPECT_FALSE(h.members[1]->chan->is_sequencer());
  h.members[1]->chan->mark_failed(h.members[0]->chan->self());
  EXPECT_TRUE(h.members[1]->chan->is_sequencer());
}

TEST(GroupChannel, MarkFailedStopsRetransmissionToDeadMember) {
  Harness h(3, {.ordering = Ordering::kFifo,
                .retransmit_timeout = sim::msec(10),
                .max_retransmits = 1000});
  h.net.crash(3);  // member index 2 is node 3
  h.members[0]->chan->broadcast("x");
  h.sim.run_until(sim::msec(100));
  const auto before = h.members[0]->chan->stats().retransmits;
  EXPECT_GT(before, 0u);
  h.members[0]->chan->mark_failed({3, 10});
  h.sim.run_until(sim::msec(500));
  // One more timer may have been in flight; after that, silence.
  const auto after = h.members[0]->chan->stats().retransmits;
  h.sim.run_until(sim::sec(2));
  EXPECT_EQ(h.members[0]->chan->stats().retransmits, after);
  EXPECT_LE(after, before + 1);
}

TEST(GroupChannel, GroupWiderThanSixtyFourSlotsAcksAndFailsOver) {
  // Ack bookkeeping past slot 63 (the inline word of the slot mask):
  // acks from high slots clear them, and a failed high slot stops
  // retransmission instead of exhausting it.
  const std::size_t n = 70;
  Harness h(n, {.ordering = Ordering::kFifo,
                .retransmit_timeout = sim::msec(20),
                .max_retransmits = 50});
  h.net.set_default_link({.latency = sim::msec(2), .jitter = sim::msec(1),
                          .bandwidth_bps = 10e6, .loss = 0.2});
  const std::size_t dead = 65;
  h.net.crash(static_cast<net::NodeId>(dead + 1));
  for (auto& m : h.members)
    m->chan->mark_failed(h.members[dead]->chan->self());
  for (int i = 0; i < 5; ++i) {
    h.members[0]->chan->broadcast("lo" + std::to_string(i));
    h.members[n - 1]->chan->broadcast("hi" + std::to_string(i));
  }
  h.sim.run();
  for (std::size_t m = 0; m < n; ++m) {
    if (m == dead) continue;
    EXPECT_EQ(h.members[m]->log.size(), 10u) << "member " << m;
  }
  for (std::size_t m : {std::size_t{0}, n - 1}) {
    EXPECT_EQ(h.members[m]->chan->stats().gave_up, 0u);
    EXPECT_GT(h.members[m]->chan->stats().retransmits, 0u);
  }
}

TEST(GroupChannel, GivesUpAfterMaxRetransmits) {
  Harness h(2, {.ordering = Ordering::kFifo,
                .retransmit_timeout = sim::msec(10),
                .max_retransmits = 3});
  h.net.crash(2);
  h.members[0]->chan->broadcast("doomed");
  h.sim.run();
  EXPECT_EQ(h.members[0]->chan->stats().gave_up, 1u);
  EXPECT_EQ(h.members[0]->chan->stats().retransmits, 3u);
}

TEST(GroupChannel, SingletonGroupDeliversLocallyWithoutNetwork) {
  Harness h(1, {.ordering = Ordering::kTotal});
  h.members[0]->chan->broadcast("solo");
  h.sim.run();
  ASSERT_EQ(h.members[0]->log.size(), 1u);
  EXPECT_EQ(h.net.stats().sent, 0u);
}

TEST(GroupChannel, TotalOrderSurvivesSequencerFailover) {
  Harness h(4, {.ordering = Ordering::kTotal,
                .retransmit_timeout = sim::msec(30),
                .max_retransmits = 30},
            /*seed=*/9);
  h.net.set_default_link({.latency = sim::msec(3), .jitter = sim::msec(2),
                          .bandwidth_bps = 10e6, .loss = 0.02});
  // Pre-crash traffic from everyone.
  for (std::size_t m = 0; m < 4; ++m) {
    h.sim.schedule_at(sim::msec(10 * (m + 1)), [&h, m] {
      h.members[m]->chan->broadcast("pre" + std::to_string(m));
    });
  }
  // The sequencer (member 0) crashes; survivors detect and promote.
  h.sim.schedule_at(sim::msec(200), [&h] {
    h.net.crash(1);
    for (std::size_t m = 1; m < 4; ++m)
      h.members[m]->chan->mark_failed(h.members[0]->chan->self());
  });
  // Post-crash traffic: the new sequencer (member 1) and the others.
  for (int round = 0; round < 6; ++round) {
    for (std::size_t m = 1; m < 4; ++m) {
      h.sim.schedule_at(sim::msec(300) + round * sim::msec(20), [&h, m,
                                                                round] {
        h.members[m]->chan->broadcast("post" + std::to_string(m) + "." +
                                      std::to_string(round));
      });
    }
  }
  h.sim.run();
  EXPECT_TRUE(h.members[1]->chan->is_sequencer());
  // Every survivor delivered every post-failover message, identically.
  const auto ref = h.payloads(1);
  int post_count = 0;
  for (const auto& p : ref)
    if (p.rfind("post", 0) == 0) ++post_count;
  EXPECT_EQ(post_count, 18);
  EXPECT_EQ(h.payloads(2), ref);
  EXPECT_EQ(h.payloads(3), ref);
}

TEST(GroupChannel, InFlightRequestRereutesToNewSequencer) {
  // A non-sequencer broadcast is in flight to the sequencer when it
  // dies: after mark_failed the request must reach the promoted
  // sequencer and still deliver everywhere.
  Harness h(3, {.ordering = Ordering::kTotal,
                .retransmit_timeout = sim::msec(50),
                .max_retransmits = 30},
            /*seed=*/12);
  // Slow path to the sequencer so the request is still in flight when
  // the crash happens.
  h.net.set_link(3, 1, {.latency = sim::msec(100), .jitter = 0,
                        .bandwidth_bps = 10e6, .loss = 0});
  h.members[2]->chan->broadcast("stranded");
  h.sim.schedule_at(sim::msec(20), [&h] {
    h.net.crash(1);
    h.members[1]->chan->mark_failed(h.members[0]->chan->self());
    h.members[2]->chan->mark_failed(h.members[0]->chan->self());
  });
  h.sim.run();
  ASSERT_EQ(h.payloads(1).size(), 1u);
  EXPECT_EQ(h.payloads(1)[0], "stranded");
  EXPECT_EQ(h.payloads(2), h.payloads(1));
}

// Drives the documented kTotal loss window deterministically: member 2's
// second broadcast is acked (stashed out-of-order at the sequencer) while
// its first is still unacked in flight, then the sequencer dies.  With
// replay disabled the acked broadcast is lost and counted; with replay the
// new sequencer recovers it from the sender's retransmit buffer.
class LossWindowHarness : public Harness {
 public:
  explicit LossWindowHarness(bool replay)
      : Harness(3,
                {.ordering = Ordering::kTotal,
                 .retransmit_timeout = sim::msec(200),
                 .max_retransmits = 30,
                 .failover_replay = replay},
                /*seed=*/21) {
    // First request lost on the way to the sequencer...
    net.set_link(3, 1, {.latency = sim::msec(2), .jitter = 0,
                        .bandwidth_bps = 10e6, .loss = 1.0});
    members[2]->chan->broadcast("one");
    // ...then the link heals and the second request arrives: the
    // sequencer stashes it out of order and acks it.
    sim.schedule_at(sim::msec(5), [this] {
      net.set_link(3, 1, {.latency = sim::msec(2), .jitter = 0,
                          .bandwidth_bps = 10e6, .loss = 0.0});
      members[2]->chan->broadcast("two");
    });
    // The sequencer crashes before "one"'s retransmission can fill the
    // gap, with "two" acked but never relayed.
    sim.schedule_at(sim::msec(50), [this] {
      net.crash(1);
      members[1]->chan->mark_failed(members[0]->chan->self());
      members[2]->chan->mark_failed(members[0]->chan->self());
    });
    sim.run();
  }
};

TEST(GroupChannel, FailoverLossWindowIsCountedWithoutReplay) {
  LossWindowHarness h(/*replay=*/false);
  // "one" was never acked, so its re-route to the new sequencer saves it;
  // "two" was acked and sits in the window — gone, but accounted for.
  EXPECT_EQ(h.members[2]->chan->stats().failover_lost, 1u);
  EXPECT_EQ(h.payloads(1), std::vector<std::string>{"one"});
  EXPECT_EQ(h.payloads(2), std::vector<std::string>{"one"});
}

TEST(GroupChannel, FailoverReplayClosesTheLossWindow) {
  LossWindowHarness h(/*replay=*/true);
  const std::vector<std::string> want{"one", "two"};
  EXPECT_EQ(h.payloads(1), want);
  EXPECT_EQ(h.payloads(2), want);
  for (std::size_t m = 1; m < 3; ++m) {
    EXPECT_EQ(h.members[m]->chan->stats().failover_lost, 0u) << m;
  }
  EXPECT_GT(h.members[1]->chan->stats().failover_replayed, 0u);
}

TEST(GroupChannel, ReplayRecoveryExtendsEverySurvivorPrefix) {
  // Survivors at different delivered depths when the sequencer dies: the
  // recovery round must produce one order that extends both prefixes, so
  // nobody ever sees a message twice or in a new relative order.
  Harness h(4, {.ordering = Ordering::kTotal,
                .retransmit_timeout = sim::msec(30),
                .max_retransmits = 60},
            /*seed=*/31);
  // Member 3 lags: slow link from the sequencer to it.
  h.net.set_link(1, 4, {.latency = sim::msec(60), .jitter = 0,
                        .bandwidth_bps = 10e6, .loss = 0});
  for (int i = 0; i < 8; ++i) {
    h.sim.schedule_at(sim::msec(5 * i), [&h, i] {
      h.members[1]->chan->broadcast("m" + std::to_string(i));
    });
  }
  h.sim.schedule_at(sim::msec(70), [&h] {
    h.net.crash(1);
    for (std::size_t m = 1; m < 4; ++m)
      h.members[m]->chan->mark_failed(h.members[0]->chan->self());
  });
  h.sim.run();
  std::vector<std::string> want;
  for (int i = 0; i < 8; ++i) want.push_back("m" + std::to_string(i));
  for (std::size_t m = 1; m < 4; ++m) {
    EXPECT_EQ(h.payloads(m), want) << "member " << m;
  }
}

TEST(GroupChannel, SequencerCrashWithConcurrentSendersConverges) {
  // Chaos-flavored sweep: concurrent senders, lossy links, sequencer
  // crash mid-stream.  Replay mode must deliver every acked broadcast
  // from a surviving sender at every survivor, identically ordered.
  for (std::uint64_t seed : {101u, 202u, 303u}) {
    Harness h(4, {.ordering = Ordering::kTotal,
                  .retransmit_timeout = sim::msec(25),
                  .max_retransmits = 80},
              seed);
    h.net.set_default_link({.latency = sim::msec(4), .jitter = sim::msec(3),
                            .bandwidth_bps = 10e6, .loss = 0.05});
    for (int i = 0; i < 6; ++i) {
      for (std::size_t m = 1; m < 4; ++m) {
        h.sim.schedule_at(sim::msec(10 * i + m), [&h, m, i] {
          h.members[m]->chan->broadcast("s" + std::to_string(m) + "." +
                                        std::to_string(i));
        });
      }
    }
    h.sim.schedule_at(sim::msec(35), [&h] {
      h.net.crash(1);
      for (std::size_t m = 1; m < 4; ++m)
        h.members[m]->chan->mark_failed(h.members[0]->chan->self());
    });
    h.sim.run();
    // All 18 survivor broadcasts delivered everywhere, identically.
    const auto ref = h.payloads(1);
    EXPECT_EQ(ref.size(), 18u) << "seed " << seed;
    EXPECT_EQ(h.payloads(2), ref) << "seed " << seed;
    EXPECT_EQ(h.payloads(3), ref) << "seed " << seed;
    for (std::size_t m = 1; m < 4; ++m)
      EXPECT_EQ(h.members[m]->chan->stats().failover_lost, 0u);
  }
}

// Dedupe state stays bounded: per-sender sequence numbers are dense, so
// once a lossy session drains, every member's seen set is one run per
// sender — no matter how many broadcasts went through.
class BoundedDedupe : public ::testing::TestWithParam<Ordering> {};

TEST_P(BoundedDedupe, OneRunPerSenderAfterLossySessionDrains) {
  const std::size_t n = 8;
  const int per_member = 2000;
  Harness h(n, {.ordering = GetParam()}, 7);
  h.net.set_default_link({.latency = sim::msec(4), .jitter = sim::msec(3),
                          .bandwidth_bps = 10e6, .loss = 0.05});
  h.schedule_rounds(per_member);
  h.sim.run();
  for (std::size_t m = 0; m < n; ++m) {
    const GroupChannel& chan = *h.members[m]->chan;
    EXPECT_EQ(h.members[m]->log.size(), n * per_member) << "member " << m;
    EXPECT_EQ(chan.dedupe_runs(), chan.member_count()) << "member " << m;
  }
  EXPECT_GT(h.members[0]->chan->stats().retransmits, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllOrderings, BoundedDedupe,
                         ::testing::Values(Ordering::kUnordered,
                                           Ordering::kFifo, Ordering::kCausal,
                                           Ordering::kTotal));

TEST(GroupChannel, ExpiredRequestsLeaveAtMostOneGapEach) {
  // A request the sequencer drops expired is never delivered, so members
  // other than the sequencer keep a hole at its seq: each drop may split
  // one run, never more.
  const std::size_t n = 8;
  Harness h(n, {.ordering = Ordering::kTotal,
                .broadcast_deadline = sim::msec(6)},
            3);
  h.net.set_default_link({.latency = sim::msec(4), .jitter = sim::msec(3),
                          .bandwidth_bps = 10e6, .loss = 0.0});
  h.schedule_rounds(200);
  h.sim.run();
  const std::uint64_t drops = h.members[0]->chan->stats().expired_drops;
  ASSERT_GT(drops, 0u);
  for (std::size_t m = 0; m < n; ++m) {
    const GroupChannel& chan = *h.members[m]->chan;
    EXPECT_LE(chan.dedupe_runs(), n + drops) << "member " << m;
    EXPECT_EQ(h.members[m]->log.size(), n * 200 - drops) << "member " << m;
  }
  EXPECT_EQ(h.members[0]->chan->dedupe_runs(), n);  // sequencer: no holes
}

TEST(GroupChannel, ExpiredBroadcastsAreNotRetainedOrReplayedAtFailover) {
  // The sequencer drops expired requests without relaying them, so their
  // senders never self-deliver them.  Senders must forget them at their
  // deadline: the retained set stays bounded, and the promoted sequencer
  // does not re-count the old sequencer's drops during recovery.
  const std::size_t n = 8;
  Harness h(n, {.ordering = Ordering::kTotal,
                .broadcast_deadline = sim::msec(6)},
            3);
  h.net.set_default_link({.latency = sim::msec(4), .jitter = sim::msec(3),
                          .bandwidth_bps = 10e6, .loss = 0.0});
  const int rounds = 200;
  h.schedule_rounds(rounds);
  std::size_t max_waiting = 0;
  for (int i = 0; i < rounds; ++i) {
    h.sim.schedule_at(sim::msec(10 * i + 9), [&h, &max_waiting] {
      for (const auto& m : h.members)
        max_waiting = std::max(max_waiting, m->chan->relay_waiting());
    });
  }
  const sim::TimePoint crash_at = sim::msec(10 * rounds + 50);
  h.sim.run_until(crash_at);
  const std::uint64_t drops = h.members[0]->chan->stats().expired_drops;
  ASSERT_GT(drops, 0u);
  const std::uint64_t promoted_before =
      h.members[1]->chan->stats().expired_drops;
  h.net.crash(1);
  for (std::size_t m = 1; m < n; ++m)
    h.members[m]->chan->mark_failed(h.members[0]->chan->self());
  h.sim.run();

  EXPECT_TRUE(h.members[1]->chan->is_sequencer());
  EXPECT_EQ(h.members[1]->chan->stats().expired_drops, promoted_before);
  EXPECT_LE(max_waiting, 2u);
  for (std::size_t m = 1; m < n; ++m) {
    EXPECT_EQ(h.members[m]->chan->relay_waiting(), 0u) << "member " << m;
    EXPECT_EQ(h.members[m]->log.size(), n * rounds - drops) << "member " << m;
  }
}

// Property sweep: for every ordering mode and several seeds, all members
// deliver exactly the full message set under loss + jitter, and the
// per-mode ordering invariant holds.
class OrderingSweep
    : public ::testing::TestWithParam<std::tuple<Ordering, std::uint64_t>> {};

TEST_P(OrderingSweep, AllMessagesDeliveredAndInvariantHolds) {
  const auto [ordering, seed] = GetParam();
  const std::size_t n = 3;
  Harness h(n,
            {.ordering = ordering,
             .retransmit_timeout = sim::msec(25),
             .max_retransmits = 60},
            seed);
  h.net.set_default_link({.latency = sim::msec(4), .jitter = sim::msec(3),
                          .bandwidth_bps = 10e6, .loss = 0.10});
  const int per_member = 15;
  for (int i = 0; i < per_member; ++i) {
    for (std::size_t m = 0; m < n; ++m) {
      h.sim.schedule_at(
          static_cast<sim::TimePoint>(
              h.sim.rng().uniform_int(0, sim::msec(200))),
          [&h, m, i] {
            h.members[m]->chan->broadcast("s" + std::to_string(m) + "." +
                                          std::to_string(i));
          });
    }
  }
  h.sim.run();
  for (std::size_t m = 0; m < n; ++m) {
    EXPECT_EQ(h.members[m]->log.size(), n * per_member)
        << "member " << m << " seed " << seed;
    // FIFO invariant (implied by causal and total as implemented): for
    // each sender, seq numbers appear in increasing order.
    if (ordering != Ordering::kUnordered) {
      std::map<std::size_t, std::uint64_t> last;
      for (const auto& d : h.members[m]->log) {
        auto it = last.find(d.sender);
        if (it != last.end()) {
          EXPECT_GT(d.seq, it->second);
        }
        last[d.sender] = d.seq;
      }
    }
  }
  if (ordering == Ordering::kTotal) {
    for (std::size_t m = 1; m < n; ++m) EXPECT_EQ(h.payloads(m), h.payloads(0));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllOrderingsSeeds, OrderingSweep,
    ::testing::Combine(::testing::Values(Ordering::kUnordered, Ordering::kFifo,
                                         Ordering::kCausal, Ordering::kTotal),
                       ::testing::Values(11u, 22u, 33u, 44u, 55u)));

}  // namespace
}  // namespace coop::groups
