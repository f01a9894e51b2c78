// Tests for SessionGroup: the membership->channel glue that makes a
// cooperative session survive member, sequencer and coordinator failures
// without harness-side wiring.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "groupware/session.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace coop::groupware {
namespace {

constexpr net::Address kCoord{100, 1};
constexpr net::McastId kGroup = 42;

groups::MembershipConfig member_cfg() {
  groups::MembershipConfig cfg;
  cfg.enable_failover = true;
  return cfg;
}

groups::ChannelConfig channel_cfg() {
  groups::ChannelConfig cfg;
  cfg.ordering = groups::Ordering::kTotal;
  cfg.retransmit_timeout = sim::msec(50);
  cfg.max_retransmits = 100;  // requests must outlive a ~1s failover
  return cfg;
}

struct Participant {
  std::unique_ptr<SessionGroup> sg;
  std::vector<std::string> log;
};

class SessionGroupTest : public ::testing::Test {
 protected:
  SessionGroupTest() : sim(23), net(sim) {
    coord = std::make_unique<groups::MembershipCoordinator>(net, kCoord,
                                                            member_cfg());
    for (net::NodeId n = 1; n <= 5; ++n) roster.push_back(n);
    for (net::NodeId n = 1; n <= 5; ++n) {
      auto p = std::make_unique<Participant>();
      p->sg = std::make_unique<SessionGroup>(net, n, roster, kCoord, kGroup,
                                             SessionGroup::Ports{},
                                             member_cfg(), channel_cfg());
      Participant* pp = p.get();
      p->sg->on_deliver(
          [pp](const groups::Delivery& d) { pp->log.push_back(d.payload); });
      parts.push_back(std::move(p));
    }
  }

  void join_all_and_settle() {
    for (auto& p : parts) p->sg->join();
    sim.run_until(sim::msec(800));
    for (auto& p : parts) {
      ASSERT_TRUE(p->sg->member().view().has_value());
      ASSERT_EQ(p->sg->member().view()->members.size(), 5u);
    }
  }

  sim::Simulator sim;
  net::Network net;
  std::unique_ptr<groups::MembershipCoordinator> coord;
  std::vector<net::NodeId> roster;
  std::vector<std::unique_ptr<Participant>> parts;
};

TEST_F(SessionGroupTest, BroadcastsDeliverIdenticallyToAllParticipants) {
  join_all_and_settle();
  // broadcast() returns the sender's per-channel sequence number.
  for (std::size_t i = 0; i < parts.size(); ++i)
    EXPECT_EQ(parts[i]->sg->broadcast("hello" + std::to_string(i)), 1u);
  sim.run_until(sim::sec(2));
  ASSERT_EQ(parts[0]->log.size(), 5u);
  for (auto& p : parts) EXPECT_EQ(p->log, parts[0]->log);
}

TEST_F(SessionGroupTest, MemberCrashIsWiredIntoChannelAutomatically) {
  join_all_and_settle();
  net.crash(5);
  // No harness-side mark_failed: the failure detector's view change must
  // reach the channel through SessionGroup.
  sim.run_until(sim::sec(3));
  for (std::size_t i = 0; i + 1 < parts.size(); ++i) {
    EXPECT_FALSE(parts[i]->sg->member().view()->contains({5, 1}));
  }
  EXPECT_EQ(parts[0]->sg->broadcast("after-crash"), 1u);
  sim.run_until(sim::sec(5));
  for (std::size_t i = 0; i + 1 < parts.size(); ++i) {
    ASSERT_FALSE(parts[i]->log.empty());
    EXPECT_EQ(parts[i]->log.back(), "after-crash");
  }
}

TEST_F(SessionGroupTest, SurvivesCoordinatorAndSequencerCrashingTogether) {
  join_all_and_settle();
  std::map<std::size_t, std::vector<std::uint64_t>> installed;
  for (std::size_t i = 0; i < parts.size(); ++i)
    parts[i]->sg->on_view([&installed, i](const groups::View& v) {
      installed[i].push_back(v.id);
    });

  // Warm traffic, then node 1 — the total-order sequencer — and the
  // membership coordinator die in the same incident.
  for (auto& p : parts) EXPECT_EQ(p->sg->broadcast("pre"), 1u);
  sim.run_until(sim::msec(1200));
  net.crash(100);
  net.crash(1);
  sim.run_until(sim::sec(6));

  // Node 2 is the lowest surviving rank: it must now host the membership
  // coordinator, and its channel slot must be the sequencer.
  ASSERT_NE(parts[1]->sg->member().hosted_coordinator(), nullptr);
  EXPECT_TRUE(parts[1]->sg->member().hosted_coordinator()->active());
  EXPECT_TRUE(parts[1]->sg->channel().is_sequencer());
  for (std::size_t i = 1; i < parts.size(); ++i) {
    ASSERT_TRUE(parts[i]->sg->member().view().has_value());
    EXPECT_EQ(parts[i]->sg->member().view()->members.size(), 4u);
    EXPECT_FALSE(parts[i]->sg->excluded());
  }

  // Post-failover traffic still totally ordered, and nothing a survivor
  // sent was lost across the double crash.
  for (std::size_t i = 1; i < parts.size(); ++i)
    EXPECT_EQ(parts[i]->sg->broadcast("post" + std::to_string(i)), 2u);
  sim.run_until(sim::sec(10));
  const auto& ref = parts[1]->log;
  for (std::size_t i = 2; i < parts.size(); ++i) {
    EXPECT_EQ(parts[i]->log, ref) << "participant " << i << " diverged";
  }
  int posts = 0;
  for (const auto& p : ref)
    if (p.rfind("post", 0) == 0) ++posts;
  EXPECT_EQ(posts, 4);
  for (std::size_t i = 1; i < parts.size(); ++i)
    EXPECT_EQ(parts[i]->sg->channel().stats().failover_lost, 0u);

  // View ids stayed strictly monotone at every survivor.
  for (std::size_t i = 1; i < parts.size(); ++i) {
    const auto& ids = installed[i];
    for (std::size_t k = 1; k < ids.size(); ++k) EXPECT_GT(ids[k], ids[k - 1]);
  }
}

TEST_F(SessionGroupTest, EvictedParticipantIsSilencedOnceItLearns) {
  join_all_and_settle();
  coord->evict({5, 1});
  // The evictee learns the hard way: its lease expires, its takeover
  // claim is refused with "coordinator alive", and the re-join it then
  // sends is answered with a view that no longer contains it.
  sim.run_until(sim::sec(4));
  EXPECT_TRUE(parts[4]->sg->excluded());
  const std::size_t before = parts[4]->log.size();
  EXPECT_EQ(parts[0]->sg->broadcast("members-only"), 1u);
  sim.run_until(sim::sec(6));
  // Delivered to the four members, suppressed at the evictee.
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_EQ(parts[i]->log.back(), "members-only");
  EXPECT_EQ(parts[4]->log.size(), before);
}

}  // namespace
}  // namespace coop::groupware
