// Tests for the membership service: joins, leaves, failure detection and
// reliable view dissemination over lossy links.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "groups/membership.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace coop::groups {
namespace {

constexpr net::Address kCoord{100, 1};

class MembershipTest : public ::testing::Test {
 protected:
  MembershipTest() : sim(5), net(sim), coord(net, kCoord) {}

  std::unique_ptr<MembershipMember> make_member(net::NodeId node) {
    return std::make_unique<MembershipMember>(net, net::Address{node, 1},
                                              kCoord);
  }

  sim::Simulator sim;
  net::Network net;
  MembershipCoordinator coord;
};

TEST_F(MembershipTest, JoinProducesViewContainingMember) {
  auto m = make_member(1);
  int views = 0;
  m->on_view([&](const View& v) {
    ++views;
    EXPECT_TRUE(v.contains({1, 1}));
  });
  m->join();
  sim.run_until(sim::msec(50));
  EXPECT_EQ(views, 1);
  ASSERT_TRUE(m->view().has_value());
  EXPECT_EQ(m->view()->members.size(), 1u);
  EXPECT_TRUE(m->joined());
}

TEST_F(MembershipTest, SecondJoinNotifiesBothMembers) {
  auto a = make_member(1);
  auto b = make_member(2);
  a->join();
  sim.run_until(sim::msec(50));
  b->join();
  sim.run_until(sim::msec(100));
  ASSERT_TRUE(a->view().has_value());
  ASSERT_TRUE(b->view().has_value());
  EXPECT_EQ(a->view()->members.size(), 2u);
  EXPECT_EQ(a->view()->id, b->view()->id);
  EXPECT_TRUE(a->view()->contains({2, 1}));
}

TEST_F(MembershipTest, GracefulLeaveRemovesMember) {
  auto a = make_member(1);
  auto b = make_member(2);
  a->join();
  b->join();
  sim.run_until(sim::msec(100));
  b->leave();
  sim.run_until(sim::msec(200));
  ASSERT_TRUE(a->view().has_value());
  EXPECT_EQ(a->view()->members.size(), 1u);
  EXPECT_FALSE(a->view()->contains({2, 1}));
  EXPECT_FALSE(b->joined());
}

TEST_F(MembershipTest, CrashedMemberIsDetectedByHeartbeatTimeout) {
  auto a = make_member(1);
  auto b = make_member(2);
  a->join();
  b->join();
  sim.run_until(sim::msec(100));
  EXPECT_EQ(coord.view().members.size(), 2u);
  net.crash(2);
  sim.run_until(sim::sec(2));
  EXPECT_EQ(coord.view().members.size(), 1u);
  ASSERT_TRUE(a->view().has_value());
  EXPECT_FALSE(a->view()->contains({2, 1}));
}

TEST_F(MembershipTest, DisconnectedMobileMemberIsEvictedAndRejoins) {
  auto a = make_member(1);
  a->join();
  sim.run_until(sim::msec(100));
  net.set_connectivity(1, net::Connectivity::kDisconnected);
  sim.run_until(sim::sec(2));
  EXPECT_EQ(coord.view().members.size(), 0u);
  net.set_connectivity(1, net::Connectivity::kFull);
  a->join();  // explicit rejoin after reconnection
  sim.run_until(sim::sec(3));
  EXPECT_EQ(coord.view().members.size(), 1u);
}

TEST_F(MembershipTest, ViewSurvivesLossyLinks) {
  net.set_default_link({.latency = sim::msec(5), .jitter = sim::msec(2),
                        .bandwidth_bps = 10e6, .loss = 0.30});
  // A lossy WAN needs a laxer failure detector, or members flap.
  MembershipConfig cfg;
  cfg.failure_timeout = sim::msec(900);
  const net::Address coord2_addr{101, 1};
  MembershipCoordinator coord2(net, coord2_addr, cfg);
  MembershipMember a(net, {1, 1}, coord2_addr, cfg);
  MembershipMember b(net, {2, 1}, coord2_addr, cfg);
  MembershipMember c(net, {3, 1}, coord2_addr, cfg);
  a.join();
  b.join();
  c.join();
  // Join-retry plus sweep-based view re-send must converge despite 30%
  // loss on every datagram.
  sim.run_until(sim::sec(3));
  ASSERT_TRUE(a.view().has_value());
  ASSERT_TRUE(b.view().has_value());
  ASSERT_TRUE(c.view().has_value());
  EXPECT_EQ(coord2.view().members.size(), 3u);
  EXPECT_EQ(a.view()->id, coord2.view().id);
  EXPECT_EQ(b.view()->id, coord2.view().id);
  EXPECT_EQ(c.view()->id, coord2.view().id);
}

TEST_F(MembershipTest, LostJoinDatagramIsRetried) {
  // Force the very first JOIN to be lost: 100% loss initially, healed
  // shortly after; the join-retry timer must re-send.
  net.set_default_link({.latency = sim::msec(1), .jitter = 0,
                        .bandwidth_bps = 10e6, .loss = 1.0});
  auto a = make_member(1);
  a->join();
  sim.run_until(sim::msec(50));
  net.set_default_link({.latency = sim::msec(1), .jitter = 0,
                        .bandwidth_bps = 10e6, .loss = 0.0});
  sim.run_until(sim::sec(1));
  ASSERT_TRUE(a->view().has_value());
  EXPECT_TRUE(a->view()->contains({1, 1}));
}

TEST_F(MembershipTest, FalsePositiveEvictionSelfHeals) {
  auto a = make_member(1);
  a->join();
  sim.run_until(sim::msec(100));
  // Black-hole the member long enough to be evicted, then restore.
  net.set_connectivity(1, net::Connectivity::kDisconnected);
  sim.run_until(sim::sec(1));
  EXPECT_EQ(coord.view().members.size(), 0u);
  net.set_connectivity(1, net::Connectivity::kFull);
  // No explicit rejoin: the "you're out" view plus join-retry recovers.
  sim.run_until(sim::sec(3));
  EXPECT_EQ(coord.view().members.size(), 1u);
  ASSERT_TRUE(a->view().has_value());
  EXPECT_TRUE(a->view()->contains({1, 1}));
}

TEST_F(MembershipTest, PartitionEvictedMemberRejoinsAfterHeal) {
  auto a = make_member(1);
  auto b = make_member(2);
  a->join();
  b->join();
  sim.run_until(sim::msec(100));
  EXPECT_EQ(coord.view().members.size(), 2u);

  // Cut member 2 off from the coordinator's side: its heartbeats stop
  // arriving and the failure detector evicts it.
  net.partition({2}, {1, 100});
  sim.run_until(sim::sec(1));
  EXPECT_EQ(coord.view().members.size(), 1u);
  EXPECT_FALSE(coord.view().contains({2, 1}));
  const std::uint64_t evicted_view = coord.view().id;

  // After the heal, no explicit rejoin: member 2's next heartbeat makes
  // the coordinator re-send the current view, the member sees itself
  // absent, and join_retry_period drives it back in.
  net.heal_partition();
  sim.run_until(sim::sec(4));
  EXPECT_EQ(coord.view().members.size(), 2u);
  EXPECT_TRUE(coord.view().contains({2, 1}));
  ASSERT_TRUE(a->view().has_value());
  ASSERT_TRUE(b->view().has_value());
  EXPECT_EQ(a->view()->id, coord.view().id);
  EXPECT_EQ(b->view()->id, coord.view().id);
  EXPECT_GT(coord.view().id, evicted_view);
}

TEST_F(MembershipTest, AdministrativeEvictionChangesView) {
  auto a = make_member(1);
  auto b = make_member(2);
  a->join();
  b->join();
  sim.run_until(sim::msec(100));
  coord.evict({2, 1});
  EXPECT_EQ(coord.view().members.size(), 1u);
  // The evicted member keeps heartbeating but is simply not re-added
  // (heartbeats from unknown members are ignored).
  sim.run_until(sim::sec(1));
  EXPECT_EQ(coord.view().members.size(), 1u);
}

TEST_F(MembershipTest, ViewIdsAreMonotonic) {
  auto a = make_member(1);
  std::vector<std::uint64_t> ids;
  a->on_view([&](const View& v) { ids.push_back(v.id); });
  a->join();
  sim.run_until(sim::msec(50));
  auto b = make_member(2);
  b->join();
  sim.run_until(sim::msec(100));
  b->leave();
  sim.run_until(sim::msec(200));
  ASSERT_GE(ids.size(), 3u);
  for (std::size_t i = 1; i < ids.size(); ++i) EXPECT_GT(ids[i], ids[i - 1]);
}

TEST_F(MembershipTest, CoordinatorObserverFires) {
  int calls = 0;
  coord.on_view_change([&](const View&) { ++calls; });
  auto a = make_member(1);
  a->join();
  sim.run_until(sim::msec(50));
  EXPECT_EQ(calls, 1);
}

TEST_F(MembershipTest, ViewChangesCountsChangesNotViewId) {
  // Fresh coordinator: nothing published yet.
  EXPECT_EQ(coord.view_changes(), 0u);
  int observed = 0;
  coord.on_view_change([&](const View&) { ++observed; });
  auto a = make_member(1);
  auto b = make_member(2);
  a->join();
  sim.run_until(sim::msec(50));
  b->join();
  sim.run_until(sim::msec(100));
  b->leave();
  sim.run_until(sim::msec(200));
  EXPECT_EQ(coord.view_changes(), 3u);  // join, join, leave
  EXPECT_EQ(coord.view_changes(), static_cast<std::uint64_t>(observed));
}

// --- coordinator failover ---------------------------------------------------

MembershipConfig failover_config() {
  MembershipConfig cfg;
  cfg.enable_failover = true;
  return cfg;
}

class FailoverTest : public ::testing::Test {
 protected:
  FailoverTest() : sim(17), net(sim) {
    coord = std::make_unique<MembershipCoordinator>(net, kCoord,
                                                    failover_config());
  }

  std::unique_ptr<MembershipMember> make_member(net::NodeId node) {
    auto m = std::make_unique<MembershipMember>(net, net::Address{node, 1},
                                                kCoord, failover_config());
    members.push_back(m.get());
    return m;
  }

  /// The promoted coordinator's well-known address for a member on @p node.
  static net::Address promoted(net::NodeId node) { return {node, 1001}; }

  sim::Simulator sim;
  net::Network net;
  std::unique_ptr<MembershipCoordinator> coord;
  std::vector<MembershipMember*> members;
};

TEST_F(FailoverTest, CoordinatorCrashPromotesLowestRankSurvivor) {
  auto a = make_member(1);
  auto b = make_member(2);
  auto c = make_member(3);
  a->join();
  b->join();
  c->join();
  sim.run_until(sim::msec(500));
  ASSERT_TRUE(a->view().has_value());
  const std::uint64_t pre_crash_id = a->view()->id;

  net.crash(100);
  sim.run_until(sim::sec(4));

  // The lowest-ranked survivor hosts the new coordinator; nobody else does.
  ASSERT_NE(a->hosted_coordinator(), nullptr);
  EXPECT_TRUE(a->hosted_coordinator()->active());
  EXPECT_EQ(b->hosted_coordinator(), nullptr);
  EXPECT_EQ(c->hosted_coordinator(), nullptr);

  // Everyone adopted it and converged on one richer, strictly newer view.
  for (MembershipMember* m : members) {
    EXPECT_EQ(m->coordinator(), promoted(1));
    ASSERT_TRUE(m->view().has_value());
    EXPECT_GT(m->view()->id, pre_crash_id);
    EXPECT_EQ(m->view()->id, a->hosted_coordinator()->view().id);
    EXPECT_EQ(m->view()->members.size(), 3u);
  }
}

TEST_F(FailoverTest, PromotedCoordinatorResumesIdsAboveSurvivorMax) {
  auto a = make_member(1);
  auto b = make_member(2);
  auto c = make_member(3);
  a->join();
  b->join();
  c->join();
  sim.run_until(sim::msec(500));
  const std::uint64_t floor = coord->view().id;

  net.crash(100);
  sim.run_until(sim::sec(4));
  ASSERT_NE(a->hosted_coordinator(), nullptr);
  // Ids resume strictly above the survivor max, so the change count and
  // the id legitimately diverge after a failover.
  EXPECT_GT(a->hosted_coordinator()->view().id, floor);
  EXPECT_LT(a->hosted_coordinator()->view_changes(),
            a->hosted_coordinator()->view().id);
}

TEST_F(FailoverTest, BannedMemberStaysOutAcrossFailover) {
  auto a = make_member(1);
  auto b = make_member(2);
  auto c = make_member(3);
  a->join();
  b->join();
  c->join();
  sim.run_until(sim::msec(500));
  coord->evict({3, 1});
  sim.run_until(sim::msec(700));
  ASSERT_TRUE(a->view().has_value());
  EXPECT_EQ(a->view()->members.size(), 2u);
  EXPECT_TRUE(a->view()->bans({3, 1}));

  net.crash(100);
  sim.run_until(sim::sec(4));
  ASSERT_NE(a->hosted_coordinator(), nullptr);
  // The ban travelled with the view into the takeover state.
  EXPECT_EQ(a->hosted_coordinator()->view().members.size(), 2u);
  EXPECT_TRUE(a->hosted_coordinator()->view().bans({3, 1}));

  // Even pointed straight at the successor, the banned member is refused.
  c->set_coordinator(promoted(1));
  sim.run_until(sim::sec(6));
  EXPECT_EQ(a->hosted_coordinator()->view().members.size(), 2u);
  EXPECT_FALSE(a->hosted_coordinator()->view().contains({3, 1}));
}

TEST_F(FailoverTest, MinorityPartitionNeverActivatesAndHealsClean) {
  auto a = make_member(1);
  auto b = make_member(2);
  auto c = make_member(3);
  auto d = make_member(4);
  auto e = make_member(5);
  for (MembershipMember* m : members) m->join();
  sim.run_until(sim::msec(800));
  ASSERT_TRUE(a->view().has_value());
  EXPECT_EQ(a->view()->members.size(), 5u);
  const std::uint64_t pre_partition_id = a->view()->id;

  std::map<const MembershipMember*, std::vector<std::uint64_t>> installed;
  for (MembershipMember* m : members)
    m->on_view([&installed, m](const View& v) { installed[m].push_back(v.id); });

  // Coordinator + member 1 become the minority side; 2-5 are the majority.
  net.partition({100, 1}, {2, 3, 4, 5});
  sim.run_until(sim::sec(5));

  // The majority elected the lowest surviving rank; the cut-off old
  // coordinator suspended (then retired) rather than shrinking the view,
  // and the minority member never won a majority.
  ASSERT_NE(b->hosted_coordinator(), nullptr);
  EXPECT_TRUE(b->hosted_coordinator()->active());
  EXPECT_EQ(coord->role(), MembershipCoordinator::Role::kRetired);
  EXPECT_EQ(a->hosted_coordinator(), nullptr);

  net.heal_partition();
  sim.run_until(sim::sec(12));

  // After the heal everyone — the stranded minority member included —
  // converges on the successor's view of all five members.
  const View& vw = b->hosted_coordinator()->view();
  EXPECT_EQ(vw.members.size(), 5u);
  EXPECT_GT(vw.id, pre_partition_id);
  for (MembershipMember* m : members) {
    EXPECT_EQ(m->coordinator(), promoted(2));
    ASSERT_TRUE(m->view().has_value());
    EXPECT_EQ(m->view()->id, vw.id);
  }
  // Exactly one coordinator ended active, and ids never rolled back.
  EXPECT_EQ(coord->active(), false);
  for (MembershipMember* m : members) {
    if (m != b.get()) {
      EXPECT_EQ(m->hosted_coordinator(), nullptr);
    }
    const auto& ids = installed[m];
    for (std::size_t i = 1; i < ids.size(); ++i)
      EXPECT_GT(ids[i], ids[i - 1]) << "member node rollback";
  }
}

TEST_F(FailoverTest, RestartedCoordinatorRecoversFromRejoins) {
  auto a = make_member(1);
  auto b = make_member(2);
  auto c = make_member(3);
  a->join();
  b->join();
  c->join();
  sim.run_until(sim::msec(500));
  const std::uint64_t pre_crash_id = coord->view().id;

  // Crash-restart the coordinator inside the members' lease window: the
  // new incarnation has no state and must reconstruct it from summaries.
  coord.reset();
  sim.run_until(sim::msec(600));
  MembershipConfig cfg = failover_config();
  cfg.recover_on_start = true;
  coord = std::make_unique<MembershipCoordinator>(net, kCoord, cfg);
  EXPECT_EQ(coord->role(), MembershipCoordinator::Role::kRecovering);

  sim.run_until(sim::sec(3));
  EXPECT_TRUE(coord->active());
  EXPECT_EQ(coord->view().members.size(), 3u);
  EXPECT_GT(coord->view().id, pre_crash_id);
  for (MembershipMember* m : members) {
    EXPECT_EQ(m->coordinator(), kCoord);  // nobody needed to take over
    EXPECT_EQ(m->hosted_coordinator(), nullptr);
    ASSERT_TRUE(m->view().has_value());
    EXPECT_EQ(m->view()->id, coord->view().id);
  }
}

TEST_F(FailoverTest, StaleRestartedCoordinatorStaysInert) {
  auto a = make_member(1);
  auto b = make_member(2);
  auto c = make_member(3);
  a->join();
  b->join();
  c->join();
  sim.run_until(sim::msec(500));

  // Crash long enough for the group to move on to a successor.
  net.crash(100);
  sim.run_until(sim::sec(4));
  ASSERT_NE(a->hosted_coordinator(), nullptr);
  const std::uint64_t successor_id = a->hosted_coordinator()->view().id;

  // The old node comes back and restarts its coordinator in recovery
  // mode.  Nobody talks to it any more, so it must never activate — one
  // active coordinator, no forked view history.
  coord.reset();
  net.recover(100);
  MembershipConfig cfg = failover_config();
  cfg.recover_on_start = true;
  coord = std::make_unique<MembershipCoordinator>(net, kCoord, cfg);
  sim.run_until(sim::sec(8));

  EXPECT_FALSE(coord->active());
  EXPECT_TRUE(a->hosted_coordinator()->active());
  EXPECT_GE(a->hosted_coordinator()->view().id, successor_id);
  for (MembershipMember* m : members) EXPECT_EQ(m->coordinator(), promoted(1));
}

TEST_F(FailoverTest, DeterministicAcrossIdenticalSeeds) {
  // Two runs with the same seed must produce byte-identical membership
  // outcomes even with timer jitter enabled — the jitter draws from the
  // simulator's seeded rng, never from wall clock.
  auto run = [](std::uint64_t seed) {
    sim::Simulator s(seed);
    net::Network n(s);
    MembershipConfig cfg = failover_config();
    cfg.timer_jitter = 0.2;
    MembershipCoordinator co(n, kCoord, cfg);
    std::vector<std::unique_ptr<MembershipMember>> ms;
    std::vector<std::uint64_t> installed;
    for (net::NodeId node = 1; node <= 3; ++node) {
      ms.push_back(std::make_unique<MembershipMember>(
          n, net::Address{node, 1}, kCoord, cfg));
      ms.back()->on_view([&](const View& v) { installed.push_back(v.id); });
      ms.back()->join();
    }
    s.run_until(sim::msec(500));
    n.crash(100);
    s.run_until(sim::sec(4));
    installed.push_back(ms[0]->hosted_coordinator() != nullptr ? 1u : 0u);
    return installed;
  };
  EXPECT_EQ(run(99), run(99));
  EXPECT_EQ(run(7), run(7));
}

}  // namespace
}  // namespace coop::groups
