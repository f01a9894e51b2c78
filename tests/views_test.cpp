// Tests for relaxed-WYSIWIS shared views: per-user presentation policies
// over one shared state, visible and tailorable at runtime — including
// view agreement when the state is replicated over a failing session.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "groupware/session.hpp"
#include "groupware/views.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace coop::groupware {
namespace {

constexpr ccontrol::ClientId kAlice = 1;
constexpr ccontrol::ClientId kBob = 2;

class ViewsTest : public ::testing::Test {
 protected:
  ViewsTest() {
    space.put(kAlice, "agenda", "1. QoS  2. AOB", sim::sec(1));
    space.put(kBob, "minutes", "draft in progress", sim::sec(2));
    space.put(kAlice, "actions", "Bob: send figures", sim::sec(3));
  }
  SharedViewSpace space;
};

TEST_F(ViewsTest, DefaultViewShowsEverythingByKey) {
  const auto view = space.render(kAlice);
  ASSERT_EQ(view.size(), 3u);
  EXPECT_EQ(view[0], "actions: Bob: send figures");
  EXPECT_EQ(view[1], "agenda: 1. QoS  2. AOB");
  EXPECT_EQ(view[2], "minutes: draft in progress");
}

TEST_F(ViewsTest, SameStateDifferentPresentations) {
  // The relaxed-WYSIWIS point: identical shared state, per-user views.
  space.set_view(kBob, ViewSpec::headlines());
  const auto alice_view = space.render(kAlice);
  const auto bob_view = space.render(kBob);
  ASSERT_EQ(bob_view.size(), 3u);
  EXPECT_EQ(bob_view[0], "actions");  // keys only
  EXPECT_NE(alice_view[0], bob_view[0]);
  EXPECT_EQ(alice_view.size(), bob_view.size());  // same underlying items
}

TEST_F(ViewsTest, FilterViewsSelectSubsets) {
  space.set_view(kAlice, ViewSpec::by_author(kBob));
  const auto view = space.render(kAlice);
  ASSERT_EQ(view.size(), 1u);
  EXPECT_EQ(view[0], "minutes: draft in progress");
}

TEST_F(ViewsTest, RecencyViewOrdersNewestFirst) {
  space.set_view(kAlice, ViewSpec::recent(sim::sec(2)));
  const auto view = space.render(kAlice);
  ASSERT_EQ(view.size(), 2u);
  EXPECT_EQ(view[0], "actions: Bob: send figures");   // t=3
  EXPECT_EQ(view[1], "minutes: draft in progress");   // t=2
}

TEST_F(ViewsTest, PoliciesAreVisibleToOthers) {
  EXPECT_EQ(space.describe_view(kBob), "full detail");
  space.set_view(kBob, ViewSpec::by_author(kAlice));
  EXPECT_EQ(space.describe_view(kBob), "items by user 1");
}

TEST_F(ViewsTest, TailoringFiresObserver) {
  std::vector<std::pair<ccontrol::ClientId, std::string>> changes;
  space.on_view_changed([&](ccontrol::ClientId who, const std::string& n) {
    changes.emplace_back(who, n);
  });
  space.set_view(kBob, ViewSpec::headlines());
  space.set_view(kBob, ViewSpec::full_detail());
  ASSERT_EQ(changes.size(), 2u);
  EXPECT_EQ(changes[0], (std::pair<ccontrol::ClientId, std::string>{
                            kBob, "headlines"}));
  EXPECT_EQ(changes[1].second, "full detail");
}

TEST_F(ViewsTest, UpdatesFlowThroughToViews) {
  int updates = 0;
  space.on_update([&](const ViewItem& item) {
    EXPECT_EQ(item.key, "agenda");
    ++updates;
  });
  space.put(kBob, "agenda", "1. QoS  2. AOB  3. dates", sim::sec(4));
  EXPECT_EQ(updates, 1);
  const auto view = space.render(kAlice);
  EXPECT_EQ(view[1], "agenda: 1. QoS  2. AOB  3. dates");
  // Provenance updated too.
  EXPECT_EQ(space.get("agenda")->author, kBob);
}

TEST_F(ViewsTest, EraseRemovesFromAllViews) {
  EXPECT_TRUE(space.erase("minutes"));
  EXPECT_FALSE(space.erase("minutes"));
  EXPECT_EQ(space.render(kAlice).size(), 2u);
  EXPECT_FALSE(space.get("minutes").has_value());
}

// The membership sense of "view" meets the WYSIWIS sense: each
// participant replicates one SharedViewSpace through a totally ordered
// SessionGroup, the coordinator and the sequencer crash together, and the
// survivors' rendered views must still agree after the partition of
// authority heals.
TEST(SharedViewAgreement, SurvivesCoordinatorAndSequencerCrash) {
  sim::Simulator sim(29);
  net::Network net(sim);
  const net::Address coord_addr{100, 1};
  groups::MembershipConfig mcfg;
  mcfg.enable_failover = true;
  groups::ChannelConfig ccfg;
  ccfg.ordering = groups::Ordering::kTotal;
  ccfg.retransmit_timeout = sim::msec(50);
  ccfg.max_retransmits = 100;
  auto coord = std::make_unique<groups::MembershipCoordinator>(net, coord_addr,
                                                               mcfg);
  struct Part {
    std::unique_ptr<SessionGroup> sg;
    SharedViewSpace space;
  };
  std::vector<std::unique_ptr<Part>> parts;
  const std::vector<net::NodeId> roster{1, 2, 3};
  for (const net::NodeId n : roster) {
    auto p = std::make_unique<Part>();
    p->sg = std::make_unique<SessionGroup>(net, n, roster, coord_addr, 7,
                                           SessionGroup::Ports(), mcfg, ccfg);
    Part* pp = p.get();
    p->sg->on_deliver([pp, &sim](const groups::Delivery& d) {
      // Payload is "key|value"; the author is the sending site.
      const auto bar = d.payload.find('|');
      pp->space.put(static_cast<ccontrol::ClientId>(d.sender + 1),
                    d.payload.substr(0, bar), d.payload.substr(bar + 1),
                    sim.now());
    });
    p->sg->join();
    parts.push_back(std::move(p));
  }
  sim.run_until(sim::msec(800));

  // broadcast() returns the sender's per-channel sequence number.
  EXPECT_EQ(parts[0]->sg->broadcast("agenda|1. QoS  2. AOB"), 1u);
  EXPECT_EQ(parts[1]->sg->broadcast("minutes|draft"), 1u);
  sim.run_until(sim::msec(1200));

  net.crash(100);  // membership coordinator
  net.crash(1);    // total-order sequencer (and participant 0)
  sim.run_until(sim::sec(5));

  EXPECT_EQ(parts[1]->sg->broadcast("minutes|approved"), 2u);
  EXPECT_EQ(parts[2]->sg->broadcast("actions|send figures"), 1u);
  sim.run_until(sim::sec(9));

  // Same shared state at both survivors, whatever their local policies.
  const auto v1 = parts[1]->space.render(1);
  const auto v2 = parts[2]->space.render(1);
  EXPECT_EQ(v1, v2);
  ASSERT_EQ(v1.size(), 3u);  // agenda, minutes (updated in place), actions
  EXPECT_EQ(parts[1]->space.get("minutes")->value, "approved");
  EXPECT_EQ(parts[2]->space.get("minutes")->value, "approved");
}

TEST_F(ViewsTest, CustomSpecCombinesFilterPresentOrder) {
  ViewSpec spec;
  spec.name = "alice's headlines, newest first";
  spec.filter = [](const ViewItem& i) { return i.author == kAlice; };
  spec.present = [](const ViewItem& i) { return "* " + i.key; };
  spec.order = ViewSpec::Order::kByRecency;
  space.set_view(kBob, std::move(spec));
  const auto view = space.render(kBob);
  ASSERT_EQ(view.size(), 2u);
  EXPECT_EQ(view[0], "* actions");
  EXPECT_EQ(view[1], "* agenda");
}

}  // namespace
}  // namespace coop::groupware
