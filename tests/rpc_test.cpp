// Tests for RPC (timeout/retry/at-most-once), the trader, and group RPC
// reply policies with real-time deadlines.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fault/fault.hpp"
#include "net/network.hpp"
#include "rpc/group_rpc.hpp"
#include "rpc/rpc.hpp"
#include "rpc/trader.hpp"
#include "sim/simulator.hpp"

namespace coop::rpc {
namespace {

class RpcTest : public ::testing::Test {
 protected:
  RpcTest() : sim(9), net(sim), server(net, {2, 1}), client(net, {1, 1}) {
    server.register_method("echo", [](const std::string& req) {
      return HandlerResult::success(req);
    });
    server.register_method("fail", [](const std::string&) {
      return HandlerResult::error("nope");
    });
  }

  sim::Simulator sim;
  net::Network net;
  RpcServer server;
  RpcClient client;
};

TEST_F(RpcTest, EchoRoundTrip) {
  RpcResult got;
  client.call({2, 1}, "echo", "ping", [&](const RpcResult& r) { got = r; });
  sim.run();
  EXPECT_TRUE(got.ok());
  EXPECT_EQ(got.reply, "ping");
  EXPECT_GT(got.rtt, 0);
  EXPECT_EQ(server.requests_handled(), 1u);
}

TEST_F(RpcTest, UnknownMethodReportsNoSuchMethod) {
  RpcResult got;
  client.call({2, 1}, "nope", "", [&](const RpcResult& r) { got = r; });
  sim.run();
  EXPECT_EQ(got.status, Status::kNoSuchMethod);
}

TEST_F(RpcTest, ApplicationErrorPropagates) {
  RpcResult got;
  client.call({2, 1}, "fail", "", [&](const RpcResult& r) { got = r; });
  sim.run();
  EXPECT_EQ(got.status, Status::kAppError);
  EXPECT_EQ(got.reply, "nope");
}

TEST_F(RpcTest, TimesOutAgainstCrashedServer) {
  net.crash(2);
  RpcResult got;
  client.call({2, 1}, "echo", "x", [&](const RpcResult& r) { got = r; },
              {.timeout = sim::msec(50), .retries = 2, .backoff = 2.0});
  sim.run();
  EXPECT_EQ(got.status, Status::kTimeout);
  EXPECT_EQ(client.timeouts(), 1u);
  // Total time: 50 + 100 + 200 ms of backoff.
  EXPECT_EQ(sim.now(), sim::msec(350));
}

TEST_F(RpcTest, RetriesSucceedOverLossyLink) {
  net.set_default_link({.latency = sim::msec(2), .jitter = sim::msec(1),
                        .bandwidth_bps = 10e6, .loss = 0.40});
  int ok = 0, bad = 0;
  for (int i = 0; i < 50; ++i) {
    client.call({2, 1}, "echo", std::to_string(i),
                [&](const RpcResult& r) { r.ok() ? ++ok : ++bad; },
                {.timeout = sim::msec(30), .retries = 20, .backoff = 1.2});
  }
  sim.run();
  EXPECT_EQ(ok, 50);
  EXPECT_EQ(bad, 0);
}

TEST_F(RpcTest, AtMostOnceExecutionUnderRetries) {
  // Drop every reply (but not requests) by making the server->client
  // direction lossy: the client retries, the server must not re-execute.
  int executions = 0;
  server.register_method("count", [&](const std::string&) {
    ++executions;
    return HandlerResult::success("done");
  });
  net.set_link(2, 1, {.latency = sim::msec(2), .jitter = 0,
                      .bandwidth_bps = 10e6, .loss = 1.0});
  RpcResult got;
  client.call({1 + 1, 1}, "count", "", [&](const RpcResult& r) { got = r; },
              {.timeout = sim::msec(20), .retries = 5, .backoff = 1.0});
  sim.run_until(sim::msec(80));
  net.set_link(2, 1, {.latency = sim::msec(2), .jitter = 0,
                      .bandwidth_bps = 10e6, .loss = 0.0});
  sim.run();
  EXPECT_TRUE(got.ok());
  EXPECT_EQ(executions, 1);
  EXPECT_GT(server.replays_served(), 0u);
}

TEST_F(RpcTest, ProcessingTimeDelaysReply) {
  server.set_processing_time(sim::msec(100));
  RpcResult got;
  client.call({2, 1}, "echo", "x", [&](const RpcResult& r) { got = r; },
              {.timeout = sim::msec(500), .retries = 0});
  sim.run();
  EXPECT_TRUE(got.ok());
  EXPECT_GE(got.rtt, sim::msec(100));
}

TEST_F(RpcTest, ConcurrentCallsMatchTheirReplies) {
  std::map<int, std::string> replies;
  for (int i = 0; i < 10; ++i)
    client.call({2, 1}, "echo", "v" + std::to_string(i),
                [&replies, i](const RpcResult& r) { replies[i] = r.reply; });
  sim.run();
  ASSERT_EQ(replies.size(), 10u);
  for (int i = 0; i < 10; ++i)
    EXPECT_EQ(replies[i], "v" + std::to_string(i));
}

TEST_F(RpcTest, RttSummaryAccumulates) {
  for (int i = 0; i < 5; ++i)
    client.call({2, 1}, "echo", "x", [](const RpcResult&) {});
  sim.run();
  EXPECT_EQ(client.rtt_summary().count(), 5u);
  EXPECT_GT(client.rtt_summary().mean(), 0.0);
}

TEST_F(RpcTest, AsyncMethodRepliesAfterVirtualTime) {
  server.register_async_method(
      "slow", [this](const std::string& req,
                     std::function<void(HandlerResult)> reply) {
        sim.schedule_after(sim::msec(300), [req, reply = std::move(reply)] {
          reply(HandlerResult::success("done:" + req));
        });
      });
  RpcResult got;
  client.call({2, 1}, "slow", "x", [&](const RpcResult& r) { got = r; },
              {.timeout = sim::sec(1), .retries = 0});
  sim.run();
  EXPECT_TRUE(got.ok());
  EXPECT_EQ(got.reply, "done:x");
  EXPECT_GE(got.rtt, sim::msec(300));
}

TEST_F(RpcTest, AsyncMethodAbsorbsRetriesWhileInProgress) {
  int executions = 0;
  server.register_async_method(
      "slow", [&, this](const std::string&,
                        std::function<void(HandlerResult)> reply) {
        ++executions;
        sim.schedule_after(sim::msec(200), [reply = std::move(reply)] {
          reply(HandlerResult::success("ok"));
        });
      });
  RpcResult got;
  // Per-attempt timeout shorter than the handler: the client retries
  // while the first execution is still running.
  client.call({2, 1}, "slow", "x", [&](const RpcResult& r) { got = r; },
              {.timeout = sim::msec(50), .retries = 8, .backoff = 1.0});
  sim.run();
  EXPECT_TRUE(got.ok());
  EXPECT_EQ(executions, 1);
}

TEST_F(RpcTest, RestartedClientNeverGetsPredecessorsReply) {
  // A re-created client restarts at req id 1.  The server must not take
  // its first call for a retry of the predecessor's call 1.
  int counter = 0;
  server.register_method("next", [&](const std::string&) {
    return HandlerResult::success(std::to_string(++counter));
  });
  // Takes over the fixture client's address, as a restarted process would.
  auto c = std::make_unique<RpcClient>(net, net::Address{1, 1});
  std::vector<std::string> got;
  const auto call = [&] {
    c->call({2, 1}, "next", "", [&](const RpcResult& r) {
      got.push_back(r.ok() ? r.reply : "error");
    });
    sim.run();
  };
  call();
  call();
  c.reset();
  c = std::make_unique<RpcClient>(net, net::Address{1, 1});
  call();
  EXPECT_EQ(got, (std::vector<std::string>{"1", "2", "3"}));
  EXPECT_EQ(server.replays_served(), 0u);
}

TEST_F(RpcTest, DuplicateBelowAckFloorIsStaleAndNotExecuted) {
  int executions = 0;
  server.register_method("count", [&](const std::string&) {
    ++executions;
    return HandlerResult::success("done");
  });
  // Keep a copy of the first request datagram, to re-deliver it after the
  // client has moved on.
  std::optional<net::Message> first;
  net.set_inject_hook([&](const net::Message& msg) {
    if (!first && msg.dst == net::Address{2, 1}) first = msg;
    return net::InjectDecision{};
  });
  int ok = 0;
  for (int i = 0; i < 2; ++i) {
    client.call({2, 1}, "count", "", [&](const RpcResult& r) { ok += r.ok(); });
    sim.run();
  }
  ASSERT_EQ(ok, 2);
  ASSERT_TRUE(first.has_value());
  // Call 2 carried ack floor 2, so call 1's reply is gone; the late copy
  // of call 1 is dropped unexecuted instead of replayed or re-run.
  EXPECT_EQ(server.replay_entries(), 1u);
  const std::uint64_t sent = net.stats().sent;
  net.send(*first);
  sim.run();
  EXPECT_EQ(executions, 2);
  EXPECT_EQ(server.stale_drops(), 1u);
  EXPECT_EQ(server.replays_served(), 0u);
  EXPECT_EQ(net.stats().sent, sent + 1);  // no reply went out
}

TEST_F(RpcTest, LateAsyncReplyBelowFloorIsSentButNotCached) {
  std::vector<std::function<void(HandlerResult)>> parked;
  server.register_async_method(
      "park", [&](const std::string&, std::function<void(HandlerResult)> r) {
        parked.push_back(std::move(r));
      });
  RpcResult gave_up;
  client.call({2, 1}, "park", "", [&](const RpcResult& r) { gave_up = r; },
              {.timeout = sim::msec(20), .retries = 0});
  sim.run();
  ASSERT_EQ(gave_up.status, Status::kTimeout);
  RpcResult got;
  client.call({2, 1}, "echo", "x", [&](const RpcResult& r) { got = r; });
  sim.run();
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(parked.size(), 1u);
  const std::uint64_t sent = net.stats().sent;
  parked.front()(HandlerResult::success("late"));
  sim.run();
  EXPECT_EQ(net.stats().sent, sent + 1);   // the reply still goes out
  EXPECT_EQ(server.replay_entries(), 1u);  // only the echo reply is kept
}

TEST(RpcBoundedCacheTest, ClosedLoopClientsKeepTheCacheBounded) {
  // 4 closed-loop clients, 10k calls over a lossy, jittered link that
  // also duplicates and delays datagrams.  The cache never holds more
  // than one finished reply per client plus the outstanding calls, and
  // every call executes at most once.
  sim::Simulator sim(17);
  net::Network net(sim);
  net.set_default_link({.latency = sim::msec(2), .jitter = sim::msec(2),
                        .bandwidth_bps = 10e6, .loss = 0.1});
  fault::FaultPlan plan(net);
  plan.duplicate(0, sim::sec(3600), 0.3)
      .delay(0, sim::sec(3600), 0.05, sim::msec(40));
  plan.arm();
  RpcServer server(net, {9, 1});
  std::map<std::string, int> executions;
  server.register_method("op", [&](const std::string& req) {
    ++executions[req];
    return HandlerResult::success(req);
  });

  constexpr int kClients = 4;
  constexpr int kCalls = 10000;
  std::vector<std::unique_ptr<RpcClient>> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<RpcClient>(
        net, net::Address{static_cast<net::NodeId>(c + 1), 1}));
  }
  int issued = 0;
  int outstanding = 0;
  int ok = 0;
  std::size_t max_entries = 0;
  bool bounded = true;
  std::function<void(int)> issue = [&](int c) {
    if (issued == kCalls) return;
    // The body names the call: one per (client epoch, req id).
    const std::string req =
        std::to_string(c) + "." + std::to_string(issued++);
    ++outstanding;
    clients[static_cast<std::size_t>(c)]->call(
        {9, 1}, "op", req,
        [&, c](const RpcResult& r) {
          --outstanding;
          ok += r.ok();
          const std::size_t entries = server.replay_entries();
          max_entries = std::max(max_entries, entries);
          if (entries > static_cast<std::size_t>(kClients + outstanding))
            bounded = false;
          issue(c);
        },
        {.timeout = sim::msec(30), .retries = 8});
  };
  for (int c = 0; c < kClients; ++c) issue(c);
  sim.run();

  EXPECT_EQ(issued, kCalls);
  EXPECT_GT(ok, kCalls * 99 / 100);
  EXPECT_TRUE(bounded) << "peak entries " << max_entries;
  EXPECT_LE(server.replay_entries(), static_cast<std::size_t>(kClients));
  for (const auto& [req, n] : executions) EXPECT_EQ(n, 1) << req;
  EXPECT_GT(plan.injected().duplicate_frames, 0u);
  EXPECT_GT(server.replays_served(), 0u);
  EXPECT_GT(server.stale_drops(), 0u);
}

// ---------------------------------------------------------------- trader

TEST(TraderTest, ExportImportWithdrawLifecycle) {
  sim::Simulator sim(4);
  net::Network net(sim);
  Trader trader(net, {50, 1});
  RpcClient rpc(net, {1, 1});
  TraderClient tc(rpc, {50, 1});

  std::uint64_t id_a = 0, id_b = 0;
  tc.export_offer({.service_type = "session.whiteboard",
                   .provider = {10, 5},
                   .properties = {{"room", "ops"}}},
                  [&](std::uint64_t id) { id_a = id; });
  tc.export_offer({.service_type = "session.whiteboard",
                   .provider = {11, 5},
                   .properties = {{"room", "dev"}}},
                  [&](std::uint64_t id) { id_b = id; });
  sim.run();
  EXPECT_NE(id_a, 0u);
  EXPECT_NE(id_b, 0u);
  EXPECT_EQ(trader.offer_count(), 2u);

  std::vector<Offer> all, ops_only;
  tc.import("session.whiteboard", {}, [&](std::vector<Offer> o) {
    all = std::move(o);
  });
  tc.import("session.whiteboard", {{"room", "ops"}},
            [&](std::vector<Offer> o) { ops_only = std::move(o); });
  sim.run();
  EXPECT_EQ(all.size(), 2u);
  ASSERT_EQ(ops_only.size(), 1u);
  EXPECT_EQ(ops_only[0].provider, (net::Address{10, 5}));

  bool withdrawn = false;
  tc.withdraw(id_a, [&](bool ok) { withdrawn = ok; });
  sim.run();
  EXPECT_TRUE(withdrawn);
  EXPECT_EQ(trader.offer_count(), 1u);

  std::vector<Offer> after;
  tc.import("session.whiteboard", {}, [&](std::vector<Offer> o) {
    after = std::move(o);
  });
  sim.run();
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].provider, (net::Address{11, 5}));
}

TEST(TraderTest, ImportOfUnknownTypeReturnsEmpty) {
  sim::Simulator sim(4);
  net::Network net(sim);
  Trader trader(net, {50, 1});
  RpcClient rpc(net, {1, 1});
  TraderClient tc(rpc, {50, 1});
  std::vector<Offer> got{{}};  // non-empty sentinel
  tc.import("nothing.like.this", {}, [&](std::vector<Offer> o) {
    got = std::move(o);
  });
  sim.run();
  EXPECT_TRUE(got.empty());
}

TEST(TraderTest, WithdrawUnknownOfferFails) {
  sim::Simulator sim(4);
  net::Network net(sim);
  Trader trader(net, {50, 1});
  RpcClient rpc(net, {1, 1});
  TraderClient tc(rpc, {50, 1});
  bool result = true;
  tc.withdraw(999, [&](bool ok) { result = ok; });
  sim.run();
  EXPECT_FALSE(result);
}

// -------------------------------------------------------------- group RPC

class GroupRpcTest : public ::testing::Test {
 protected:
  GroupRpcTest() : sim(6), net(sim), client(net, {1, 1}), invoker(client) {
    for (net::NodeId n = 10; n < 14; ++n) {
      servers.push_back(std::make_unique<RpcServer>(
          net, net::Address{n, 1}));
      servers.back()->register_method("ping", [n](const std::string&) {
        return HandlerResult::success("pong" + std::to_string(n));
      });
      targets.push_back({n, 1});
    }
  }

  sim::Simulator sim;
  net::Network net;
  RpcClient client;
  GroupInvoker invoker;
  std::vector<std::unique_ptr<RpcServer>> servers;
  std::vector<net::Address> targets;
};

TEST_F(GroupRpcTest, AllPolicyWaitsForEveryReply) {
  GroupResult got;
  int calls = 0;
  invoker.invoke(targets, "ping", "", [&](const GroupResult& r) {
    got = r;
    ++calls;
  });
  sim.run();
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(got.satisfied);
  EXPECT_EQ(got.ok_count, 4u);
  EXPECT_FALSE(got.deadline_hit);
  ASSERT_EQ(got.replies.size(), 4u);
  EXPECT_EQ(got.replies[0].reply, "pong10");
  EXPECT_EQ(got.replies[3].reply, "pong13");
}

TEST_F(GroupRpcTest, FirstPolicyCompletesOnFastestServer) {
  // Make server 12 much faster than the rest.
  net.set_default_link({.latency = sim::msec(50), .jitter = 0,
                        .bandwidth_bps = 10e6, .loss = 0});
  net.set_symmetric_link(1, 12, {.latency = sim::msec(1), .jitter = 0,
                                 .bandwidth_bps = 10e6, .loss = 0});
  GroupResult got;
  invoker.invoke(targets, "ping", "",
                 [&](const GroupResult& r) { got = r; },
                 {.policy = ReplyPolicy::kFirst});
  sim.run_until(sim::msec(10));
  EXPECT_TRUE(got.satisfied);
  EXPECT_EQ(got.ok_count, 1u);
  EXPECT_LT(got.latency, sim::msec(10));
}

TEST_F(GroupRpcTest, QuorumPolicyNeedsK) {
  net.crash(13);
  GroupResult got;
  invoker.invoke(targets, "ping", "",
                 [&](const GroupResult& r) { got = r; },
                 {.policy = ReplyPolicy::kQuorum, .quorum = 3,
                  .per_call = {.timeout = sim::msec(50), .retries = 1}});
  sim.run();
  EXPECT_TRUE(got.satisfied);
  EXPECT_EQ(got.ok_count, 3u);
}

TEST_F(GroupRpcTest, QuorumUnreachableReportsUnsatisfied) {
  net.crash(11);
  net.crash(12);
  net.crash(13);
  GroupResult got;
  invoker.invoke(targets, "ping", "",
                 [&](const GroupResult& r) { got = r; },
                 {.policy = ReplyPolicy::kQuorum, .quorum = 3,
                  .per_call = {.timeout = sim::msec(20), .retries = 0}});
  sim.run();
  EXPECT_FALSE(got.satisfied);
  EXPECT_EQ(got.ok_count, 1u);
}

TEST_F(GroupRpcTest, DeadlineBoundsCompletionTime) {
  // One server is slow; the deadline must fire before its reply.
  servers[3]->set_processing_time(sim::msec(500));
  GroupResult got;
  bool fired = false;
  invoker.invoke(targets, "ping", "",
                 [&](const GroupResult& r) {
                   got = r;
                   fired = true;
                 },
                 {.policy = ReplyPolicy::kAll, .deadline = sim::msec(100),
                  .per_call = {.timeout = sim::sec(1), .retries = 0}});
  sim.run_until(sim::msec(150));
  ASSERT_TRUE(fired);
  EXPECT_TRUE(got.deadline_hit);
  EXPECT_FALSE(got.satisfied);
  EXPECT_EQ(got.ok_count, 3u);  // the three fast servers made it
  EXPECT_EQ(got.latency, sim::msec(100));
  // The straggler's late reply must not re-fire the callback.
  int extra = 0;
  sim.run();
  (void)extra;
}

TEST_F(GroupRpcTest, EmptyTargetListCompletesImmediately) {
  GroupResult got;
  int calls = 0;
  invoker.invoke({}, "ping", "", [&](const GroupResult& r) {
    got = r;
    ++calls;
  });
  sim.run();
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(got.satisfied);
  EXPECT_EQ(got.ok_count, 0u);
}

TEST_F(GroupRpcTest, DeadlineMissRateGrowsWithGroupSizeUnderJitter) {
  // Sanity check of the E8 experiment's mechanism: with jittery links, a
  // fixed deadline is missed more often by larger groups.
  net.set_default_link({.latency = sim::msec(10), .jitter = sim::msec(8),
                        .bandwidth_bps = 10e6, .loss = 0});
  auto miss_rate = [&](std::size_t n_targets) {
    int misses = 0;
    const int trials = 60;
    for (int t = 0; t < trials; ++t) {
      invoker.invoke(std::vector<net::Address>(targets.begin(),
                                               targets.begin() +
                                                   static_cast<long>(
                                                       n_targets)),
                     "ping", "",
                     [&](const GroupResult& r) {
                       if (r.deadline_hit) ++misses;
                     },
                     {.policy = ReplyPolicy::kAll,
                      .deadline = sim::msec(33),
                      .per_call = {.timeout = sim::msec(100), .retries = 0}});
      sim.run();
    }
    return static_cast<double>(misses) / trials;
  };
  const double small = miss_rate(1);
  const double large = miss_rate(4);
  EXPECT_GE(large, small);
}

TEST_F(GroupRpcTest, ReplyInSameStepAsDeadlineWins) {
  // Zero jitter, infinite bandwidth, 10ms each way: every reply lands at
  // exactly t=20ms.  A deadline of exactly 20ms was scheduled at invoke
  // time, so the step's FIFO tie-break runs it *before* the deliveries —
  // the deadline must defer to them, not expire the call.
  net.set_default_link({.latency = sim::msec(10), .jitter = 0,
                        .bandwidth_bps = 0 /* infinite */, .loss = 0});
  GroupResult got;
  int calls = 0;
  invoker.invoke(targets, "ping", "",
                 [&](const GroupResult& r) {
                   got = r;
                   ++calls;
                 },
                 {.policy = ReplyPolicy::kAll, .deadline = sim::msec(20),
                  .per_call = {.timeout = sim::sec(1), .retries = 0}});
  sim.run();
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(got.satisfied);
  EXPECT_FALSE(got.deadline_hit);
  EXPECT_EQ(got.ok_count, 4u);
  EXPECT_EQ(got.latency, sim::msec(20));
}

// ------------------------------------------------- robustness satellites

TEST(RpcJitterTest, BackoffJitterIsDeterministicAndOptIn) {
  const auto fingerprint = [](double jitter) {
    sim::Simulator sim(31);
    net::Network net(sim);
    net.set_default_link({.latency = sim::msec(5), .jitter = sim::msec(2),
                          .bandwidth_bps = 10e6, .loss = 0.4});
    RpcServer server(net, {2, 1});
    server.register_method("echo", [](const std::string& req) {
      return HandlerResult::success(req);
    });
    RpcClient client(net, {1, 1});
    std::string fp;
    for (int i = 0; i < 8; ++i) {
      client.call({2, 1}, "echo", std::to_string(i),
                  [&fp, i](const RpcResult& r) {
                    fp += std::to_string(i) + ":" +
                          std::to_string(static_cast<int>(r.status)) + "@" +
                          std::to_string(r.rtt) + ";";
                  },
                  {.timeout = sim::msec(30), .retries = 6,
                   .backoff_jitter = jitter});
    }
    sim.run();
    return fp;
  };
  // Same seed + same knob => byte-identical outcomes...
  EXPECT_EQ(fingerprint(0.3), fingerprint(0.3));
  // ...and the jitter draw genuinely moves the retry schedule.
  EXPECT_NE(fingerprint(0.3), fingerprint(0.0));
}

TEST(RpcJitterTest, RetryEventRecordsTheJitteredWait) {
  sim::Simulator sim(5);
  net::Network net(sim);
  RpcClient client(net, {1, 1});
  // No server attached: every attempt times out, producing retry events.
  const sim::Duration nominal = sim::msec(100);
  client.call({9, 1}, "void", "", [](const RpcResult&) {},
              {.timeout = nominal, .retries = 1, .backoff = 1.0,
               .backoff_jitter = 0.5});
  sim.run();
  bool saw_retry = false;
  for (const obs::TraceEvent& e : net.obs().tracer.snapshot()) {
    if (e.category != obs::Category::kRpc ||
        std::string_view(e.name) != "retry") {
      continue;
    }
    saw_retry = true;
    for (std::uint8_t i = 0; i < e.attr_count; ++i) {
      if (std::string_view(e.attrs[i].key) != "waited") continue;
      const auto waited = static_cast<sim::Duration>(e.attrs[i].value);
      // The recorded wait is the jittered one: inside [50ms, 150ms] and
      // (with this seed) not the nominal value.
      EXPECT_GE(waited, nominal / 2);
      EXPECT_LE(waited, nominal + nominal / 2);
      EXPECT_NE(waited, nominal);
    }
  }
  EXPECT_TRUE(saw_retry);
}

TEST(RpcRestartTest, ReplayCacheIsPerIncarnation) {
  sim::Simulator sim(13);
  net::Network net(sim);
  net.set_default_link({.latency = sim::msec(10), .jitter = 0,
                        .bandwidth_bps = 0, .loss = 0});
  int executions = 0;
  const auto make_server = [&]() {
    auto s = std::make_unique<RpcServer>(net, net::Address{2, 1});
    s->register_method("bump", [&executions](const std::string&) {
      ++executions;
      return HandlerResult::success("done");
    });
    return s;
  };
  auto server = make_server();
  server->set_processing_time(sim::msec(20));

  RpcClient client(net, {1, 1});
  RpcResult got;
  client.call({2, 1}, "bump", "", [&](const RpcResult& r) { got = r; },
              {.timeout = sim::msec(100), .retries = 3});

  // The request arrives at 10ms and executes; the reply would leave at
  // 30ms — but the server fail-stops at 15ms, taking the replay cache
  // with it.  The client's retry reaches the restarted incarnation,
  // whose empty cache legitimately re-executes the operation.
  sim.schedule_at(sim::msec(15), [&] {
    net.crash(2);
    server.reset();
  });
  sim.schedule_at(sim::msec(50), [&] {
    net.restart(2);
    server = make_server();
  });
  sim.run();

  EXPECT_TRUE(got.ok());
  EXPECT_EQ(executions, 2);  // once per incarnation: at-most-once held twice
}

}  // namespace
}  // namespace coop::rpc
