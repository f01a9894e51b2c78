// conference — 16 rooms x 8 participants on LAN and WAN links with 0.1%
// loss.  Each room is a kTotal GroupChannel carrying shared-application
// input at 20 Hz per participant, plus a floor-control RpcServer with
// admission control.  Open loop: every input and floor call is issued on
// its virtual-time schedule whatever the session's state.
//
// Ops: one input delivered at every member of its room (latency = last
// member's delivery - broadcast), or one floor call answered (latency =
// call rtt).  Check: every member of a room delivered the same total
// order, every input reached every member, every floor call succeeded.
#include <deque>

#include "core/coop.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

using namespace coop;

constexpr int kRooms = 16;
constexpr int kMembers = 8;
constexpr int kRemoteFrom = 5;  // members 5..7 of a room sit at the WAN site
constexpr Duration kInputPeriod = sim::msec(50);  // 20 Hz shared input
constexpr Duration kFloorPeriod = sim::sec(2);
constexpr Duration kWarmUp = sim::sec(3);
// Virtual seconds simulated per requested host second (calibrated so a
// --seconds S run takes about S seconds on a 4-core x86 box).
constexpr double kVirtualPerHostSecond = 12.0;
constexpr std::size_t kPayloadBytes = 64;

constexpr net::PortId kChanPort = 10;
constexpr net::PortId kClientPort = 11;
constexpr net::PortId kFloorPort = 12;

net::NodeId member_node(int r, int m) {
  return static_cast<net::NodeId>(1 + r * kMembers + m);
}
net::NodeId floor_node(int r) { return static_cast<net::NodeId>(1000 + r); }

net::LinkModel lossy(net::LinkModel m) {
  m.loss = 0.001;
  return m;
}

class Conference final : public Session {
 public:
  Conference(std::uint64_t seed, bool traced)
      : Session(traced),
        p_(std::make_unique<Platform>(seed, obs_.get())),
        gen_(seed ^ 0xc0fe7e11ce5eedULL) {
    net::Network& net = p_->network();
    sim::Simulator& sim = p_->simulator();
    net.set_default_link(lossy(net::LinkModel::lan()));
    const net::LinkModel wan = lossy(net::LinkModel::wan());
    prof_broadcast_ =
        obs_->profiler.site("bench.groups.broadcast", obs::Category::kGroup);
    prof_call_ = obs_->profiler.site("bench.rpc.call", obs::Category::kRpc);

    groups::ChannelConfig cfg;
    cfg.ordering = groups::Ordering::kTotal;
    // Above the WAN round trip, so retransmits measure loss, not a timer
    // shorter than the path.
    cfg.retransmit_timeout = sim::msec(200);

    rooms_.resize(kRooms);
    for (int r = 0; r < kRooms; ++r) {
      Room& room = rooms_[static_cast<std::size_t>(r)];
      std::vector<net::Address> addrs;
      for (int m = 0; m < kMembers; ++m)
        addrs.push_back({member_node(r, m), kChanPort});
      for (int m = kRemoteFrom; m < kMembers; ++m) {
        for (int a = 0; a < kRemoteFrom; ++a)
          net.set_symmetric_link(member_node(r, a), member_node(r, m), wan);
        net.set_symmetric_link(floor_node(r), member_node(r, m), wan);
      }
      room.floor = std::make_unique<ccontrol::FloorControl>(
          sim, ccontrol::FloorConfig{.policy =
                                         ccontrol::FloorPolicy::kPreemptive});
      room.server = std::make_unique<rpc::RpcServer>(
          net, net::Address{floor_node(r), kFloorPort});
      room.server->set_processing_time(sim::usec(200));
      room.server->set_admission(rpc::AdmissionConfig{});
      room.server->register_method(
          "floor", [fc = room.floor.get()](const std::string& req) {
            bool granted = false;
            fc->request(static_cast<ccontrol::ClientId>(std::stoul(req)),
                        [&granted](bool g) { granted = g; });
            return rpc::HandlerResult::success(granted ? "granted" : "queued");
          });
      room.members.resize(kMembers);
      for (int m = 0; m < kMembers; ++m) {
        Member& mb = room.members[static_cast<std::size_t>(m)];
        mb.channel = std::make_unique<groups::GroupChannel>(
            net, addrs[static_cast<std::size_t>(m)],
            static_cast<net::McastId>(100 + r), cfg);
        mb.channel->on_deliver(
            [this, r, m](const groups::Delivery& d) { on_delivery(r, m, d); });
        mb.client = std::make_unique<rpc::RpcClient>(
            net, net::Address{member_node(r, m), kClientPort});
      }
      for (Member& mb : room.members) mb.channel->set_members(addrs);
      for (int m = 0; m < kMembers; ++m) {
        Member& mb = room.members[static_cast<std::size_t>(m)];
        mb.input = std::make_unique<sim::PeriodicTimer>(
            sim, kInputPeriod, [this, r, m] { send_input(r, m); });
        mb.input->start(static_cast<Duration>(
            gen_.uniform_int(1, kInputPeriod)));
        mb.floor_timer = std::make_unique<sim::PeriodicTimer>(
            sim, kFloorPeriod, [this, r, m] { call_floor(r, m); });
        mb.floor_timer->start(static_cast<Duration>(
            gen_.uniform_int(1, kFloorPeriod)));
      }
    }
  }

  void warm_up() override { p_->run_until(p_->simulator().now() + kWarmUp); }
  [[nodiscard]] TimePoint now() const override {
    return p_->simulator().now();
  }
  void run_until(TimePoint t) override { p_->run_until(t); }
  [[nodiscard]] Duration window(int seconds) const override {
    return timed_window(seconds, kVirtualPerHostSecond, kFloorPeriod);
  }
  [[nodiscard]] std::size_t pending() const override {
    return p_->simulator().pending();
  }

  void begin_window() override {
    base_ = totals();
    ops_.open();
  }

  void end_window() override {
    ops_.close();
    for (Room& room : rooms_) {
      for (Member& mb : room.members) {
        mb.input->stop();
        mb.floor_timer->stop();
      }
    }
  }

  void drain() override { p_->run(); }

  [[nodiscard]] std::uint64_t group_deliveries() const override {
    return totals().group_delivered - base_.group_delivered;
  }

  void check(CheckReport& out) override {
    std::uint64_t h = kFnvBasis;
    int bad_rooms = 0;
    std::uint64_t open_inputs = 0;
    for (Room& room : rooms_) {
      std::uint64_t broadcasts = 0;
      for (const Member& mb : room.members) {
        broadcasts += mb.sent;
        open_inputs += mb.open.size();
      }
      bool same = true;
      for (const Member& mb : room.members) {
        same = same && mb.delivered == broadcasts &&
               mb.order_hash == room.members.front().order_hash;
        fnv_mix(h, mb.order_hash);
        fnv_mix(h, mb.delivered);
      }
      if (!same) {
        ++bad_rooms;
        ops_.discount(room.counted_done);
      }
    }
    fnv_mix(h, floor_hash_);
    fnv_mix(h, floor_ok_);
    out.outcome_hash = h;
    out.add("same_total_order_per_room", bad_rooms == 0,
            std::to_string(bad_rooms) + " of " + std::to_string(kRooms) +
                " rooms disagree");
    out.add("inputs_delivered_everywhere", open_inputs == 0 && anomalies_ == 0,
            std::to_string(open_inputs) + " open, " +
                std::to_string(anomalies_) + " unmatched deliveries");
    out.add("floor_calls_answered", floor_failed_ == 0,
            std::to_string(floor_ok_) + " ok, " +
                std::to_string(floor_failed_) + " failed");
    out.add("kernel_quiescent_after_drain", p_->simulator().pending() == 0);
  }

  void layer_counts(Metrics& out) override {
    const Totals now = totals();
    out.push_back({"sim.events",
                   static_cast<double>(now.events - base_.events), "count"});
    out.push_back({"net.datagrams",
                   static_cast<double>(now.net.sent - base_.net.sent),
                   "count"});
    out.push_back(
        {"net.bytes",
         static_cast<double>(now.net.bytes_sent - base_.net.bytes_sent), "B"});
    out.push_back({"net.dropped",
                   static_cast<double>(dropped(now.net) - dropped(base_.net)),
                   "count"});
    out.push_back(
        {"groups.delivered",
         static_cast<double>(now.group_delivered - base_.group_delivered),
         "count"});
    out.push_back(
        {"groups.retransmits",
         static_cast<double>(now.group_retransmits - base_.group_retransmits),
         "count"});
    out.push_back({"groups.held_back_max",
                   static_cast<double>(now.held_back_max), "count"});
    out.push_back({"rpc.calls",
                   static_cast<double>(now.rpc_calls - base_.rpc_calls),
                   "count"});
    out.push_back({"rpc.failed",
                   static_cast<double>(now.rpc_failed - base_.rpc_failed),
                   "count"});
  }

 private:
  struct InputOp {
    TimePoint issued = 0;
    int remaining = kMembers;
    bool counted = false;
  };
  struct Member {
    std::unique_ptr<groups::GroupChannel> channel;
    std::unique_ptr<rpc::RpcClient> client;
    std::unique_ptr<sim::PeriodicTimer> input;
    std::unique_ptr<sim::PeriodicTimer> floor_timer;
    std::deque<InputOp> open;  // own broadcasts not yet delivered everywhere
    std::uint64_t first_seq = 1;  // per-sender seq of open.front()
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
    std::uint64_t order_hash = kFnvBasis;
    std::uint64_t calls = 0;
  };
  struct Room {
    std::unique_ptr<ccontrol::FloorControl> floor;
    std::unique_ptr<rpc::RpcServer> server;
    std::vector<Member> members;
    std::uint64_t counted_done = 0;  // counted input ops completed
  };
  struct Totals {
    std::uint64_t events = 0;
    net::NetworkStats net;
    std::uint64_t group_delivered = 0;
    std::uint64_t group_retransmits = 0;
    std::uint64_t held_back_max = 0;
    std::uint64_t rpc_calls = 0;
    std::uint64_t rpc_failed = 0;
  };

  static std::uint64_t dropped(const net::NetworkStats& s) {
    return s.dropped_loss + s.dropped_partition + s.dropped_no_endpoint +
           s.dropped_corrupt;
  }

  Totals totals() const {
    Totals t;
    t.events = p_->simulator().events_processed();
    t.net = p_->network().stats();
    for (const Room& room : rooms_) {
      t.rpc_failed += room.server->shed_total();
      for (const Member& mb : room.members) {
        t.group_delivered += mb.channel->stats().delivered;
        t.group_retransmits += mb.channel->stats().retransmits;
        t.held_back_max =
            std::max(t.held_back_max, mb.channel->stats().held_back_max);
        t.rpc_calls += mb.calls;
        t.rpc_failed += mb.client->timeouts() + mb.client->rejected();
      }
    }
    return t;
  }

  void send_input(int r, int m) {
    sim::Simulator& sim = p_->simulator();
    Member& mb = rooms_[static_cast<std::size_t>(r)]
                     .members[static_cast<std::size_t>(m)];
    std::string payload = "input/" + std::to_string(r) + "/" +
                          std::to_string(m) + "/" + std::to_string(mb.sent);
    payload.resize(kPayloadBytes, '.');
    // Registered before the call: the sequencer's own member delivers its
    // broadcast synchronously inside broadcast().
    const std::uint64_t expected_seq = mb.first_seq + mb.open.size();
    mb.open.push_back({sim.now(), kMembers, ops_.issue()});
    ++mb.sent;
    std::uint64_t seq = 0;
    {
      obs::ProfScope ps(obs_->profiler, prof_broadcast_);
      seq = mb.channel->broadcast(std::move(payload));
    }
    if (seq != expected_seq) ++anomalies_;
    ops_.sample_pending(sim.pending());
  }

  void on_delivery(int r, int m, const groups::Delivery& d) {
    Room& room = rooms_[static_cast<std::size_t>(r)];
    Member& me = room.members[static_cast<std::size_t>(m)];
    fnv_mix(me.order_hash, (static_cast<std::uint64_t>(d.sender) << 40) ^
                               d.seq);
    ++me.delivered;
    if (d.sender >= room.members.size()) {
      ++anomalies_;
      return;
    }
    Member& from = room.members[d.sender];
    const std::uint64_t idx = d.seq - from.first_seq;
    if (d.seq < from.first_seq || idx >= from.open.size()) {
      ++anomalies_;
      return;
    }
    InputOp& op = from.open[idx];
    if (--op.remaining == 0) {
      ops_.complete(op.counted, p_->simulator().now() - op.issued);
      if (op.counted) ++room.counted_done;
    }
    while (!from.open.empty() && from.open.front().remaining == 0) {
      from.open.pop_front();
      ++from.first_seq;
    }
  }

  void call_floor(int r, int m) {
    Member& mb = rooms_[static_cast<std::size_t>(r)]
                     .members[static_cast<std::size_t>(m)];
    const bool counted = ops_.issue();
    ++mb.calls;
    rpc::CallOptions opts;
    opts.timeout = sim::msec(500);
    opts.retries = 3;
    opts.priority = net::Priority::kControl;
    obs::ProfScope ps(obs_->profiler, prof_call_);
    mb.client->call(
        {floor_node(r), kFloorPort}, "floor",
        std::to_string(member_node(r, m)),
        [this, counted](const rpc::RpcResult& res) {
          if (!res.ok()) {
            ++floor_failed_;
            return;
          }
          ++floor_ok_;
          fnv_mix(floor_hash_, static_cast<std::uint64_t>(res.rtt));
          fnv_mix(floor_hash_, res.reply.size());
          ops_.complete(counted, res.rtt);
        },
        opts);
  }

  std::unique_ptr<Platform> p_;
  sim::Rng gen_;  // workload draws, apart from the kernel's stream
  obs::Profiler::SiteId prof_broadcast_ = obs::Profiler::kInvalidSite;
  obs::Profiler::SiteId prof_call_ = obs::Profiler::kInvalidSite;
  std::vector<Room> rooms_;
  Totals base_;
  std::uint64_t anomalies_ = 0;
  std::uint64_t floor_ok_ = 0;
  std::uint64_t floor_failed_ = 0;
  std::uint64_t floor_hash_ = kFnvBasis;
};

}  // namespace

std::unique_ptr<Session> make_conference(std::uint64_t seed, bool traced) {
  return std::make_unique<Conference>(seed, traced);
}

}  // namespace perfbench
