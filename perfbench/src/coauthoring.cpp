// coauthoring — 8 documents x 6 authors spread over a LAN site and a WAN
// site, writes beside reads.
//
// Writes (open loop, 5 Hz per author): edits go through OT
// (EditorServer/EditorClient over FifoChannel).  A replica at each
// document's host sees every accepted edit and persists the edited
// section with DurableStore::put (group commit, checkpoints on).  Each
// author inserts runs of its own letter and erases only its own letters,
// so no two concurrent deletes hit one character (OT would turn the
// second into a no-op that is never relayed).
//
// Reads (closed loop): 4 readers per document fetch sections over RPC
// from a store-backed server; a reader sends its next read 20 ms after
// the previous reply.  About 4 reads per edit.
//
// Ops: an edit visible at every replica and durable (latency = the later
// of the last replica's apply and the put's ack), or a read answered
// (latency = call rtt).  Checks: every replica converged to the host's
// document; every acked put reads back; every read succeeded.
#include <array>
#include <deque>

#include "core/coop.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

using namespace coop;

constexpr int kDocs = 8;
constexpr int kAuthors = 6;
constexpr int kLocalAuthors = 4;  // authors at the document host's site
constexpr int kReaders = 4;
constexpr int kLocalReaders = 2;
constexpr ccontrol::SiteId kObserverSite = 99;
constexpr Duration kEditPeriod = sim::msec(200);
constexpr Duration kThink = sim::msec(20);
constexpr Duration kConnect = sim::sec(1);
constexpr Duration kWarmUp = sim::sec(20);
constexpr std::size_t kSection = 128;
constexpr std::size_t kSections = 16;  // section key = (pos / 128) % 16
constexpr std::size_t kTargetLen = 2048;
// Virtual seconds per requested host second (see conference.cpp).
constexpr double kVirtualPerHostSecond = 80.0;

constexpr net::PortId kEditPort = 20;
constexpr net::PortId kObserverPort = 21;
constexpr net::PortId kReadPort = 22;
constexpr net::PortId kClientPort = 23;

net::NodeId host_node(int d) { return static_cast<net::NodeId>(100 + d); }
net::NodeId author_node(int d, int a) {
  return static_cast<net::NodeId>(1 + d * kAuthors + a);
}
net::NodeId reader_node(int d, int k) {
  return static_cast<net::NodeId>(200 + d * kReaders + k);
}

net::LinkModel lossy(net::LinkModel m) {
  m.loss = 0.001;
  return m;
}

std::string section_key(int d, std::size_t k) {
  return "doc" + std::to_string(d) + "/s" + std::to_string(k);
}

class Coauthoring final : public Session {
 public:
  Coauthoring(std::uint64_t seed, bool traced)
      : Session(traced),
        p_(std::make_unique<Platform>(seed, obs_.get())),
        gen_(seed ^ 0xc0a07e5eedULL) {
    net::Network& net = p_->network();
    sim::Simulator& sim = p_->simulator();
    net.set_default_link(lossy(net::LinkModel::lan()));
    const net::LinkModel wan = lossy(net::LinkModel::wan());
    prof_insert_ =
        obs_->profiler.site("bench.ccontrol.insert", obs::Category::kApp);
    prof_erase_ =
        obs_->profiler.site("bench.ccontrol.erase", obs::Category::kApp);
    prof_put_ =
        obs_->profiler.site("bench.durable.put", obs::Category::kDurable);
    prof_call_ = obs_->profiler.site("bench.rpc.call", obs::Category::kRpc);

    const std::string initial(kTargetLen, '.');
    for (int d = 0; d < kDocs; ++d) {
      docs_.push_back(std::make_unique<Doc>());
      Doc& doc = *docs_.back();
      const net::Address host{host_node(d), kEditPort};
      doc.name = "doc" + std::to_string(d);
      durable::DurableConfig dc;
      dc.name = doc.name;
      doc.store = std::make_unique<durable::DurableStore>(sim, *obs_,
                                                          doc.media, dc);
      doc.server = std::make_unique<groupware::EditorServer>(net, host,
                                                             initial);
      doc.observer = std::make_unique<groupware::EditorClient>(
          net, net::Address{host_node(d), kObserverPort}, host, kObserverSite,
          initial);
      doc.observer->on_remote_change(
          [this, d](const ccontrol::TextOp& op, Duration notif) {
            on_host_accept(d, op, notif);
          });
      doc.observer->connect();
      doc.reads = std::make_unique<rpc::RpcServer>(
          net, net::Address{host_node(d), kReadPort});
      doc.reads->set_processing_time(sim::usec(100));
      doc.reads->register_method(
          "read", [store = doc.store.get()](const std::string& key) {
            return rpc::HandlerResult::success(
                store->read(key).value_or(std::string()));
          });
      for (std::size_t k = 0; k < kSections; ++k)
        doc.keys[k] = section_key(d, k);

      doc.authors.resize(kAuthors);
      for (int a = 0; a < kAuthors; ++a) {
        Author& au = doc.authors[static_cast<std::size_t>(a)];
        au.letter = static_cast<char>('a' + a);
        if (a >= kLocalAuthors) {
          net.set_symmetric_link(author_node(d, a), host_node(d), wan);
        }
        au.client = std::make_unique<groupware::EditorClient>(
            net, net::Address{author_node(d, a), kEditPort}, host,
            static_cast<ccontrol::SiteId>(a + 1), initial);
        au.client->on_remote_change(
            [this, d](const ccontrol::TextOp& op, Duration notif) {
              on_replica_apply(d, op, notif);
            });
        au.timer = std::make_unique<sim::PeriodicTimer>(
            sim, kEditPeriod, [this, d, a] { edit(d, a); });
        au.phase = gen_.uniform_int(1, kEditPeriod);
        au.client->connect();
      }
      doc.readers.resize(kReaders);
      for (int k = 0; k < kReaders; ++k) {
        if (k >= kLocalReaders)
          net.set_symmetric_link(reader_node(d, k), host_node(d), wan);
        doc.readers[static_cast<std::size_t>(k)] =
            std::make_unique<rpc::RpcClient>(
                net, net::Address{reader_node(d, k), kClientPort});
        sim.schedule_after(gen_.uniform_int(1, kThink),
                           [this, d, k] { read(d, k); });
      }
    }
  }

  // Editing starts once every replica holds the join snapshot: an edit
  // made earlier never reaches a replica that registers after it.
  void warm_up() override {
    sim::Simulator& sim = p_->simulator();
    p_->run_until(sim.now() + kConnect);
    for (auto& doc : docs_) {
      if (!doc->observer->connected()) ++anomalies_;
      for (Author& au : doc->authors) {
        if (!au.client->connected()) ++anomalies_;
        au.timer->start(au.phase);
      }
    }
    p_->run_until(sim.now() + kWarmUp);
  }
  [[nodiscard]] TimePoint now() const override {
    return p_->simulator().now();
  }
  void run_until(TimePoint t) override { p_->run_until(t); }
  [[nodiscard]] Duration window(int seconds) const override {
    return timed_window(seconds, kVirtualPerHostSecond, kEditPeriod);
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
    reading_ = false;
    for (auto& doc : docs_)
      for (Author& au : doc->authors) au.timer->stop();
  }

  void drain() override { p_->run(); }

  void check(CheckReport& out) override {
    std::uint64_t h = kFnvBasis;
    int diverged = 0;
    int lost = 0;
    std::uint64_t open_edits = 0;
    for (auto& dp : docs_) {
      Doc& doc = *dp;
      const std::string& truth = doc.server->doc();
      bool same = doc.observer->doc() == truth;
      for (const Author& au : doc.authors) {
        same = same && au.client->doc() == truth;
        open_edits += au.open.size();
      }
      if (!same) {
        ++diverged;
        ops_.discount(doc.counted_edits_done);
      }
      for (std::size_t k = 0; k < kSections; ++k) {
        if (!doc.acked[k]) continue;
        if (doc.store->read(doc.keys[k]).value_or("<missing>") !=
            doc.last_acked[k])
          ++lost;
      }
      if (doc.puts != doc.acks) ++lost;
      fnv_mix(h, net::frame_checksum(truth));
      fnv_mix(h, truth.size());
      fnv_mix(h, doc.puts);
      fnv_mix(h, doc.store->next_lsn());
    }
    fnv_mix(h, read_hash_);
    out.outcome_hash = h;
    out.add("replicas_converged", diverged == 0,
            std::to_string(diverged) + " of " + std::to_string(kDocs) +
                " documents diverged");
    out.add("acked_puts_read_back", lost == 0,
            std::to_string(lost) + " keys or put/ack counts wrong");
    out.add("edits_visible_and_durable", open_edits == 0 && anomalies_ == 0,
            std::to_string(open_edits) + " open, " +
                std::to_string(anomalies_) + " unmatched applies");
    out.add("reads_answered", read_failed_ == 0,
            std::to_string(read_ok_) + " ok, " +
                std::to_string(read_failed_) + " failed");
    out.add("kernel_quiescent_after_drain", p_->simulator().pending() == 0);
  }

  void layer_counts(Metrics& out) override {
    const Totals now = totals();
    const auto d = [](std::uint64_t a, std::uint64_t b) {
      return static_cast<double>(a - b);
    };
    out.push_back({"sim.events", d(now.events, base_.events), "count"});
    out.push_back({"net.datagrams", d(now.net.sent, base_.net.sent), "count"});
    out.push_back(
        {"net.bytes", d(now.net.bytes_sent, base_.net.bytes_sent), "B"});
    out.push_back({"net.dropped", d(now.dropped, base_.dropped), "count"});
    out.push_back({"rpc.calls", d(now.reads, base_.reads), "count"});
    out.push_back({"rpc.failed", d(now.rpc_failed, base_.rpc_failed),
                   "count"});
    out.push_back({"ccontrol.edits", d(now.edits, base_.edits), "count"});
    out.push_back({"ccontrol.remote_applies",
                   d(now.remote_applies, base_.remote_applies), "count"});
    out.push_back({"ccontrol.notify_p99_ms", notify_.percentile_ms(0.99),
                   "ms"});
    out.push_back({"durable.puts", d(now.puts, base_.puts), "count"});
    out.push_back({"durable.group_commits", d(now.syncs, base_.syncs),
                   "count"});
    out.push_back({"durable.checkpoints",
                   d(now.checkpoints, base_.checkpoints), "count"});
    out.push_back({"durable.ack_p99_ms", ack_.percentile_ms(0.99), "ms"});
    out.push_back({"durable.log_bytes_max",
                   static_cast<double>(now.log_bytes_max), "B"});
  }

 private:
  struct Edit {
    TimePoint issued = 0;
    int remaining = kAuthors;  // 5 other authors + the host's replica
    bool durable = false;
    bool counted = false;
  };
  struct Author {
    std::unique_ptr<groupware::EditorClient> client;
    std::unique_ptr<sim::PeriodicTimer> timer;
    std::deque<Edit> open;  // own edits not yet visible everywhere+durable
    char letter = 'a';
    Duration phase = 0;  // first edit after the join
    std::uint64_t edits = 0;
  };
  struct Doc {
    std::string name;            // durable.<name>.* metrics
    durable::StableMedia media;  // outlives the store built over it
    std::unique_ptr<durable::DurableStore> store;
    std::unique_ptr<groupware::EditorServer> server;
    std::unique_ptr<groupware::EditorClient> observer;
    std::unique_ptr<rpc::RpcServer> reads;
    std::vector<Author> authors;
    std::vector<std::unique_ptr<rpc::RpcClient>> readers;
    std::array<std::string, kSections> keys;
    std::array<std::string, kSections> last_acked;
    std::array<bool, kSections> acked{};
    std::uint64_t puts = 0;
    std::uint64_t acks = 0;
    std::uint64_t counted_edits_done = 0;
  };
  struct Totals {
    std::uint64_t events = 0;
    net::NetworkStats net;
    std::uint64_t dropped = 0;
    std::uint64_t reads = 0;
    std::uint64_t rpc_failed = 0;
    std::uint64_t edits = 0;
    std::uint64_t remote_applies = 0;
    std::uint64_t puts = 0;
    std::uint64_t syncs = 0;
    std::uint64_t checkpoints = 0;
    std::uint64_t log_bytes_max = 0;
  };

  Totals totals() const {
    Totals t;
    t.events = p_->simulator().events_processed();
    t.net = p_->network().stats();
    t.dropped = t.net.dropped_loss + t.net.dropped_partition +
                t.net.dropped_no_endpoint + t.net.dropped_corrupt;
    t.reads = reads_issued_;
    t.remote_applies = remote_applies_;
    for (const auto& dp : docs_) {
      const Doc& doc = *dp;
      for (const auto& r : doc.readers)
        t.rpc_failed += r->timeouts() + r->rejected();
      for (const Author& au : doc.authors) t.edits += au.edits;
      t.puts += doc.puts;
      t.syncs += static_cast<std::uint64_t>(
          obs_->metrics.value("durable." + doc.name + ".syncs"));
      t.checkpoints += static_cast<std::uint64_t>(
          obs_->metrics.value("durable." + doc.name + ".checkpoints"));
      t.log_bytes_max = std::max<std::uint64_t>(t.log_bytes_max,
                                                doc.store->max_log_bytes());
    }
    return t;
  }

  void edit(int d, int a) {
    Doc& doc = *docs_[static_cast<std::size_t>(d)];
    Author& au = doc.authors[static_cast<std::size_t>(a)];
    groupware::EditorClient& c = *au.client;
    const std::string& text = c.doc();
    bool insert =
        gen_.uniform() < (text.size() < kTargetLen ? 0.75 : 0.25);
    std::size_t pos = std::string::npos;
    if (!insert && !text.empty()) {
      const auto start = static_cast<std::size_t>(
          gen_.uniform_int(0, static_cast<std::int64_t>(text.size()) - 1));
      pos = text.find(au.letter, start);
      if (pos == std::string::npos) pos = text.find(au.letter);
    }
    if (pos == std::string::npos) insert = true;
    const bool counted = ops_.issue();
    if (insert) {
      pos = static_cast<std::size_t>(
          gen_.uniform_int(0, static_cast<std::int64_t>(text.size())));
      const auto len = static_cast<std::size_t>(gen_.uniform_int(1, 3));
      obs::ProfScope ps(obs_->profiler, prof_insert_);
      c.insert(pos, std::string(len, au.letter));
    } else {
      obs::ProfScope ps(obs_->profiler, prof_erase_);
      c.erase(pos, 1);
    }
    au.open.push_back({p_->simulator().now(), kAuthors, false, counted});
    ++au.edits;
    ops_.sample_pending(p_->simulator().pending());
  }

  /// The edit (site, originated_at) names, or nullptr.
  Edit* find_edit(Doc& doc, ccontrol::SiteId site, TimePoint at) {
    if (site < 1 || site > kAuthors) return nullptr;
    for (Edit& e : doc.authors[site - 1].open)
      if (e.issued == at) return &e;
    return nullptr;
  }

  void settle(Doc& doc, ccontrol::SiteId site, Edit& e) {
    if (e.remaining != 0 || !e.durable) return;
    ops_.complete(e.counted, p_->simulator().now() - e.issued);
    if (e.counted) ++doc.counted_edits_done;
    e.remaining = -1;  // completed
    std::deque<Edit>& open = doc.authors[site - 1].open;
    while (!open.empty() && open.front().remaining == -1) open.pop_front();
  }

  void applied(int d, const ccontrol::TextOp& op, Duration notif) {
    Doc& doc = *docs_[static_cast<std::size_t>(d)];
    Edit* e = find_edit(doc, op.site, p_->simulator().now() - notif);
    if (e == nullptr || e->remaining <= 0) {
      ++anomalies_;
      return;
    }
    --e->remaining;
    settle(doc, op.site, *e);
  }

  void on_replica_apply(int d, const ccontrol::TextOp& op, Duration notif) {
    ++remote_applies_;
    if (ops_.open_now()) notify_.add(notif);
    applied(d, op, notif);
  }

  /// The host's replica saw an accepted edit: persist the edited section.
  void on_host_accept(int d, const ccontrol::TextOp& op, Duration notif) {
    Doc& doc = *docs_[static_cast<std::size_t>(d)];
    ++remote_applies_;
    if (ops_.open_now()) notify_.add(notif);
    const TimePoint at = p_->simulator().now() - notif;
    const std::string& text = doc.observer->doc();
    const std::size_t base =
        std::min(op.pos / kSection * kSection, text.size());
    const std::size_t k = (op.pos / kSection) % kSections;
    std::string value = text.substr(base, kSection);
    const ccontrol::SiteId site = op.site;
    const TimePoint put_at = p_->simulator().now();
    const bool window = ops_.open_now();
    ++doc.puts;
    {
      obs::ProfScope ps(obs_->profiler, prof_put_);
      doc.store->put(doc.keys[k], value,
                     [this, d, k, site, at, put_at, window,
                      value]() mutable {
                       Doc& dd = *docs_[static_cast<std::size_t>(d)];
                       ++dd.acks;
                       dd.last_acked[k] = std::move(value);
                       dd.acked[k] = true;
                       if (window) ack_.add(p_->simulator().now() - put_at);
                       Edit* e = find_edit(dd, site, at);
                       if (e == nullptr || e->durable) {
                         ++anomalies_;
                         return;
                       }
                       e->durable = true;
                       settle(dd, site, *e);
                     });
    }
    applied(d, op, notif);
  }

  void read(int d, int k) {
    if (!reading_) return;
    Doc& doc = *docs_[static_cast<std::size_t>(d)];
    const bool counted = ops_.issue();
    ++reads_issued_;
    const auto sec = static_cast<std::size_t>(
        gen_.uniform_int(0, static_cast<std::int64_t>(kSections) - 1));
    rpc::CallOptions opts;
    opts.timeout = sim::msec(300);
    opts.retries = 3;
    obs::ProfScope ps(obs_->profiler, prof_call_);
    doc.readers[static_cast<std::size_t>(k)]->call(
        {host_node(d), kReadPort}, "read", doc.keys[sec],
        [this, d, k, counted](const rpc::RpcResult& res) {
          if (res.ok()) {
            ++read_ok_;
            fnv_mix(read_hash_, static_cast<std::uint64_t>(res.rtt));
            fnv_mix(read_hash_, net::frame_checksum(res.reply));
            ops_.complete(counted, res.rtt);
          } else {
            ++read_failed_;
          }
          p_->simulator().schedule_after(kThink,
                                         [this, d, k] { read(d, k); });
        },
        opts);
  }

  std::unique_ptr<Platform> p_;
  sim::Rng gen_;  // workload draws, apart from the kernel's stream
  obs::Profiler::SiteId prof_insert_ = obs::Profiler::kInvalidSite;
  obs::Profiler::SiteId prof_erase_ = obs::Profiler::kInvalidSite;
  obs::Profiler::SiteId prof_put_ = obs::Profiler::kInvalidSite;
  obs::Profiler::SiteId prof_call_ = obs::Profiler::kInvalidSite;
  std::vector<std::unique_ptr<Doc>> docs_;
  bool reading_ = true;
  Totals base_;
  LatencyLog notify_;  // window: remote apply notification time
  LatencyLog ack_;     // window: put -> durable ack
  std::uint64_t remote_applies_ = 0;
  std::uint64_t reads_issued_ = 0;
  std::uint64_t read_ok_ = 0;
  std::uint64_t read_failed_ = 0;
  std::uint64_t read_hash_ = kFnvBasis;
  std::uint64_t anomalies_ = 0;
};

}  // namespace

std::unique_ptr<Session> make_coauthoring(std::uint64_t seed, bool traced) {
  return std::make_unique<Coauthoring>(seed, traced);
}

}  // namespace perfbench
