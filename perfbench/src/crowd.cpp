// crowd — 20,000 participants on a media-space floor plan around the
// indexed AwarenessEngine.  No network: this is kernel timer churn and
// the awareness layer alone.  Open loop: every participant moves (a
// spatial-index write) every 2 s and publishes an activity on its own
// desk every 5 s, each on a fixed cadence with a random phase.
//
// Op: one activity, complete when every observer with non-zero weight
// has received it (immediately or in a 1 s digest); latency = last
// delivery - publish.  Check: deliveries plus weight-zero suppressions
// equal the eligible observers of every publish (nothing coalesced or
// lost), and every activity completed.
#include <algorithm>

#include "core/coop.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

using namespace coop;

constexpr std::uint32_t kParticipants = 20'000;
constexpr double kWorld = 700.0;   // floor plan side; ~13 others in a nimbus
constexpr double kRadius = 10.0;   // focus and nimbus
constexpr double kStep = 3.0;      // largest move per axis
constexpr Duration kMovePeriod = sim::sec(2);
constexpr Duration kPublishPeriod = sim::sec(5);
constexpr Duration kDigestPeriod = sim::sec(1);
constexpr Duration kWarmUp = sim::sec(6);
// Virtual seconds per requested host second (see conference.cpp).
constexpr double kVirtualPerHostSecond = 5.2;
constexpr std::uint64_t kUnknown = ~std::uint64_t{0};

std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return x;
}

class Crowd final : public Session {
 public:
  Crowd(std::uint64_t seed, bool traced)
      : Session(traced),
        p_(std::make_unique<Platform>(seed, obs_.get())),
        engine_(p_->simulator(), space_,
                awareness::EngineConfig{.digest_period = kDigestPeriod},
                obs_.get()),
        gen_(seed ^ 0xc0c0ffee5eedULL) {
    sim::Simulator& sim = p_->simulator();
    prof_publish_ = obs_->profiler.site("bench.awareness.publish",
                                        obs::Category::kAwareness);
    prof_place_ = obs_->profiler.site("bench.awareness.place",
                                      obs::Category::kAwareness);
    ps_.resize(kParticipants);
    for (std::uint32_t i = 0; i < kParticipants; ++i) {
      const awareness::ClientId id = i + 1;
      Participant& me = ps_[i];
      me.object = "desk/" + std::to_string(id);
      space_.place(id, {gen_.uniform(0, kWorld), gen_.uniform(0, kWorld)});
      space_.set_focus(id, kRadius);
      space_.set_nimbus(id, kRadius);
      engine_.subscribe(id, [this, id](const awareness::ActivityEvent& e,
                                       double, bool via_digest) {
        on_delivery(id, e, via_digest);
      });
      me.move = std::make_unique<sim::PeriodicTimer>(
          sim, kMovePeriod, [this, i] { move(i); });
      me.move->start(gen_.uniform_int(1, kMovePeriod));
      me.publish = std::make_unique<sim::PeriodicTimer>(
          sim, kPublishPeriod, [this, i] { publish(i); });
      me.publish->start(gen_.uniform_int(1, kPublishPeriod));
    }
  }

  void warm_up() override { p_->run_until(p_->simulator().now() + kWarmUp); }
  [[nodiscard]] TimePoint now() const override {
    return p_->simulator().now();
  }
  void run_until(TimePoint t) override { p_->run_until(t); }
  [[nodiscard]] Duration window(int seconds) const override {
    return timed_window(seconds, kVirtualPerHostSecond, kDigestPeriod);
  }
  [[nodiscard]] std::size_t pending() const override {
    return p_->simulator().pending();
  }

  void begin_window() override {
    base_ = counts();
    base_events_ = p_->simulator().events_processed();
    ops_.open();
  }

  void end_window() override {
    ops_.close();
    for (Participant& me : ps_) {
      me.move->stop();
      me.publish->stop();
    }
  }

  // The digest timer re-arms forever: run past the next flush instead of
  // to quiescence.
  void drain() override {
    p_->run_until(p_->simulator().now() + kDigestPeriod + sim::msec(1));
  }

  void check(CheckReport& out) override {
    const awareness::EngineStats& st = engine_.stats();
    std::uint64_t open = 0;
    for (const Participant& me : ps_) open += me.op_open ? 1 : 0;
    std::uint64_t h = kFnvBasis;
    fnv_mix(h, delivery_acc_);
    fnv_mix(h, st.published);
    fnv_mix(h, st.immediate);
    fnv_mix(h, st.digested);
    fnv_mix(h, st.suppressed);
    out.outcome_hash = h;
    const std::uint64_t delivered = st.immediate + st.digested;
    const bool balanced = delivered == delivered_seen_ &&
                          delivered + st.suppressed == eligible_;
    if (!balanced) ops_.discount(ops_.completed_ok());
    out.add("delivered_plus_suppressed_eq_eligible", balanced,
            std::to_string(delivered) + " + " + std::to_string(st.suppressed) +
                " vs " + std::to_string(eligible_) + " eligible");
    out.add("activities_complete",
            open == 0 && anomalies_ == 0 && st.coalesced == 0,
            std::to_string(open) + " open, " + std::to_string(anomalies_) +
                " unmatched, " + std::to_string(st.coalesced) + " coalesced");
  }

  void layer_counts(Metrics& out) override {
    const Counts now = counts();
    const double delivered = static_cast<double>(
        now.immediate + now.digested - base_.immediate - base_.digested);
    const double suppressed =
        static_cast<double>(now.suppressed - base_.suppressed);
    out.push_back({"sim.events",
                   static_cast<double>(p_->simulator().events_processed() -
                                       base_events_),
                   "count"});
    out.push_back({"awareness.published",
                   static_cast<double>(now.published - base_.published),
                   "count"});
    out.push_back({"awareness.delivered", delivered, "count"});
    out.push_back({"awareness.useful_frac",
                   delivered + suppressed > 0
                       ? delivered / (delivered + suppressed)
                       : 0.0,
                   "ratio"});
  }

 private:
  struct Participant {
    std::string object;
    std::unique_ptr<sim::PeriodicTimer> move;
    std::unique_ptr<sim::PeriodicTimer> publish;
    // The participant's activity in flight (publishes are 5 s apart, a
    // digest flushes every 1 s, so at most one is open).
    TimePoint op_at = 0;
    std::uint64_t op_expected = 0;
    std::uint64_t op_received = 0;
    bool op_open = false;
    bool op_counted = false;
  };

  struct Counts {
    std::uint64_t published = 0;
    std::uint64_t immediate = 0;
    std::uint64_t digested = 0;
    std::uint64_t suppressed = 0;
  };

  Counts counts() const {
    const awareness::EngineStats& st = engine_.stats();
    return {st.published, st.immediate, st.digested, st.suppressed};
  }

  void move(std::uint32_t i) {
    const awareness::ClientId id = i + 1;
    const auto at = space_.position(id);
    const awareness::Point to{
        std::clamp(at->x + gen_.uniform(-kStep, kStep), 0.0, kWorld),
        std::clamp(at->y + gen_.uniform(-kStep, kStep), 0.0, kWorld)};
    obs::ProfScope ps(obs_->profiler, prof_place_);
    space_.place(id, to);
  }

  void publish(std::uint32_t i) {
    sim::Simulator& sim = p_->simulator();
    Participant& me = ps_[i];
    if (me.op_open) ++anomalies_;
    me.op_at = sim.now();
    me.op_expected = kUnknown;
    me.op_received = 0;
    me.op_open = true;
    me.op_counted = ops_.issue();
    const std::uint64_t suppressed0 = engine_.stats().suppressed;
    {
      obs::ProfScope ps(obs_->profiler, prof_publish_);
      engine_.publish({i + 1, me.object, "edit", sim.now()});
    }
    const std::uint64_t eligible = kParticipants - 1;
    eligible_ += eligible;
    me.op_expected = eligible - (engine_.stats().suppressed - suppressed0);
    settle(me);
    ops_.sample_pending(sim.pending());
  }

  void on_delivery(awareness::ClientId observer,
                   const awareness::ActivityEvent& e, bool via_digest) {
    ++delivered_seen_;
    delivery_acc_ += mix((static_cast<std::uint64_t>(observer) << 32) ^
                         e.actor ^ (static_cast<std::uint64_t>(e.at) << 1) ^
                         (via_digest ? 1 : 0));
    if (e.actor < 1 || e.actor > kParticipants) {
      ++anomalies_;
      return;
    }
    Participant& a = ps_[e.actor - 1];
    if (!a.op_open || e.at != a.op_at) {
      ++anomalies_;
      return;
    }
    ++a.op_received;
    settle(a);
  }

  void settle(Participant& a) {
    if (a.op_received != a.op_expected) return;
    a.op_open = false;
    ops_.complete(a.op_counted, p_->simulator().now() - a.op_at);
  }

  std::unique_ptr<Platform> p_;
  awareness::SpatialModel space_;
  awareness::AwarenessEngine engine_;
  sim::Rng gen_;  // workload draws, apart from the kernel's stream
  obs::Profiler::SiteId prof_publish_ = obs::Profiler::kInvalidSite;
  obs::Profiler::SiteId prof_place_ = obs::Profiler::kInvalidSite;
  std::vector<Participant> ps_;
  std::uint64_t eligible_ = 0;
  std::uint64_t delivered_seen_ = 0;
  std::uint64_t delivery_acc_ = 0;
  std::uint64_t anomalies_ = 0;
  Counts base_;
  std::uint64_t base_events_ = 0;
};

}  // namespace

std::unique_ptr<Session> make_crowd(std::uint64_t seed, bool traced) {
  return std::make_unique<Crowd>(seed, traced);
}

}  // namespace perfbench
