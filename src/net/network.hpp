// The simulated internetwork: hosts, links, unicast, multicast, partitions
// and mobile connectivity.
//
// Network is the single point through which every coop protocol sends
// datagrams.  It owns link state (so congestion is shared by all traffic on
// a link), applies loss and partitions, models per-node mobile connectivity
// levels, and delivers to registered Endpoints at the simulated arrival
// time.  Delivery is at-most-once and may reorder across messages of
// different sizes or jitter draws — exactly the properties the reliable
// multicast and RPC layers must (and do) repair.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "net/link.hpp"
#include "net/message.hpp"
#include "obs/obs.hpp"
#include "sim/simulator.hpp"

namespace coop::net {

/// Aggregate traffic statistics, for experiment accounting.  Assembled on
/// demand from the "net.*" registry counters — the registry is the storage,
/// this struct is the view.
struct NetworkStats {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped_loss = 0;
  std::uint64_t dropped_partition = 0;
  std::uint64_t dropped_no_endpoint = 0;
  std::uint64_t dropped_corrupt = 0;
  std::uint64_t bytes_sent = 0;
};

/// Per-datagram fault actions an injection hook may order (the chaos
/// plane's handle on individual frames).  `corrupt` flips a payload byte
/// after the checksum is stamped, so the frame fails integrity
/// verification at arrival; `duplicate` sends one extra copy through the
/// link (charged bandwidth like any frame); `extra_delay` is added to the
/// propagation time.
struct InjectDecision {
  bool corrupt = false;
  bool duplicate = false;
  sim::Duration extra_delay = 0;
};

/// Consulted once per original datagram at transmit time (injected
/// duplicates are not re-offered, so duplication cannot cascade).
using InjectHook = std::function<InjectDecision(const Message&)>;

/// The simulated network fabric.
class Network {
 public:
  /// Binds to @p obs if given, else the ambient default, else a private
  /// Obs owned by this network — so unit tests that build a bare Network
  /// need no ceremony, while Platform/bench runs share one registry.
  explicit Network(sim::Simulator& sim, obs::Obs* obs = nullptr);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // --- topology -----------------------------------------------------------

  /// Sets the link model used between any pair without an explicit link.
  void set_default_link(const LinkModel& model) { default_link_ = model; }

  /// Sets the directed link @p from -> @p to.  Call twice (or use
  /// set_symmetric_link) for a bidirectional path.
  void set_link(NodeId from, NodeId to, const LinkModel& model) {
    links_[key(from, to)] = model;
  }

  /// Sets both directions between @p a and @p b.
  void set_symmetric_link(NodeId a, NodeId b, const LinkModel& model) {
    set_link(a, b, model);
    set_link(b, a, model);
  }

  /// Effective model for a directed pair (explicit link or default),
  /// before mobile-connectivity overrides.
  [[nodiscard]] const LinkModel& link(NodeId from, NodeId to) const {
    auto it = links_.find(key(from, to));
    return it != links_.end() ? it->second : default_link_;
  }

  /// Conservative lookahead for the sharded kernel: the smallest
  /// min_latency() any datagram on this topology can experience — the
  /// minimum over the default link, every explicit link, and (when any
  /// node has a mobile-connectivity override installed) the radio model.
  /// Disturbances only ever *add* delay, so they cannot invalidate the
  /// bound.  Recompute after topology or mobility changes; a zero result
  /// tells ShardedEngine to fall back to barrier-synchronized epochs.
  [[nodiscard]] sim::Duration lookahead() const noexcept {
    sim::Duration la = default_link_.min_latency();
    for (const auto& [k, m] : links_) la = std::min(la, m.min_latency());
    if (!connectivity_.empty())
      la = std::min(la, radio_model_.min_latency());
    return la;
  }

  // --- endpoints -----------------------------------------------------------

  /// Registers @p ep to receive datagrams addressed to @p addr.  The caller
  /// keeps ownership and must detach (or outlive the network's last event).
  /// Returns the registration's epoch: a per-network counter that rises
  /// with every attach, so an endpoint re-created at the same address is
  /// distinguishable from its predecessor (see Message::epoch).
  std::uint32_t attach(const Address& addr, Endpoint& ep) {
    endpoints_[addr] = &ep;
    return ++last_epoch_;
  }

  /// Removes the endpoint registration, if any.
  void detach(const Address& addr) { endpoints_.erase(addr); }

  // --- faults & mobility ---------------------------------------------------

  /// Cuts all traffic between the two partition sides (nodes listed in
  /// @p side_a vs everyone else if @p side_b is empty).
  void partition(const std::set<NodeId>& side_a,
                 const std::set<NodeId>& side_b = {});

  /// Removes any partition.
  void heal_partition() { partitioned_ = false; }

  /// Marks a node as crashed: nothing is delivered to or sent from it.
  void crash(NodeId node) { crashed_.insert(node); }

  /// Restores a crashed node *in place*: connectivity resumes and every
  /// endpoint registration survives, as if the node had merely been
  /// frozen.  For fail-stop process death use restart().
  void recover(NodeId node) { crashed_.erase(node); }

  /// Restores a crashed node with restart semantics: its outbound
  /// serializer queues are drained (a rebooted NIC holds no backlog).
  /// The process's volatile protocol state does NOT survive — callers
  /// model that by destroying the node's protocol objects at crash time
  /// (their destructors detach) and re-creating them now (fault::FaultPlan
  /// drives exactly this lifecycle through its crash/restart callbacks).
  void restart(NodeId node);

  /// Installs (or clears, with nullptr) the per-datagram fault-injection
  /// hook.  See InjectHook; the fault plane owns the probabilities, the
  /// network only executes the decision.
  void set_inject_hook(InjectHook hook) { inject_ = std::move(hook); }

  /// Applies a transient degradation on top of every link until
  /// clear_disturbance() — the chaos plane's degraded-link window.
  void set_disturbance(const LinkDisturbance& d) { disturbance_ = d; }
  void clear_disturbance() { disturbance_ = {}; }
  [[nodiscard]] const LinkDisturbance& disturbance() const noexcept {
    return disturbance_;
  }

  [[nodiscard]] bool is_crashed(NodeId node) const {
    return crashed_.count(node) != 0;
  }

  /// Sets the mobile-connectivity level of a node (§4.2.2).  kPartial
  /// replaces the node's links with the radio override; kDisconnected
  /// drops everything.
  void set_connectivity(NodeId node, Connectivity level) {
    connectivity_[node] = level;
  }

  [[nodiscard]] Connectivity connectivity(NodeId node) const {
    auto it = connectivity_.find(node);
    return it != connectivity_.end() ? it->second : Connectivity::kFull;
  }

  /// Overrides the link model applied while a node is kPartial (defaults
  /// to LinkModel::radio()).
  void set_radio_model(const LinkModel& model) { radio_model_ = model; }

  // --- multicast -----------------------------------------------------------

  /// Adds @p member to multicast group @p group.
  void mcast_join(McastId group, const Address& member) {
    mcast_groups_[group].insert(member);
  }

  /// Removes @p member from @p group.
  void mcast_leave(McastId group, const Address& member) {
    auto it = mcast_groups_.find(group);
    if (it == mcast_groups_.end()) return;
    it->second.erase(member);
    if (it->second.empty()) mcast_groups_.erase(it);
  }

  [[nodiscard]] std::size_t mcast_size(McastId group) const {
    auto it = mcast_groups_.find(group);
    return it != mcast_groups_.end() ? it->second.size() : 0;
  }

  // --- traffic -------------------------------------------------------------

  /// Sends a unicast datagram.  Returns the assigned message id.
  std::uint64_t send(Message msg);

  /// Sends one copy of @p msg to every member of @p group (except the
  /// sender's own address).  Each copy traverses its own link.
  std::uint64_t multicast(McastId group, Message msg);

  /// Traffic totals, assembled from the registry counters.
  [[nodiscard]] NetworkStats stats() const noexcept;

  /// Opt-in delivery coalescing: datagrams on the same directed link with
  /// the same arrival timestamp share one kernel event instead of one
  /// each.  Default off — coalescing preserves per-link delivery order
  /// and all virtual-time results, but it changes the kernel event count
  /// (and therefore the step-event trace), so runs are only comparable
  /// against runs with the same setting.
  void set_delivery_coalescing(bool on) noexcept { coalesce_ = on; }
  [[nodiscard]] bool delivery_coalescing() const noexcept {
    return coalesce_;
  }
  /// Datagrams that piggybacked on an already-scheduled delivery event
  /// (plain member, not a registry metric: must not alter artifacts).
  [[nodiscard]] std::uint64_t coalesced_deliveries() const noexcept {
    return coalesced_;
  }

  /// Per-directed-link dynamic counters (congestion inspection in tests).
  [[nodiscard]] const LinkState* link_state(NodeId from, NodeId to) const {
    auto it = link_states_.find(key(from, to));
    return it != link_states_.end() ? &it->second : nullptr;
  }

  [[nodiscard]] sim::Simulator& simulator() noexcept { return sim_; }

  /// The observability context every layer above the network records into.
  [[nodiscard]] obs::Obs& obs() noexcept { return *obs_; }

 private:
  static std::uint64_t key(NodeId from, NodeId to) noexcept {
    return (static_cast<std::uint64_t>(from) << 32) | to;
  }

  /// Applies connectivity overrides; nullopt means "no path".
  [[nodiscard]] std::optional<LinkModel> effective_link(NodeId from,
                                                        NodeId to) const;

  [[nodiscard]] bool partition_blocks(NodeId a, NodeId b) const;

  void transmit(Message msg, bool injectable = true);

  /// Arrival-time half of transmit(): fault re-check, integrity check,
  /// endpoint demux.  Runs inside the delivery event.
  void deliver(Message& msg, sim::Duration queue_wait);

  /// Hands @p msg to the kernel for delivery at @p arrival.  The message
  /// parks in a recycled slot so the kernel event captures only {this,
  /// slot index} — small enough for the event's inline storage.
  void schedule_delivery(sim::TimePoint arrival, Message&& msg,
                         sim::Duration queue_wait);

  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  /// Parked in-flight datagram awaiting its delivery event.
  struct DeliverySlot {
    Message msg;
    sim::Duration queue_wait = 0;
    std::uint32_t next = kNoSlot;  ///< chain link within a coalesced batch
  };

  /// One scheduled kernel event covering a chain of same-link,
  /// same-arrival deliveries (coalescing mode only).
  struct Batch {
    sim::TimePoint at = 0;
    std::uint64_t link = 0;
    std::uint32_t head = kNoSlot;
    std::uint32_t tail = kNoSlot;
  };

  std::uint32_t acquire_dslot(Message&& msg, sim::Duration queue_wait);
  DeliverySlot take_dslot(std::uint32_t slot);
  void fire_batch(std::uint32_t batch);

  sim::Simulator& sim_;
  std::unique_ptr<obs::Obs> owned_obs_;  // only when no context was supplied
  obs::Obs* obs_;
  // Registry-owned traffic counters ("net.sent", ...); stats() is a view.
  util::Counter* sent_;
  util::Counter* delivered_;
  util::Counter* dropped_loss_;
  util::Counter* dropped_partition_;
  util::Counter* dropped_no_endpoint_;
  util::Counter* dropped_corrupt_;
  util::Counter* bytes_sent_;
  // Observability plane hooks: windowed delivery/drop trajectories and
  // the wall-clock profile of endpoint dispatch.
  obs::Timeseries::SeriesId ts_delivered_;
  obs::Timeseries::SeriesId ts_dropped_;
  obs::Profiler::SiteId prof_deliver_;
  InjectHook inject_;
  LinkDisturbance disturbance_;
  LinkModel default_link_ = LinkModel::lan();
  LinkModel radio_model_ = LinkModel::radio();
  std::unordered_map<std::uint64_t, LinkModel> links_;
  std::unordered_map<std::uint64_t, LinkState> link_states_;
  std::unordered_map<Address, Endpoint*> endpoints_;
  std::map<McastId, std::set<Address>> mcast_groups_;
  std::set<NodeId> crashed_;
  std::unordered_map<NodeId, Connectivity> connectivity_;
  bool partitioned_ = false;
  std::set<NodeId> side_a_;
  std::set<NodeId> side_b_;  // empty => complement of side_a_
  std::uint64_t next_msg_id_ = 1;
  std::uint32_t last_epoch_ = 0;  // handed out by attach()
  // Delivery slot + batch pools (freelist-recycled, never shrink).
  std::vector<DeliverySlot> dslots_;
  std::vector<std::uint32_t> dfree_;
  std::vector<Batch> batches_;
  std::vector<std::uint32_t> bfree_;
  // link key -> batch still accepting appends (its arrival time is the
  // link's current latest; an older entry is superseded in place and
  // closes itself when its event fires).
  std::unordered_map<std::uint64_t, std::uint32_t> open_batch_;
  bool coalesce_ = false;
  std::uint64_t coalesced_ = 0;
};

}  // namespace coop::net
