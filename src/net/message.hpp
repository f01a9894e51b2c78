// Wire-level message and addressing types for the simulated network.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "obs/causal.hpp"
#include "sim/time.hpp"
#include "util/buf.hpp"

namespace coop::net {

/// Identifies a simulated host.
using NodeId = std::uint32_t;

/// Identifies a service endpoint within a host (like a UDP port).
using PortId = std::uint16_t;

/// A multicast group address (distinct namespace from unicast nodes).
using McastId = std::uint32_t;

/// Three-level message priority for the overload control plane.  Under
/// saturation the platform sheds lowest-priority-first: awareness and
/// media traffic is "supporting" load that must yield to the cooperative
/// operations a session cannot function without (floor changes, shared-
/// document updates) — the graceful-degradation stance of §4.2.2.
enum class Priority : std::uint8_t {
  kCore = 0,        ///< shared-document updates, floor-critical RPCs
  kControl = 1,     ///< floor control, membership, negotiations
  kBackground = 2,  ///< awareness events, media frames, snapshots
};

inline constexpr std::size_t kPriorityCount = 3;

/// Stable short name used in metrics/traces ("core", "control",
/// "background").
[[nodiscard]] constexpr const char* priority_name(Priority p) noexcept {
  switch (p) {
    case Priority::kCore:
      return "core";
    case Priority::kControl:
      return "control";
    case Priority::kBackground:
      return "background";
  }
  return "?";
}

/// Full endpoint address: host + port.
struct Address {
  NodeId node = 0;
  PortId port = 0;

  bool operator==(const Address&) const = default;
  auto operator<=>(const Address&) const = default;
};

/// Frame checksum over a payload (FNV-1a, 32-bit).  Deterministic and
/// platform-stable; strong enough to catch the single-byte corruptions the
/// fault plane injects (this is an integrity check, not cryptography).
[[nodiscard]] inline std::uint32_t frame_checksum(
    std::string_view payload) noexcept {
  std::uint32_t h = 0x811c9dc5u;
  for (const char c : payload) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x01000193u;
  }
  return h;
}

/// One datagram in flight.  `payload` carries the application encoding
/// (util::Writer output); `wire_size` is what the link-bandwidth model
/// charges, normally payload size plus a fixed header.
///
/// The payload is a ref-counted immutable util::Buf: copying a Message
/// (multicast fan-out, retransmit backlogs, replay caches) shares one
/// payload allocation instead of deep-copying the bytes.  Buf converts
/// implicitly from std::string/string_view and to string_view, so
/// existing encode/decode call sites read the same.
struct Message {
  Address src;
  Address dst;
  util::Buf payload;
  std::size_t wire_size = 0;
  std::uint64_t id = 0;              ///< unique per network, for tracing
  sim::TimePoint sent_at = 0;        ///< stamped by Network::send
  bool multicast = false;            ///< delivered via a multicast group
  McastId group = 0;                 ///< valid when multicast
  /// Frame checksum stamped by Network::send/multicast before any fault
  /// injection can touch the payload, and verified at arrival: a frame
  /// whose payload no longer matches is counted in `net.dropped_corrupt`
  /// and dropped — corrupt bytes never reach an Endpoint (and so are
  /// never parsed by util::Reader).  Part of the simulated 32-byte
  /// header, not charged separately to wire_size.
  std::uint32_t checksum = 0;
  /// Incarnation of the sending endpoint, as handed out by Network::attach
  /// (0 = unset).  RPC requests carry the client's epoch and replies echo
  /// it, so a server tells a re-created client at the same address from
  /// its predecessor and a client ignores replies meant for an earlier
  /// incarnation.  Part of the simulated header, not charged to wire_size.
  std::uint32_t epoch = 0;
  /// Absolute deadline (virtual time) after which this work is worthless,
  /// 0 = none.  Stamped by the sending protocol layer next to the causal
  /// context and carried as part of the simulated header: servers and the
  /// total-order sequencer drop already-expired work on dequeue instead of
  /// burning service time on it (counted in `rpc.expired_drops`).
  sim::TimePoint deadline = 0;
  /// Scheduling class of this datagram's work (see Priority).  Admission
  /// control sheds lowest-priority-first at its watermarks.
  Priority priority = Priority::kCore;
  /// RPC acknowledgement floor, as a distance below the request's id:
  /// floor = req_id + 1 - floor_gap, and every call of this client epoch
  /// below the floor has finished, so the server may forget its reply.
  /// 0 = no floor (the distance does not fit).  Simulated header, not
  /// charged to wire_size.
  std::uint32_t floor_gap = 0;
  /// Causal-trace header (simulated; not charged to wire_size).  Set by
  /// the sending protocol layer; the network derives per-hop children, so
  /// the context an Endpoint sees identifies the *delivery*, with the
  /// sender's span as its ancestor.
  obs::CausalContext ctx{};

  /// Simulated UDP/IP-style header overhead charged per datagram.
  static constexpr std::size_t kHeaderBytes = 32;
};

// epoch and floor_gap sit in what was alignment padding: every datagram
// parked in the delivery pool, retransmit backlog or coalesced batch stays
// the same size.
static_assert(sizeof(Message) == 104, "net::Message grew");

/// Receives datagrams delivered by the network.  Implemented by every
/// protocol entity (RPC endpoints, group members, stream sinks...).
class Endpoint {
 public:
  virtual ~Endpoint() = default;
  /// Called at the simulated arrival time of the message.
  virtual void on_message(const Message& msg) = 0;
};

}  // namespace coop::net

template <>
struct std::hash<coop::net::Address> {
  std::size_t operator()(const coop::net::Address& a) const noexcept {
    // Multiply-mix (murmur3 finalizer) over all 48 address bits.  The old
    // `(node << 16) ^ port` discarded the high node bits on 32-bit size_t
    // and kept sequential node ids in consecutive buckets — pessimal for
    // the hot endpoints_ lookup where experiments allocate node ids
    // densely from 0.
    std::uint64_t k =
        (static_cast<std::uint64_t>(a.node) << 16) | a.port;
    k ^= k >> 33;
    k *= 0xff51afd7ed558ccdull;
    k ^= k >> 33;
    k *= 0xc4ceb9fe1a85ec53ull;
    k ^= k >> 33;
    return static_cast<std::size_t>(k);
  }
};
