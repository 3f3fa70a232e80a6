// A synchronous round-based message-passing network simulator.
//
// The paper's simultaneous-message model is the one-round star network:
// every node sends one message to a referee. The examples (sensor network,
// distributed verifier) also use multi-round variants — e.g. aggregating
// votes up a spanning tree — so the simulator supports arbitrary directed
// topologies, per-round node behaviours, and exact message/bit accounting
// (the CONGEST-style cost measure mentioned in the paper's related work).
//
// Fault model (the reliability assumptions the paper makes, broken on
// purpose): per-link drops, full-width bit corruption, bounded delivery
// delay, scheduled link outages, and per-node crash-stop schedules. All
// fault randomness derives from the run RNG through dedicated streams, so
// faulty runs replay bit-for-bit.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace duti {

using NodeId = std::uint32_t;

/// A network message: opaque 64-bit words plus an explicit bit-size, so the
/// cost accounting can charge sub-word messages (e.g. 1-bit votes) honestly.
struct NetMessage {
  NodeId from = 0;
  NodeId to = 0;
  std::vector<std::uint64_t> payload;
  std::uint64_t bit_size = 0;
};

/// Everything a node can see and do during one round.
class RoundContext {
 public:
  RoundContext(NodeId id, unsigned round, std::vector<NetMessage> inbox,
               Rng& rng)
      : id_(id), round_(round), inbox_(std::move(inbox)), rng_(&rng) {}

  [[nodiscard]] NodeId id() const noexcept { return id_; }
  [[nodiscard]] unsigned round() const noexcept { return round_; }
  [[nodiscard]] const std::vector<NetMessage>& inbox() const noexcept {
    return inbox_;
  }
  [[nodiscard]] Rng& rng() noexcept { return *rng_; }

  /// Queue a message for delivery at the start of the next round.
  void send(NodeId to, std::vector<std::uint64_t> payload,
            std::uint64_t bit_size);

  /// Mark this node as finished; the simulation stops when all nodes halt.
  void halt() noexcept { halted_ = true; }
  [[nodiscard]] bool halted() const noexcept { return halted_; }

  [[nodiscard]] std::vector<NetMessage> take_outbox() noexcept {
    return std::move(outbox_);
  }

 private:
  NodeId id_;
  unsigned round_;
  std::vector<NetMessage> inbox_;
  std::vector<NetMessage> outbox_;
  Rng* rng_;
  bool halted_ = false;
};

/// Per-node behaviour: called once per round until the node halts.
using NodeBehavior = std::function<void(RoundContext&)>;

struct NetworkStats {
  unsigned rounds_executed = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t bits_sent = 0;
  std::uint64_t messages_delivered = 0;       // handed to an active node's
                                              // inbox (corrupted included)
  std::uint64_t messages_dropped = 0;
  std::uint64_t messages_corrupted = 0;
  std::uint64_t messages_delayed = 0;         // deferred by a delay fault
  std::uint64_t messages_lost_to_outage = 0;  // sent into an outage window
  std::uint64_t messages_lost_to_halted = 0;  // delivered to a halted/crashed
                                              // node (or undelivered at exit)
  std::uint64_t nodes_crashed = 0;            // crash-stop faults that fired

  /// Every sent message is either delivered or accounted to exactly one
  /// loss bucket; audits check this balance.
  [[nodiscard]] std::uint64_t messages_lost() const noexcept {
    return messages_dropped + messages_lost_to_outage +
           messages_lost_to_halted;
  }
  /// The conservation law the chaos oracles enforce: every sent message is
  /// delivered to an active node or charged to exactly one loss bucket.
  [[nodiscard]] bool conserves_messages() const noexcept {
    return messages_sent == messages_delivered + messages_lost();
  }
};

/// Fault model for a link. Each traversing message is independently:
///  1. discarded outright if the send round falls in [outage_lo, outage_hi)
///     (a scheduled link outage — deterministic, no randomness consumed);
///  2. dropped with probability `drop_prob`;
///  3. corrupted with probability `corrupt_prob` — a uniformly chosen bit
///     inside the message's declared `bit_size` is flipped;
///  4. delayed with probability `delay_prob` — delivery deferred by
///     `delay_rounds` extra rounds.
/// The probabilistic faults (2-4) only fire when the send round falls in
/// the burst window [burst_lo, burst_hi); the default window covers every
/// round, so existing always-on fault models are unchanged. Faults draw
/// from a stream derived from the run RNG, so faulty runs replay exactly
/// too.
struct LinkFault {
  /// Sentinel for "burst never ends" — the default upper bound.
  static constexpr unsigned kAlways = 0xFFFFFFFFu;

  double drop_prob = 0.0;
  double corrupt_prob = 0.0;
  double delay_prob = 0.0;
  unsigned delay_rounds = 1;
  unsigned outage_lo = 0;  // outage window [outage_lo, outage_hi); empty
  unsigned outage_hi = 0;  // when outage_lo >= outage_hi
  unsigned burst_lo = 0;         // probabilistic faults fire only when the
  unsigned burst_hi = kAlways;   // send round is in [burst_lo, burst_hi)

  [[nodiscard]] bool is_clean() const noexcept {
    return drop_prob == 0.0 && corrupt_prob == 0.0 && delay_prob == 0.0 &&
           outage_lo >= outage_hi;
  }
  [[nodiscard]] bool in_outage(unsigned round) const noexcept {
    return round >= outage_lo && round < outage_hi;
  }
  [[nodiscard]] bool in_burst(unsigned round) const noexcept {
    return round >= burst_lo && round < burst_hi;
  }
};

class Network {
 public:
  /// `num_nodes` nodes, ids 0..num_nodes-1, no edges yet.
  explicit Network(std::uint32_t num_nodes);

  /// Directed communication edge; sending along a non-edge throws at run
  /// time. add_star wires every node to a center (both directions).
  void add_edge(NodeId from, NodeId to);
  void add_star(NodeId center);

  [[nodiscard]] std::uint32_t num_nodes() const noexcept {
    return static_cast<std::uint32_t>(adjacency_.size());
  }
  [[nodiscard]] bool has_edge(NodeId from, NodeId to) const;

  /// All v with an edge node -> v.
  [[nodiscard]] std::vector<NodeId> neighbors(NodeId node) const;

  void set_behavior(NodeId node, NodeBehavior behavior);

  /// Apply a fault model to one link (must be an edge) or to every link.
  void set_link_fault(NodeId from, NodeId to, LinkFault fault);
  void set_default_fault(LinkFault fault);

  /// Crash-stop fault: the node stops executing at the start of `round`
  /// (it never runs that round or any later one). Crashed nodes count as
  /// halted for termination, and messages delivered to them are counted in
  /// `messages_lost_to_halted`.
  void schedule_crash(NodeId node, unsigned round);

  /// Run until every node has halted or `max_rounds` elapse; returns stats.
  /// Throws Error if any node is missing a behavior.
  NetworkStats run(Rng& rng, unsigned max_rounds = 1000);

 private:
  [[nodiscard]] const LinkFault& fault_of(NodeId from, NodeId to) const;

  std::vector<std::vector<std::uint8_t>> adjacency_;  // adjacency_[u][v]
  std::vector<NodeBehavior> behaviors_;
  LinkFault default_fault_;
  std::map<std::pair<NodeId, NodeId>, LinkFault> link_faults_;
  std::map<NodeId, unsigned> crash_schedule_;
};

}  // namespace duti
