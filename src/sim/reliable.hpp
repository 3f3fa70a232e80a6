// Reliable transport over lossy links: stop-and-wait ACK + timeout +
// bounded-retry retransmission with exponential backoff, plus a
// self-healing convergecast built on top of it.
//
// The paper's model assumes every player's bit reaches the referee. The
// fault models in `Network` break that assumption; this layer buys it back
// at an explicit, honestly-accounted bit cost (sequence-number headers,
// ACKs, retransmissions), so experiments can measure what reliability is
// worth — and what crashes cost even with retransmission (the degradation
// report of `convergecast_sum_reliable`).
#pragma once

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "sim/convergecast.hpp"
#include "sim/network.hpp"

namespace duti {

/// Accounted width of the sequence number in every DATA/ACK frame.
inline constexpr unsigned kSeqBits = 16;

/// The transport's one setting: how many times a send is retried. The
/// timeout schedule is fixed: 2 rounds before the first retransmit, doubling
/// per retry (exponential backoff).
struct ReliableConfig {
  unsigned max_retries = 4;  // retransmissions after the initial send

  /// Accounted header width of every DATA/ACK frame (kind tag + seq).
  [[nodiscard]] std::uint64_t header_bits() const noexcept {
    return 2 + kSeqBits;
  }
  /// Timeout before retransmission number `attempt` (0-based), capped so
  /// long retry ladders cannot overflow.
  [[nodiscard]] unsigned timeout(unsigned attempt) const noexcept;
  /// Rounds from first transmission until the sender declares failure.
  [[nodiscard]] unsigned window() const noexcept;
};

/// An application message delivered by the reliable layer (header removed).
struct ReliableDelivery {
  NodeId from = 0;
  std::uint64_t seq = 0;
  std::vector<std::uint64_t> payload;  // app words only
  std::uint64_t bit_size = 0;          // app bits only
};

/// A send that exhausted its retries; the app payload is returned so the
/// caller can reroute it (e.g. re-parent in the convergecast).
struct FailedSend {
  NodeId to = 0;
  std::uint64_t seq = 0;
  std::vector<std::uint64_t> payload;  // app words only
  std::uint64_t bit_size = 0;          // app bits only
};

struct ReliableStats {
  std::uint64_t data_sent = 0;        // first transmissions
  std::uint64_t retransmissions = 0;  // repeat transmissions
  std::uint64_t acks_sent = 0;
  std::uint64_t duplicates = 0;  // received DATA frames already seen
  std::uint64_t delivered = 0;   // distinct DATA frames delivered to the app
  std::uint64_t failed = 0;      // sends abandoned after max_retries
  std::uint64_t payload_bits = 0;   // useful app bits (first transmissions)
  std::uint64_t overhead_bits = 0;  // headers + ACKs + retransmissions

  void merge(const ReliableStats& other) noexcept;
};

/// Per-node reliable transport endpoint, driven from inside a NodeBehavior.
/// Call `receive(ctx)` first each round (consumes the inbox, emits ACKs,
/// settles acknowledged sends), then queue new `send`s, then `flush(ctx)`
/// (transmits queued frames and due retransmissions).
class ReliableEndpoint {
 public:
  ReliableEndpoint() = default;
  explicit ReliableEndpoint(ReliableConfig cfg) : cfg_(cfg) {}

  /// Queue `payload` for reliable delivery to `to`; transmitted on the next
  /// flush(). `bit_size` is the app payload width; the frame is charged
  /// `bit_size + header_bits()` on the wire. Returns the sequence number.
  std::uint64_t send(NodeId to, std::vector<std::uint64_t> payload,
                     std::uint64_t bit_size);

  /// Process this round's inbox: deliver new DATA (deduplicated), ACK every
  /// DATA frame, settle pending sends on ACK receipt.
  [[nodiscard]] std::vector<ReliableDelivery> receive(RoundContext& ctx);

  /// Transmit queued frames and due retransmissions; sends that exhausted
  /// their retries move to the failure list.
  void flush(RoundContext& ctx);

  /// True when nothing is awaiting an ACK or a first transmission.
  [[nodiscard]] bool idle() const noexcept { return pending_.empty(); }

  /// Drain sends that exhausted their retries since the last call.
  [[nodiscard]] std::vector<FailedSend> take_failures();

  [[nodiscard]] const ReliableStats& stats() const noexcept { return stats_; }

 private:
  struct Pending {
    NodeId to = 0;
    std::uint64_t seq = 0;
    std::vector<std::uint64_t> payload;  // app words
    std::uint64_t bit_size = 0;          // app bits
    unsigned attempts = 0;               // transmissions so far
    unsigned next_attempt_round = 0;
  };

  ReliableConfig cfg_;
  std::uint64_t next_seq_ = 1;
  std::vector<Pending> pending_;
  std::vector<FailedSend> failures_;
  std::set<std::pair<NodeId, std::uint64_t>> seen_;  // dedup (from, seq)
  ReliableStats stats_;
};

/// Degradation report of a fault-tolerant convergecast: how much of the
/// network's value actually reached the root, and what the reliability
/// machinery spent getting it there.
struct ReliableConvergecastResult {
  std::uint64_t root_sum = 0;
  std::uint32_t values_reached = 0;  // node values folded into root_sum
  std::uint32_t values_total = 0;
  std::uint32_t values_lost = 0;     // values abandoned (no route to root)
  std::uint32_t reparent_events = 0;
  ReliableStats transport;  // aggregated over all endpoints
  NetworkStats stats;

  /// Fraction of node values folded into root_sum. Can marginally exceed
  /// 1.0 under sustained heavy loss: a sender whose ACKs were ALL lost
  /// cannot distinguish "parent folded my frame" from "parent never saw
  /// it" (the two-generals ambiguity), and re-routing the frame after such
  /// a spurious failure double-counts it. Resolving the ambiguity is
  /// impossible over a lossy link; we prefer a small double-count chance
  /// (~(drop^2)^(max_retries+1) per hop) over certainly losing subtrees.
  [[nodiscard]] double delivery_fraction() const noexcept {
    return values_total == 0
               ? 1.0
               : static_cast<double>(values_reached) /
                     static_cast<double>(values_total);
  }
};

/// Fault-tolerant convergecast: like convergecast_sum, but every partial
/// sum travels over the reliable transport (lost frames are retransmitted)
/// and a node whose parent stops acknowledging re-parents to another
/// neighbour strictly closer to the root (self-healing BFS tree). Nodes
/// whose entire route to the root is gone give up; their values are counted
/// in the degradation report rather than silently corrupting the sum.
/// Each frame carries (partial sum, contributing-node count), so the root
/// knows exactly how many of the k values its total includes.
[[nodiscard]] ReliableConvergecastResult convergecast_sum_reliable(
    Network& net, const SpanningTree& tree,
    const std::vector<std::uint64_t>& values, std::uint64_t bits_per_value,
    Rng& rng, const ReliableConfig& cfg = {});

}  // namespace duti
