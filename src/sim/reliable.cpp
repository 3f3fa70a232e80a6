#include "sim/reliable.hpp"

#include <algorithm>

namespace duti {

namespace {

constexpr std::uint64_t kKindData = 1;
constexpr std::uint64_t kKindAck = 2;
constexpr unsigned kAckTimeout = 2;  // rounds before the first retransmit
constexpr unsigned kBackoff = 2;     // timeout multiplier per retry
constexpr unsigned kTimeoutCap = 256;  // rounds; keeps backoff finite

[[nodiscard]] std::uint64_t make_header(std::uint64_t kind,
                                        std::uint64_t seq) noexcept {
  return kind | (seq << 2);
}

}  // namespace

unsigned ReliableConfig::timeout(unsigned attempt) const noexcept {
  std::uint64_t t = std::max(1u, kAckTimeout);
  for (unsigned i = 0; i < attempt; ++i) {
    t *= std::max(1u, kBackoff);
    if (t >= kTimeoutCap) return kTimeoutCap;
  }
  return static_cast<unsigned>(std::min<std::uint64_t>(t, kTimeoutCap));
}

unsigned ReliableConfig::window() const noexcept {
  unsigned total = 0;
  for (unsigned i = 0; i <= max_retries; ++i) total += timeout(i);
  return total;
}

void ReliableStats::merge(const ReliableStats& other) noexcept {
  data_sent += other.data_sent;
  retransmissions += other.retransmissions;
  acks_sent += other.acks_sent;
  duplicates += other.duplicates;
  delivered += other.delivered;
  failed += other.failed;
  payload_bits += other.payload_bits;
  overhead_bits += other.overhead_bits;
}

std::uint64_t ReliableEndpoint::send(NodeId to,
                                     std::vector<std::uint64_t> payload,
                                     std::uint64_t bit_size) {
  Pending p;
  p.to = to;
  p.seq = next_seq_++;
  p.payload = std::move(payload);
  p.bit_size = bit_size;
  pending_.push_back(std::move(p));
  return pending_.back().seq;
}

std::vector<ReliableDelivery> ReliableEndpoint::receive(RoundContext& ctx) {
  std::vector<ReliableDelivery> out;
  const std::uint64_t header_bits = cfg_.header_bits();
  for (const auto& m : ctx.inbox()) {
    if (m.payload.empty()) continue;  // not a reliable frame
    const std::uint64_t kind = m.payload[0] & 3ULL;
    const std::uint64_t seq = m.payload[0] >> 2;
    if (kind == kKindData) {
      // Always ACK, even duplicates: the earlier ACK may have been lost.
      ctx.send(m.from, {make_header(kKindAck, seq)}, header_bits);
      ++stats_.acks_sent;
      stats_.overhead_bits += header_bits;
      if (!seen_.insert({m.from, seq}).second) {
        ++stats_.duplicates;
        continue;
      }
      ReliableDelivery d;
      d.from = m.from;
      d.seq = seq;
      d.payload.assign(m.payload.begin() + 1, m.payload.end());
      d.bit_size = m.bit_size > header_bits ? m.bit_size - header_bits : 0;
      ++stats_.delivered;
      out.push_back(std::move(d));
    } else if (kind == kKindAck) {
      const auto it = std::find_if(
          pending_.begin(), pending_.end(), [&](const Pending& p) {
            return p.to == m.from && p.seq == seq;
          });
      if (it != pending_.end()) pending_.erase(it);
    }
    // Unknown kinds (e.g. a corrupted header) are ignored; the sender's
    // timeout recovers the frame.
  }
  return out;
}

void ReliableEndpoint::flush(RoundContext& ctx) {
  const unsigned round = ctx.round();
  const std::uint64_t header_bits = cfg_.header_bits();
  for (std::size_t i = 0; i < pending_.size();) {
    Pending& p = pending_[i];
    if (p.attempts == 0) {
      // First transmission.
      std::vector<std::uint64_t> framed;
      framed.reserve(p.payload.size() + 1);
      framed.push_back(make_header(kKindData, p.seq));
      framed.insert(framed.end(), p.payload.begin(), p.payload.end());
      ctx.send(p.to, std::move(framed), p.bit_size + header_bits);
      ++stats_.data_sent;
      stats_.payload_bits += p.bit_size;
      stats_.overhead_bits += header_bits;
      p.attempts = 1;
      p.next_attempt_round = round + cfg_.timeout(0);
      ++i;
    } else if (round >= p.next_attempt_round) {
      if (p.attempts > cfg_.max_retries) {
        // Retry budget exhausted: hand the payload back to the caller.
        ++stats_.failed;
        FailedSend f;
        f.to = p.to;
        f.seq = p.seq;
        f.payload = std::move(p.payload);
        f.bit_size = p.bit_size;
        failures_.push_back(std::move(f));
        pending_.erase(pending_.begin() +
                       static_cast<std::ptrdiff_t>(i));
      } else {
        std::vector<std::uint64_t> framed;
        framed.reserve(p.payload.size() + 1);
        framed.push_back(make_header(kKindData, p.seq));
        framed.insert(framed.end(), p.payload.begin(), p.payload.end());
        ctx.send(p.to, std::move(framed), p.bit_size + header_bits);
        ++stats_.retransmissions;
        stats_.overhead_bits += p.bit_size + header_bits;
        p.next_attempt_round = round + cfg_.timeout(p.attempts);
        ++p.attempts;
        ++i;
      }
    } else {
      ++i;
    }
  }
}

std::vector<FailedSend> ReliableEndpoint::take_failures() {
  return std::move(failures_);
}

ReliableConvergecastResult convergecast_sum_reliable(
    Network& net, const SpanningTree& tree,
    const std::vector<std::uint64_t>& values, std::uint64_t bits_per_value,
    Rng& rng, const ReliableConfig& cfg) {
  require(values.size() == net.num_nodes(),
          "convergecast_sum_reliable: one value per node");
  require(tree.num_nodes() == net.num_nodes(),
          "convergecast_sum_reliable: tree/network size mismatch");
  const std::uint32_t k = net.num_nodes();

  // Each frame carries (partial sum, contributing-node count).
  std::uint64_t count_bits = 1;
  while ((1ULL << count_bits) < k + 1ULL) ++count_bits;
  const std::uint64_t app_bits = bits_per_value + count_bits;

  // Per-hop time budget: a full retransmission window plus slack, so a
  // child's (possibly retransmitted) report lands before its parent's
  // send deadline.
  const unsigned hop = cfg.window() + 4;
  const unsigned t_end = (tree.height + 4) * hop;
  auto deadline = [&](NodeId v) {
    return (tree.height - tree.depth[v] + 1) * hop;
  };

  // Shared per-node protocol state, captured by the behaviours (the same
  // one-shot idiom as convergecast_sum).
  std::vector<ReliableEndpoint> ep(k, ReliableEndpoint(cfg));
  std::vector<std::uint64_t> acc(values);
  std::vector<std::uint64_t> cnt(k, 1);
  std::vector<std::uint8_t> sent(k, 0);
  std::vector<NodeId> cur_parent(tree.parent);
  std::vector<std::vector<NodeId>> kids(k);
  std::vector<std::set<NodeId>> reported(k);
  std::vector<std::set<NodeId>> tried(k);
  for (NodeId v = 0; v < k; ++v) {
    kids[v] = tree.children(v);
    tried[v].insert(tree.parent[v]);
  }
  std::uint32_t reparents = 0, lost = 0;

  auto all_done = [&]() {
    for (NodeId v = 0; v < k; ++v) {
      if (v != tree.root && !sent[v]) return false;
      if (!ep[v].idle()) return false;
    }
    return true;
  };

  for (NodeId v = 0; v < k; ++v) {
    net.set_behavior(v, [&, v](RoundContext& ctx) {
      for (auto& d : ep[v].receive(ctx)) {
        const std::uint64_t value = d.payload.at(0);
        const std::uint64_t c = d.payload.at(1);
        reported[v].insert(d.from);
        if (v == tree.root || !sent[v]) {
          acc[v] += value;
          cnt[v] += c;
        } else {
          // Our own report already left; forward the late contribution
          // (a re-parented or straggler subtree) up the current parent.
          ep[v].send(cur_parent[v], {value, c}, app_bits);
        }
      }
      for (auto& f : ep[v].take_failures()) {
        // The destination stopped acknowledging (crashed parent, dead
        // link): re-parent to an untried neighbour strictly closer to the
        // root. Depth strictly decreases along any forwarding chain, so
        // healing cannot create cycles.
        NodeId next = v;
        for (const NodeId u : net.neighbors(v)) {
          if (tree.depth[u] >= tree.depth[v]) continue;
          if (tried[v].count(u)) continue;
          if (next == v || tree.depth[u] < tree.depth[next] ||
              (tree.depth[u] == tree.depth[next] && u < next)) {
            next = u;
          }
        }
        if (next == v) {
          lost += static_cast<std::uint32_t>(f.payload.at(1));
        } else {
          tried[v].insert(next);
          cur_parent[v] = next;
          ++reparents;
          ep[v].send(next, std::move(f.payload), f.bit_size);
        }
      }
      if (v != tree.root && !sent[v]) {
        bool all_reported = true;
        for (const NodeId c : kids[v]) {
          if (!reported[v].count(c)) {
            all_reported = false;
            break;
          }
        }
        // Send once every child reported — or at the deadline, with
        // whatever arrived (crashed children never report).
        if (all_reported || ctx.round() >= deadline(v)) {
          sent[v] = 1;
          ep[v].send(cur_parent[v], {acc[v], cnt[v]}, app_bits);
        }
      }
      ep[v].flush(ctx);
      if (ctx.round() >= t_end || all_done()) ctx.halt();
    });
  }

  ReliableConvergecastResult result;
  result.stats = net.run(rng, t_end + 2);
  result.root_sum = acc[tree.root];
  result.values_reached = static_cast<std::uint32_t>(cnt[tree.root]);
  result.values_total = k;
  result.values_lost = lost;
  result.reparent_events = reparents;
  for (NodeId v = 0; v < k; ++v) result.transport.merge(ep[v].stats());
  return result;
}

}  // namespace duti
