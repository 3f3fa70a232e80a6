#include "sim/network.hpp"

#include <algorithm>

namespace duti {

void RoundContext::send(NodeId to, std::vector<std::uint64_t> payload,
                        std::uint64_t bit_size) {
  NetMessage m;
  m.from = id_;
  m.to = to;
  m.payload = std::move(payload);
  m.bit_size = bit_size;
  outbox_.push_back(std::move(m));
}

namespace {

void check_fault(const LinkFault& fault, const char* what) {
  require(fault.drop_prob >= 0.0 && fault.drop_prob <= 1.0 &&
              fault.corrupt_prob >= 0.0 && fault.corrupt_prob <= 1.0 &&
              fault.delay_prob >= 0.0 && fault.delay_prob <= 1.0,
          std::string(what) + ": probabilities in [0,1]");
  require(fault.delay_prob == 0.0 || fault.delay_rounds >= 1,
          std::string(what) + ": delay_rounds must be >= 1 when delaying");
}

/// Flip a uniformly chosen bit inside the message's declared bit width.
void corrupt_message(NetMessage& m, Rng& fault_rng) {
  const std::uint64_t width = std::min<std::uint64_t>(
      m.bit_size, 64 * static_cast<std::uint64_t>(m.payload.size()));
  if (width == 0) return;
  const std::uint64_t bit = fault_rng.next_below(width);
  m.payload[bit / 64] ^= 1ULL << (bit % 64);
}

}  // namespace

Network::Network(std::uint32_t num_nodes)
    : adjacency_(num_nodes, std::vector<std::uint8_t>(num_nodes, 0)),
      behaviors_(num_nodes) {
  require(num_nodes >= 1, "Network: need at least one node");
}

void Network::add_edge(NodeId from, NodeId to) {
  require(from < num_nodes() && to < num_nodes(),
          "Network::add_edge: node id out of range");
  require(from != to, "Network::add_edge: no self loops");
  adjacency_[from][to] = 1;
}

void Network::add_star(NodeId center) {
  require(center < num_nodes(), "Network::add_star: center out of range");
  for (NodeId v = 0; v < num_nodes(); ++v) {
    if (v == center) continue;
    add_edge(v, center);
    add_edge(center, v);
  }
}

bool Network::has_edge(NodeId from, NodeId to) const {
  require(from < num_nodes() && to < num_nodes(),
          "Network::has_edge: node id out of range");
  return adjacency_[from][to] != 0;
}

std::vector<NodeId> Network::neighbors(NodeId node) const {
  require(node < num_nodes(), "Network::neighbors: node id out of range");
  std::vector<NodeId> out;
  for (NodeId v = 0; v < num_nodes(); ++v) {
    if (adjacency_[node][v]) out.push_back(v);
  }
  return out;
}

void Network::set_behavior(NodeId node, NodeBehavior behavior) {
  require(node < num_nodes(), "Network::set_behavior: node id out of range");
  require(static_cast<bool>(behavior), "Network::set_behavior: empty behavior");
  behaviors_[node] = std::move(behavior);
}

void Network::set_link_fault(NodeId from, NodeId to, LinkFault fault) {
  require(has_edge(from, to), "Network::set_link_fault: no such edge");
  check_fault(fault, "Network::set_link_fault");
  link_faults_[{from, to}] = fault;
}

void Network::set_default_fault(LinkFault fault) {
  check_fault(fault, "Network::set_default_fault");
  default_fault_ = fault;
}

void Network::schedule_crash(NodeId node, unsigned round) {
  require(node < num_nodes(), "Network::schedule_crash: node id out of range");
  crash_schedule_[node] = round;
}

const LinkFault& Network::fault_of(NodeId from, NodeId to) const {
  const auto it = link_faults_.find({from, to});
  return it != link_faults_.end() ? it->second : default_fault_;
}

NetworkStats Network::run(Rng& rng, unsigned max_rounds) {
  for (NodeId v = 0; v < num_nodes(); ++v) {
    if (!behaviors_[v]) {
      throw Error("Network::run: node " + std::to_string(v) +
                  " has no behavior");
    }
  }
  NetworkStats stats;
  std::vector<std::vector<NetMessage>> inboxes(num_nodes());
  std::vector<std::uint8_t> halted(num_nodes(), 0);
  std::vector<std::uint8_t> crashed(num_nodes(), 0);
  // Delay-faulted messages in flight, keyed by their delivery round.
  std::map<unsigned, std::vector<NetMessage>> delayed;

  for (unsigned round = 0; round < max_rounds; ++round) {
    // Fire scheduled crash-stop faults before the round executes.
    for (const auto& [node, crash_round] : crash_schedule_) {
      if (round >= crash_round && !crashed[node]) {
        crashed[node] = 1;
        ++stats.nodes_crashed;
      }
    }
    bool all_inactive = true;
    for (NodeId v = 0; v < num_nodes(); ++v) {
      if (!halted[v] && !crashed[v]) {
        all_inactive = false;
        break;
      }
    }
    if (all_inactive) break;

    // Delayed messages due this round join the regular inboxes.
    if (const auto it = delayed.find(round); it != delayed.end()) {
      for (auto& m : it->second) inboxes[m.to].push_back(std::move(m));
      delayed.erase(it);
    }

    std::vector<std::vector<NetMessage>> next_inboxes(num_nodes());
    for (NodeId v = 0; v < num_nodes(); ++v) {
      if (halted[v] || crashed[v]) {
        // The node will never read these; keep the bit audit balanced.
        stats.messages_lost_to_halted += inboxes[v].size();
        inboxes[v].clear();
        continue;
      }
      Rng node_rng = make_rng(rng(), v, round);
      stats.messages_delivered += inboxes[v].size();
      RoundContext ctx(v, round, std::move(inboxes[v]), node_rng);
      behaviors_[v](ctx);
      if (ctx.halted()) halted[v] = 1;
      for (auto& m : ctx.take_outbox()) {
        require(has_edge(v, m.to),
                "Network::run: node " + std::to_string(v) +
                    " sent along a non-edge to " + std::to_string(m.to));
        ++stats.messages_sent;
        stats.bits_sent += m.bit_size;
        const LinkFault& fault = fault_of(v, m.to);
        if (!fault.is_clean()) {
          if (fault.in_outage(round)) {
            ++stats.messages_lost_to_outage;
            continue;
          }
          if (fault.in_burst(round)) {
            Rng fault_rng = make_rng(rng(), 0xFA17ULL, v, m.to, round);
            if (fault_rng.next_bernoulli(fault.drop_prob)) {
              ++stats.messages_dropped;
              continue;
            }
            if (!m.payload.empty() &&
                fault_rng.next_bernoulli(fault.corrupt_prob)) {
              corrupt_message(m, fault_rng);
              ++stats.messages_corrupted;
            }
            if (fault.delay_prob > 0.0 &&
                fault_rng.next_bernoulli(fault.delay_prob)) {
              ++stats.messages_delayed;
              delayed[round + 1 + fault.delay_rounds].push_back(std::move(m));
              continue;
            }
          }
        }
        next_inboxes[m.to].push_back(std::move(m));
      }
    }
    inboxes = std::move(next_inboxes);
    ++stats.rounds_executed;
  }

  // Messages still undelivered when the run ends were sent to nodes that
  // will never read them; account them so sent == delivered + lost.
  for (const auto& inbox : inboxes) {
    stats.messages_lost_to_halted += inbox.size();
  }
  for (const auto& entry : delayed) {
    stats.messages_lost_to_halted += entry.second.size();
  }
  return stats;
}

}  // namespace duti
