#include "chaos/oracles.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "util/error.hpp"
#include "util/fnv.hpp"

namespace duti::chaos {

std::uint64_t RunResult::fingerprint() const {
  Fnv64 h;
  h.u64(static_cast<std::uint64_t>(outcome));
  h.u64(root_sum);
  h.u64(values_reached);
  h.u64(values_lost);
  h.u64(reparent_events);
  h.u64(net.rounds_executed);
  h.u64(net.messages_sent);
  h.u64(net.bits_sent);
  h.u64(net.messages_delivered);
  h.u64(net.messages_dropped);
  h.u64(net.messages_corrupted);
  h.u64(net.messages_delayed);
  h.u64(net.messages_lost_to_outage);
  h.u64(net.messages_lost_to_halted);
  h.u64(net.nodes_crashed);
  h.u64(transport.data_sent);
  h.u64(transport.retransmissions);
  h.u64(transport.acks_sent);
  h.u64(transport.duplicates);
  h.u64(transport.delivered);
  h.u64(transport.failed);
  h.u64(transport.payload_bits);
  h.u64(transport.overhead_bits);
  return h.value();
}

QuorumThresholdRule referee_rule_of(const ScenarioSpec& spec) {
  QuorumThresholdRule rule;
  rule.k = spec.k();
  rule.p_reject_uniform = static_cast<double>(spec.vote_pct) / 100.0;
  return rule;
}

Prediction predict(const ScenarioSpec& spec, const ReliableConfig& cfg) {
  Prediction p;
  const std::uint32_t k = spec.k();
  std::vector<std::uint8_t> crashed(k, 0);
  std::uint32_t crash_count = 0;
  bool tolerant = true;
  // Outage windows per unordered link pair: the transport's max_retries+1
  // attempts are spaced >= timeout(0) rounds apart, so one window of
  // length <= timeout(0) kills at most one attempt (forward window) or one
  // ACK (reverse window). <= max_retries windows on the pair leave at
  // least one attempt whose DATA and ACK both clear every window.
  std::map<std::pair<std::uint32_t, std::uint32_t>, unsigned> pair_windows;
  for (const auto& c : spec.components) {
    switch (c.kind) {
      case FaultComponent::Kind::kCrash:
        p.crash_free = false;
        if (c.lo != 0 || c.node == 0) {
          tolerant = false;  // mid-protocol or referee death: no theorem
        } else if (!crashed[c.node]) {
          crashed[c.node] = 1;
          ++crash_count;
        }
        break;
      case FaultComponent::Kind::kByzantine:
        p.byz_free = false;  // vote-level: prediction absorbs it exactly
        break;
      case FaultComponent::Kind::kOutage: {
        if (c.len > cfg.timeout(0)) tolerant = false;
        ++pair_windows[{std::min(c.from, c.to), std::max(c.from, c.to)}];
        break;
      }
      default:
        tolerant = false;  // probabilistic faults: only likely, not proven
        break;
    }
  }
  for (const auto& [pair, windows] : pair_windows) {
    (void)pair;
    if (windows > cfg.max_retries) tolerant = false;
  }
  // Deep re-parent cascades (several crashed candidates in a row) stretch
  // the per-hop time budget; stay conservative and only certify schedules
  // whose healing is shallow.
  if (crash_count > 2) tolerant = false;
  p.within_tolerance = tolerant;
  if (!tolerant) return p;

  // Healed delivery set: a node's value reaches the root iff the node is
  // alive and its effective-parent chain is alive all the way up. The
  // effective parent e(v) is the first ALIVE entry of the exact candidate
  // order convergecast_sum_reliable tries: the tree parent first, then the
  // remaining strictly-closer neighbours by (depth, id).
  Network net = build_network(spec);
  const SpanningTree tree = bfs_spanning_tree(net, 0);
  p.delivers.assign(k, 0);
  std::vector<NodeId> by_depth(k);
  for (std::uint32_t v = 0; v < k; ++v) by_depth[v] = v;
  std::sort(by_depth.begin(), by_depth.end(), [&](NodeId a, NodeId b) {
    return tree.depth[a] != tree.depth[b] ? tree.depth[a] < tree.depth[b]
                                          : a < b;
  });
  p.delivers[tree.root] = 1;  // referee never crashes within tolerance
  for (const NodeId v : by_depth) {
    if (v == tree.root || crashed[v]) continue;
    std::vector<NodeId> candidates{tree.parent[v]};
    std::vector<NodeId> closer;
    for (const NodeId u : net.neighbors(v)) {
      if (tree.depth[u] < tree.depth[v] && u != tree.parent[v]) {
        closer.push_back(u);
      }
    }
    std::sort(closer.begin(), closer.end(), [&](NodeId a, NodeId b) {
      return tree.depth[a] != tree.depth[b] ? tree.depth[a] < tree.depth[b]
                                            : a < b;
    });
    candidates.insert(candidates.end(), closer.begin(), closer.end());
    for (const NodeId e : candidates) {
      if (!crashed[e]) {
        p.delivers[v] = p.delivers[e];  // e is shallower: already decided
        break;
      }
    }
  }

  const std::vector<std::uint64_t> votes = tampered_votes_of(spec);
  for (std::uint32_t v = 0; v < k; ++v) {
    if (p.delivers[v]) {
      ++p.predicted_reached;
      p.predicted_rejects += votes[v];
    } else if (!crashed[v]) {
      ++p.predicted_lost;
    }
  }
  p.predicted_outcome =
      referee_rule_of(spec).decide(p.predicted_rejects, p.predicted_reached);
  return p;
}

namespace {

void oracle_net_conservation(const OracleContext& ctx,
                             std::vector<Violation>& out) {
  auto check = [&](const char* which, const NetworkStats& s) {
    if (!s.conserves_messages()) {
      out.push_back(
          {"net-conservation",
           std::string(which) + ": sent=" + std::to_string(s.messages_sent) +
               " != delivered=" + std::to_string(s.messages_delivered) +
               " + lost=" + std::to_string(s.messages_lost())});
    }
  };
  check("run", ctx.run.net);
  check("baseline", ctx.baseline.net);
}

void oracle_transport_accounting(const OracleContext& ctx,
                                 std::vector<Violation>& out) {
  const auto& t = ctx.run.transport;
  const auto& n = ctx.run.net;
  if (t.payload_bits + t.overhead_bits != n.bits_sent) {
    out.push_back({"transport-accounting",
                   "payload+overhead=" +
                       std::to_string(t.payload_bits + t.overhead_bits) +
                       " != bits_sent=" + std::to_string(n.bits_sent)});
  }
  const std::uint64_t frames = t.data_sent + t.retransmissions + t.acks_sent;
  if (frames != n.messages_sent) {
    out.push_back({"transport-accounting",
                   "frames=" + std::to_string(frames) + " != messages_sent=" +
                       std::to_string(n.messages_sent)});
  }
}

void oracle_value_accounting(const OracleContext& ctx,
                             std::vector<Violation>& out) {
  const std::uint32_t k = ctx.spec.k();
  if (ctx.run.values_reached < 1 || ctx.run.values_lost > k ||
      ctx.run.values_reached > 2 * k) {
    out.push_back({"value-accounting",
                   "reached=" + std::to_string(ctx.run.values_reached) +
                       " lost=" + std::to_string(ctx.run.values_lost) +
                       " k=" + std::to_string(k)});
  }
}

void oracle_replay_determinism(const OracleContext& ctx,
                               std::vector<Violation>& out) {
  if (ctx.run.fingerprint() != ctx.replay.fingerprint()) {
    out.push_back({"replay-determinism",
                   "token-replayed run diverged: fp=" +
                       std::to_string(ctx.run.fingerprint()) +
                       " vs replay fp=" +
                       std::to_string(ctx.replay.fingerprint())});
  }
}

void oracle_no_spurious_abort(const OracleContext& ctx,
                              std::vector<Violation>& out) {
  if (!ctx.predicted.within_tolerance) return;
  const std::uint64_t quorum = referee_rule_of(ctx.spec).quorum();
  const bool satisfiable = ctx.predicted.predicted_reached >= quorum;
  if (satisfiable && ctx.run.outcome == RefereeOutcome::kAbortQuorum) {
    out.push_back({"no-spurious-abort",
                   std::string("referee ") + to_string(ctx.run.outcome) +
                       " but " +
                       std::to_string(ctx.predicted.predicted_reached) +
                       " survivors were reachable (quorum=" +
                       std::to_string(quorum) + ")"});
  }
}

void oracle_predicted_verdict(const OracleContext& ctx,
                              std::vector<Violation>& out) {
  if (!ctx.predicted.within_tolerance) return;
  const auto& p = ctx.predicted;
  const auto& r = ctx.run;
  if (r.outcome != p.predicted_outcome ||
      r.values_reached != p.predicted_reached ||
      r.values_lost != p.predicted_lost ||
      r.root_sum != p.predicted_rejects) {
    out.push_back(
        {"predicted-verdict",
         std::string("got ") + to_string(r.outcome) +
             " reached=" + std::to_string(r.values_reached) +
             " lost=" + std::to_string(r.values_lost) +
             " sum=" + std::to_string(r.root_sum) + "; predicted " +
             to_string(p.predicted_outcome) +
             " reached=" + std::to_string(p.predicted_reached) +
             " lost=" + std::to_string(p.predicted_lost) +
             " sum=" + std::to_string(p.predicted_rejects)});
  }
}

void oracle_baseline_agreement(const OracleContext& ctx,
                               std::vector<Violation>& out) {
  if (!ctx.predicted.within_tolerance || !ctx.predicted.crash_free ||
      !ctx.predicted.byz_free) {
    return;
  }
  if (ctx.run.outcome != ctx.baseline.outcome) {
    out.push_back({"baseline-agreement",
                   std::string("faulted run ") + to_string(ctx.run.outcome) +
                       " != fault-free baseline " +
                       to_string(ctx.baseline.outcome) +
                       " though the schedule is within tolerance"});
  }
}

}  // namespace

const std::vector<OracleEntry>& oracle_registry() {
  static const std::vector<OracleEntry> kRegistry = {
      {"net-conservation", oracle_net_conservation},
      {"transport-accounting", oracle_transport_accounting},
      {"value-accounting", oracle_value_accounting},
      {"replay-determinism", oracle_replay_determinism},
      {"no-spurious-abort", oracle_no_spurious_abort},
      {"predicted-verdict", oracle_predicted_verdict},
      {"baseline-agreement", oracle_baseline_agreement},
  };
  return kRegistry;
}

std::vector<Violation> check_oracles(const OracleContext& ctx) {
  std::vector<Violation> out;
  for (const auto& entry : oracle_registry()) entry.check(ctx, out);
  return out;
}

}  // namespace duti::chaos
