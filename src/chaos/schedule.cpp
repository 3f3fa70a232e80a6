#include "chaos/schedule.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <utility>

#include "sim/convergecast.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace duti::chaos {

namespace {

// Dedicated RNG stream labels (arbitrary distinct constants; fixed forever
// so campaign seed N names the same schedule in every build).
constexpr std::uint64_t kStreamShape = 0xC0A5ULL;   // topology, vote_pct
constexpr std::uint64_t kStreamFaults = 0xFA11ULL;  // component draws
constexpr std::uint64_t kStreamVotes = 0x507EULL;   // per-node vote bits

constexpr std::uint32_t kMaxComponents = 5;

[[nodiscard]] std::string u64_hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

const char* to_string(Topology t) noexcept {
  switch (t) {
    case Topology::kStar: return "star";
    case Topology::kPath: return "path";
    case Topology::kGrid: return "grid";
    case Topology::kBtree: return "btree";
  }
  return "?";
}

std::uint32_t num_nodes(Topology t) noexcept {
  switch (t) {
    case Topology::kStar: return 9;
    case Topology::kPath: return 8;
    case Topology::kGrid: return 12;  // 3x4
    case Topology::kBtree: return 15;
  }
  return 0;
}

const char* to_string(FaultComponent::Kind k) noexcept {
  switch (k) {
    case FaultComponent::Kind::kCrash: return "crash";
    case FaultComponent::Kind::kOutage: return "out";
    case FaultComponent::Kind::kDrop: return "drop";
    case FaultComponent::Kind::kCorrupt: return "cor";
    case FaultComponent::Kind::kDelay: return "del";
    case FaultComponent::Kind::kByzantine: return "byz";
  }
  return "?";
}

Network build_network(const ScenarioSpec& spec) {
  Network net(spec.k());
  switch (spec.topo) {
    case Topology::kStar:
      net.add_star(0);
      break;
    case Topology::kPath:
      add_path(net);
      break;
    case Topology::kGrid:
      add_grid(net, 3, 4);
      break;
    case Topology::kBtree:
      add_binary_tree(net);
      break;
  }
  return net;
}

std::vector<std::uint64_t> votes_of(const ScenarioSpec& spec) {
  require(spec.vote_pct <= 100, "votes_of: vote_pct must be <= 100");
  std::vector<std::uint64_t> votes(spec.k());
  const double p = static_cast<double>(spec.vote_pct) / 100.0;
  for (std::uint32_t v = 0; v < spec.k(); ++v) {
    // Per-node stream: a vote depends only on (vote_seed, v), never on
    // other nodes — shrinking components cannot ripple into the votes.
    Rng rng = make_rng(spec.vote_seed, kStreamVotes, v);
    votes[v] = rng.next_bernoulli(p) ? 1 : 0;
  }
  return votes;
}

std::vector<std::uint64_t> tampered_votes_of(const ScenarioSpec& spec) {
  std::vector<std::uint64_t> votes = votes_of(spec);
  for (const auto& c : spec.components) {
    if (c.kind == FaultComponent::Kind::kByzantine) {
      require(c.node < votes.size(), "tampered_votes_of: node out of range");
      votes[c.node] = 1;  // stuck-at-alarm: the adversarial direction for
                          // a threshold referee
    }
  }
  return votes;
}

void apply_schedule(const ScenarioSpec& spec, Network& net) {
  // LinkFault has one outage slot and one probabilistic-burst slot per
  // link, so components of the same family on the same directed link must
  // be unique; merge into per-link faults and fail loudly on conflicts.
  std::map<std::pair<NodeId, NodeId>, LinkFault> faults;
  std::set<std::pair<NodeId, NodeId>> has_outage, has_burst;
  for (const auto& c : spec.components) {
    switch (c.kind) {
      case FaultComponent::Kind::kCrash:
        require(c.node < net.num_nodes(),
                "apply_schedule: crash node out of range");
        net.schedule_crash(c.node, c.lo);
        break;
      case FaultComponent::Kind::kByzantine:
        break;  // vote-level: handled by tampered_votes_of
      case FaultComponent::Kind::kOutage:
      case FaultComponent::Kind::kDrop:
      case FaultComponent::Kind::kCorrupt:
      case FaultComponent::Kind::kDelay: {
        require(net.has_edge(c.from, c.to),
                "apply_schedule: component references a missing edge");
        require(c.len >= 1, "apply_schedule: window length must be >= 1");
        const std::pair<NodeId, NodeId> link{c.from, c.to};
        LinkFault& f = faults[link];
        if (c.kind == FaultComponent::Kind::kOutage) {
          require(has_outage.insert(link).second,
                  "apply_schedule: two outages on one link");
          f.outage_lo = c.lo;
          f.outage_hi = c.lo + c.len;
        } else {
          require(c.pct >= 1 && c.pct <= 100,
                  "apply_schedule: pct must be in [1,100]");
          require(has_burst.insert(link).second,
                  "apply_schedule: two probabilistic bursts on one link");
          f.burst_lo = c.lo;
          f.burst_hi = c.lo + c.len;
          const double p = static_cast<double>(c.pct) / 100.0;
          if (c.kind == FaultComponent::Kind::kDrop) f.drop_prob = p;
          if (c.kind == FaultComponent::Kind::kCorrupt) f.corrupt_prob = p;
          if (c.kind == FaultComponent::Kind::kDelay) {
            require(c.extra >= 1, "apply_schedule: delay extra must be >= 1");
            f.delay_prob = p;
            f.delay_rounds = c.extra;
          }
        }
        break;
      }
    }
  }
  for (const auto& [link, fault] : faults) {
    net.set_link_fault(link.first, link.second, fault);
  }
}

ScenarioSpec generate_scenario(std::uint64_t seed) {
  ScenarioSpec spec;
  Rng shape = make_rng(seed, kStreamShape);
  spec.topo = static_cast<Topology>(shape.next_below(4));
  // Vote rates straddle typical referee thresholds: mostly-quiet networks
  // (uniform-looking) and noisy ones (far-looking).
  const std::uint32_t vote_rates[] = {5, 10, 20, 40};
  spec.vote_pct = vote_rates[shape.next_below(4)];
  spec.vote_seed = derive_seed(seed, kStreamVotes);
  spec.run_seed = derive_seed(seed, 0x52D5ULL);

  Network net = build_network(spec);
  const std::uint32_t k = spec.k();
  Rng rng = make_rng(seed, kStreamFaults);
  const std::uint32_t n_components = 1 + static_cast<std::uint32_t>(
                                             rng.next_below(kMaxComponents));
  std::set<std::uint32_t> crashed, tampered;
  std::set<std::pair<NodeId, NodeId>> has_outage, has_burst;
  // Rounds where faults bite: convergecast traffic happens in the first
  // few hop-windows; windows beyond ~3 ReliableConfig windows are dead air.
  const std::uint32_t kRoundSpan = 200;
  for (std::uint32_t i = 0; i < n_components; ++i) {
    FaultComponent c;
    const std::uint64_t kind_draw = rng.next_below(6);
    c.kind = static_cast<FaultComponent::Kind>(kind_draw);
    switch (c.kind) {
      case FaultComponent::Kind::kCrash: {
        // Never crash the referee; at most one crash per node. Crashes at
        // round 0 dominate (the analytically-predictable case); later
        // crashes exercise mid-protocol death.
        c.node = 1 + static_cast<std::uint32_t>(rng.next_below(k - 1));
        if (!crashed.insert(c.node).second) continue;  // slot taken: skip
        c.lo = rng.next_bernoulli(0.75)
                   ? 0
                   : 1 + static_cast<std::uint32_t>(rng.next_below(8));
        break;
      }
      case FaultComponent::Kind::kByzantine: {
        c.node = 1 + static_cast<std::uint32_t>(rng.next_below(k - 1));
        if (!tampered.insert(c.node).second) continue;
        break;
      }
      default: {
        // Pick a random directed edge.
        std::vector<std::pair<NodeId, NodeId>> edges;
        for (NodeId u = 0; u < k; ++u) {
          for (const NodeId v : net.neighbors(u)) edges.push_back({u, v});
        }
        const auto link = edges[rng.next_below(edges.size())];
        c.from = link.first;
        c.to = link.second;
        if (c.kind == FaultComponent::Kind::kOutage) {
          // Half the outages target a leaf's tree link at a protocol-live
          // round: round 0 carries the leaf's only DATA attempt and round
          // 1 its ACK, so a short window there interrogates the
          // retransmit contract head-on (a healthy transport retries
          // through it; a retry-starved one loses or double-counts the
          // value). The other half roam the schedule freely.
          if (rng.next_bernoulli(0.5)) {
            const SpanningTree tree = bfs_spanning_tree(net, 0);
            std::vector<NodeId> leaves;
            std::vector<bool> has_child(k, false);
            for (NodeId v = 1; v < k; ++v) has_child[tree.parent[v]] = true;
            for (NodeId v = 1; v < k; ++v) {
              if (!has_child[v]) leaves.push_back(v);
            }
            const NodeId leaf = leaves[rng.next_below(leaves.size())];
            if (rng.next_bernoulli(0.5)) {  // round-0 DATA attempt
              c.from = leaf;
              c.to = tree.parent[leaf];
              c.lo = 0;
            } else {  // round-1 ACK back down the same tree edge
              c.from = tree.parent[leaf];
              c.to = leaf;
              c.lo = 1;
            }
            c.len = 1 + static_cast<std::uint32_t>(rng.next_below(2));
            if (!has_outage.insert({c.from, c.to}).second) continue;
          } else {
            if (!has_outage.insert(link).second) continue;
            // Bias toward the opening rounds (where convergecast traffic
            // actually flows) and toward windows short enough to stay
            // within the transport's provable tolerance.
            c.lo = static_cast<std::uint32_t>(
                rng.next_bernoulli(0.5) ? rng.next_below(16)
                                        : rng.next_below(kRoundSpan));
            c.len = 1 + static_cast<std::uint32_t>(
                            rng.next_bernoulli(0.5) ? rng.next_below(2)
                                                    : rng.next_below(16));
          }
        } else {
          if (!has_burst.insert(link).second) continue;
          c.lo = static_cast<std::uint32_t>(rng.next_below(kRoundSpan));
          c.len = 1 + static_cast<std::uint32_t>(rng.next_below(64));
          const std::uint32_t pcts[] = {10, 25, 50, 90};
          c.pct = pcts[rng.next_below(4)];
          if (c.kind == FaultComponent::Kind::kDelay) {
            c.extra = 1 + static_cast<std::uint32_t>(rng.next_below(4));
          }
        }
        break;
      }
    }
    spec.components.push_back(c);
  }
  return spec;
}

std::string serialize_token(const ScenarioSpec& spec) {
  std::string out = "chaos1;t=";
  out += to_string(spec.topo);
  out += ";vp=" + std::to_string(spec.vote_pct);
  out += ";vs=" + u64_hex(spec.vote_seed);
  out += ";gs=" + u64_hex(spec.run_seed);
  for (const auto& c : spec.components) {
    out += ";c=";
    out += to_string(c.kind);
    switch (c.kind) {
      case FaultComponent::Kind::kCrash:
        out += ":" + std::to_string(c.node) + ":" + std::to_string(c.lo);
        break;
      case FaultComponent::Kind::kByzantine:
        out += ":" + std::to_string(c.node);
        break;
      case FaultComponent::Kind::kOutage:
        out += ":" + std::to_string(c.from) + ":" + std::to_string(c.to) +
               ":" + std::to_string(c.lo) + ":" + std::to_string(c.len);
        break;
      case FaultComponent::Kind::kDrop:
      case FaultComponent::Kind::kCorrupt:
        out += ":" + std::to_string(c.from) + ":" + std::to_string(c.to) +
               ":" + std::to_string(c.pct) + ":" + std::to_string(c.lo) +
               ":" + std::to_string(c.len);
        break;
      case FaultComponent::Kind::kDelay:
        out += ":" + std::to_string(c.from) + ":" + std::to_string(c.to) +
               ":" + std::to_string(c.pct) + ":" + std::to_string(c.extra) +
               ":" + std::to_string(c.lo) + ":" + std::to_string(c.len);
        break;
    }
  }
  return out;
}

namespace {

[[nodiscard]] std::vector<std::string> split(const std::string& s,
                                             char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(sep, start);
    if (pos == std::string::npos) {
      out.push_back(s.substr(start));
      return out;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

[[nodiscard]] std::uint64_t parse_u64(const std::string& s, int base,
                                      const char* what) {
  require(!s.empty(), std::string("parse_token: empty ") + what);
  std::uint64_t value = 0;
  for (const char ch : s) {
    std::uint64_t digit = 0;
    if (ch >= '0' && ch <= '9') {
      digit = static_cast<std::uint64_t>(ch - '0');
    } else if (base == 16 && ch >= 'a' && ch <= 'f') {
      digit = static_cast<std::uint64_t>(ch - 'a' + 10);
    } else {
      throw InvalidArgument(std::string("parse_token: bad digit in ") +
                            what + ": '" + s + "'");
    }
    require(digit < static_cast<std::uint64_t>(base),
            std::string("parse_token: digit out of base in ") + what);
    value = value * static_cast<std::uint64_t>(base) + digit;
  }
  return value;
}

[[nodiscard]] std::uint32_t parse_u32(const std::string& s,
                                      const char* what) {
  const std::uint64_t v = parse_u64(s, 10, what);
  require(v <= 0xFFFFFFFFULL,
          std::string("parse_token: value too large for ") + what);
  return static_cast<std::uint32_t>(v);
}

}  // namespace

ScenarioSpec parse_token(const std::string& token) {
  const auto fields = split(token, ';');
  require(!fields.empty() && fields[0] == "chaos1",
          "parse_token: token must start with 'chaos1'");
  ScenarioSpec spec;
  bool have_topo = false;
  for (std::size_t i = 1; i < fields.size(); ++i) {
    const auto& field = fields[i];
    const std::size_t eq = field.find('=');
    require(eq != std::string::npos,
            "parse_token: field without '=': '" + field + "'");
    const std::string key = field.substr(0, eq);
    const std::string val = field.substr(eq + 1);
    if (key == "t") {
      have_topo = true;
      if (val == "star") {
        spec.topo = Topology::kStar;
      } else if (val == "path") {
        spec.topo = Topology::kPath;
      } else if (val == "grid") {
        spec.topo = Topology::kGrid;
      } else if (val == "btree") {
        spec.topo = Topology::kBtree;
      } else {
        throw InvalidArgument("parse_token: unknown topology '" + val + "'");
      }
    } else if (key == "vp") {
      spec.vote_pct = parse_u32(val, "vp");
      require(spec.vote_pct <= 100, "parse_token: vp must be <= 100");
    } else if (key == "vs") {
      spec.vote_seed = parse_u64(val, 16, "vs");
    } else if (key == "gs") {
      spec.run_seed = parse_u64(val, 16, "gs");
    } else if (key == "c") {
      const auto parts = split(val, ':');
      require(!parts.empty(), "parse_token: empty component");
      FaultComponent c;
      const std::string& kind = parts[0];
      auto expect_arity = [&](std::size_t n) {
        require(parts.size() == n + 1,
                "parse_token: component '" + kind + "' wants " +
                    std::to_string(n) + " args, got " +
                    std::to_string(parts.size() - 1));
      };
      if (kind == "crash") {
        expect_arity(2);
        c.kind = FaultComponent::Kind::kCrash;
        c.node = parse_u32(parts[1], "crash node");
        c.lo = parse_u32(parts[2], "crash round");
      } else if (kind == "byz") {
        expect_arity(1);
        c.kind = FaultComponent::Kind::kByzantine;
        c.node = parse_u32(parts[1], "byz node");
      } else if (kind == "out") {
        expect_arity(4);
        c.kind = FaultComponent::Kind::kOutage;
        c.from = parse_u32(parts[1], "out from");
        c.to = parse_u32(parts[2], "out to");
        c.lo = parse_u32(parts[3], "out lo");
        c.len = parse_u32(parts[4], "out len");
      } else if (kind == "drop" || kind == "cor") {
        expect_arity(5);
        c.kind = kind == "drop" ? FaultComponent::Kind::kDrop
                                : FaultComponent::Kind::kCorrupt;
        c.from = parse_u32(parts[1], "burst from");
        c.to = parse_u32(parts[2], "burst to");
        c.pct = parse_u32(parts[3], "burst pct");
        c.lo = parse_u32(parts[4], "burst lo");
        c.len = parse_u32(parts[5], "burst len");
      } else if (kind == "del") {
        expect_arity(6);
        c.kind = FaultComponent::Kind::kDelay;
        c.from = parse_u32(parts[1], "del from");
        c.to = parse_u32(parts[2], "del to");
        c.pct = parse_u32(parts[3], "del pct");
        c.extra = parse_u32(parts[4], "del extra");
        c.lo = parse_u32(parts[5], "del lo");
        c.len = parse_u32(parts[6], "del len");
      } else {
        throw InvalidArgument("parse_token: unknown component kind '" +
                              kind + "'");
      }
      spec.components.push_back(c);
    } else {
      throw InvalidArgument("parse_token: unknown key '" + key + "'");
    }
  }
  require(have_topo, "parse_token: missing topology field");
  // Validate against the real network so a hand-edited token cannot build
  // an inconsistent scenario (throws on missing edges / bad nodes).
  Network net = build_network(spec);
  apply_schedule(spec, net);
  return spec;
}

}  // namespace duti::chaos
