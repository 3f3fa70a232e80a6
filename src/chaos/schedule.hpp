// Chaos schedules: seeded random fault scenarios over the sim stack.
//
// A ScenarioSpec is a complete, self-describing chaos experiment: a
// topology, a deterministic vote assignment, a run seed, and a list of
// fault components (crash-stop sets, link-outage windows, probabilistic
// drop/corrupt/delay bursts, Byzantine vote tampering). Everything is
// integer-valued so a spec round-trips losslessly through its one-line
// replay token (`serialize_token` / `parse_token`) — the token printed in
// every violation report is sufficient to reproduce the failing run
// bit-for-bit on any machine.
//
// The generator (`generate_scenario`) derives the whole spec from a single
// seed via dedicated RNG streams, so campaign seed N means the same
// schedule everywhere, forever. See DESIGN.md section 10.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/convergecast.hpp"
#include "sim/network.hpp"

namespace duti::chaos {

/// Topologies a scenario can run on (root/referee is always node 0).
enum class Topology : std::uint8_t {
  kStar,   // the paper's one-round star, k = 9
  kPath,   // worst-case diameter, k = 8
  kGrid,   // 3x4 grid: alternative routes for self-healing, k = 12
  kBtree,  // complete binary tree, k = 15
};

[[nodiscard]] const char* to_string(Topology t) noexcept;
[[nodiscard]] std::uint32_t num_nodes(Topology t) noexcept;

/// One injectable fault. Fields are interpreted per kind; unused fields
/// stay zero so component equality and hashing are well-defined.
struct FaultComponent {
  enum class Kind : std::uint8_t {
    kCrash,      // node crash-stops at round `lo`
    kOutage,     // link from->to dead for rounds [lo, lo+len)
    kDrop,       // link from->to drops with pct% during [lo, lo+len)
    kCorrupt,    // link from->to flips a bit with pct% during [lo, lo+len)
    kDelay,      // link from->to delays by `extra` with pct% in [lo, lo+len)
    kByzantine,  // node's vote is adversarially stuck at 1 (alarm flood)
  };

  Kind kind = Kind::kCrash;
  std::uint32_t node = 0;   // kCrash / kByzantine
  std::uint32_t from = 0;   // link kinds
  std::uint32_t to = 0;     // link kinds
  std::uint32_t pct = 0;    // probability in percent (integer: token-exact)
  std::uint32_t lo = 0;     // start round (crash round for kCrash)
  std::uint32_t len = 0;    // window length in rounds (link kinds)
  std::uint32_t extra = 0;  // delay_rounds for kDelay

  [[nodiscard]] bool operator==(const FaultComponent& o) const noexcept {
    return kind == o.kind && node == o.node && from == o.from && to == o.to &&
           pct == o.pct && lo == o.lo && len == o.len && extra == o.extra;
  }
};

[[nodiscard]] const char* to_string(FaultComponent::Kind k) noexcept;

/// A complete chaos experiment. `vote_pct` is each node's independent
/// probability (in percent) of voting reject; votes are derived from
/// `vote_seed` alone, and all run randomness from `run_seed` alone, so
/// faults can be edited (shrunk) without perturbing anything else.
struct ScenarioSpec {
  Topology topo = Topology::kStar;
  std::uint32_t vote_pct = 10;
  std::uint64_t vote_seed = 1;
  std::uint64_t run_seed = 1;
  std::vector<FaultComponent> components;

  [[nodiscard]] std::uint32_t k() const noexcept { return num_nodes(topo); }
};

/// Build the scenario's network (edges only, no faults, no behaviors).
[[nodiscard]] Network build_network(const ScenarioSpec& spec);

/// The scenario's deterministic vote vector (before Byzantine tampering):
/// vote_of(spec)[v] is 1 iff node v locally rejects.
[[nodiscard]] std::vector<std::uint64_t> votes_of(const ScenarioSpec& spec);

/// Votes after applying the spec's kByzantine components (stuck-at-1).
[[nodiscard]] std::vector<std::uint64_t> tampered_votes_of(
    const ScenarioSpec& spec);

/// Install the spec's crash and link-fault components into `net`.
/// Throws InvalidArgument if a component references a missing edge or an
/// out-of-range node — a malformed token fails loudly, not silently.
void apply_schedule(const ScenarioSpec& spec, Network& net);

/// Generate the scenario for campaign seed `seed`: topology, votes, and
/// 1..5 fault components drawn from dedicated streams. Per directed link
/// the generator emits at most one outage and at most one probabilistic
/// burst (the LinkFault slot structure), never crashes or tampers the
/// referee (node 0), and never crashes a node twice.
[[nodiscard]] ScenarioSpec generate_scenario(std::uint64_t seed);

/// One-line ASCII replay token, e.g.
///   chaos1;t=grid;vp=10;vs=1a2b;gs=77;c=crash:3:0;c=out:1:2:4:2
/// Integers only (seeds in hex), so serialize/parse is an exact bijection.
[[nodiscard]] std::string serialize_token(const ScenarioSpec& spec);

/// Parse a replay token; throws InvalidArgument with a pointed message on
/// any syntax or range error.
[[nodiscard]] ScenarioSpec parse_token(const std::string& token);

}  // namespace duti::chaos
