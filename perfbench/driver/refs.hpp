// Reference outputs every benchmark operation is checked against, recorded
// once with `perfbench --record <path>` and committed beside the benchmark.
//
// The file is line-oriented text, one record per line; doubles are written
// as hex floats so a check is bit-exact:
//   qsearch <search-seed> <found> <minimum>
//   sweep_point <family> <label> <found> <minimum> <verdict>
//   sweep_family <family> <fingerprint-hex> <trials-consulted>
//   e7a <ell> <q> <|S|> <exact> <bound> <holds>
//   e7b <ell> <q> <r> <m> <method> <value> <holds>
//   replay_known_failure <family>
// Lines starting with '#' are comments.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>

namespace perfbench {

struct SearchRef {
  bool found = false;
  std::uint64_t minimum = 0;
};

struct PointRef {
  bool found = false;
  std::uint64_t minimum = 0;
  bool verdict = false;
};

struct FamilyRef {
  std::uint64_t fingerprint = 0;
  std::uint64_t trials_consulted = 0;
};

struct RowRef {
  std::string method;  // "exact" / "monte-carlo" (E7b), "dp" (E7a)
  double value = 0.0;
  double bound = 0.0;  // E7a only
  bool holds = false;
};

struct References {
  std::map<std::uint64_t, SearchRef> searches;  // by search seed
  std::map<std::string, PointRef> points;       // by "<family>/<label>"
  std::map<std::string, FamilyRef> families;
  std::map<std::string, RowRef> rows;  // by row key, see row_key()
  // Families whose rw-cache replay throws at the recorded commit.
  std::set<std::string> replay_known_failures;
};

/// Parse a references file; throws std::runtime_error naming the bad line.
[[nodiscard]] References load_references(const std::string& path);

/// Write `refs` to `path` under a comment header; throws on I/O failure.
void save_references(const References& refs, const std::string& path,
                     const std::string& header);

}  // namespace perfbench
