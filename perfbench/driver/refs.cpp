#include "refs.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace perfbench {

namespace {

std::string hex_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

double parse_double(const std::string& s) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0') {
    throw std::invalid_argument("not a number: " + s);
  }
  return v;
}

std::uint64_t parse_u64(const std::string& s, int base = 10) {
  std::size_t used = 0;
  const unsigned long long v = std::stoull(s, &used, base);
  if (used != s.size()) throw std::invalid_argument("not an integer: " + s);
  return v;
}

bool parse_bool(const std::string& s) {
  if (s == "1") return true;
  if (s == "0") return false;
  throw std::invalid_argument("not 0/1: " + s);
}

}  // namespace

References load_references(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read references " + path);
  References refs;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::vector<std::string> f;
    for (std::string tok; fields >> tok;) f.push_back(tok);
    try {
      const std::string& kind = f.at(0);
      if (kind == "qsearch" && f.size() == 4) {
        refs.searches[parse_u64(f[1])] = {parse_bool(f[2]), parse_u64(f[3])};
      } else if (kind == "sweep_point" && f.size() == 6) {
        refs.points[f[1] + "/" + f[2]] = {parse_bool(f[3]), parse_u64(f[4]),
                                          parse_bool(f[5])};
      } else if (kind == "sweep_family" && f.size() == 4) {
        refs.families[f[1]] = {parse_u64(f[2], 16), parse_u64(f[3])};
      } else if (kind == "e7a" && f.size() == 7) {
        refs.rows["e7a:" + f[1] + ":" + f[2] + ":" + f[3]] = {
            "dp", parse_double(f[4]), parse_double(f[5]), parse_bool(f[6])};
      } else if (kind == "e7b" && f.size() == 8) {
        refs.rows["e7b:" + f[1] + ":" + f[2] + ":" + f[3] + ":" + f[4]] = {
            f[5], parse_double(f[6]), 0.0, parse_bool(f[7])};
      } else if (kind == "replay_known_failure" && f.size() == 2) {
        refs.replay_known_failures.insert(f[1]);
      } else {
        throw std::invalid_argument("unknown record");
      }
    } catch (const std::exception& e) {
      throw std::runtime_error(path + ":" + std::to_string(lineno) + ": " +
                               e.what());
    }
  }
  return refs;
}

void save_references(const References& refs, const std::string& path,
                     const std::string& header) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write references " + path);
  out << header;
  for (const auto& [seed, r] : refs.searches) {
    out << "qsearch " << seed << ' ' << r.found << ' ' << r.minimum << '\n';
  }
  for (const auto& [key, r] : refs.points) {
    const std::size_t slash = key.find('/');
    out << "sweep_point " << key.substr(0, slash) << ' '
        << key.substr(slash + 1) << ' ' << r.found << ' ' << r.minimum << ' '
        << r.verdict << '\n';
  }
  for (const auto& [family, r] : refs.families) {
    char fp[32];
    std::snprintf(fp, sizeof fp, "%016" PRIx64, r.fingerprint);
    out << "sweep_family " << family << ' ' << fp << ' ' << r.trials_consulted
        << '\n';
  }
  for (const auto& [key, r] : refs.rows) {
    std::string fields = key;
    for (char& c : fields) {
      if (c == ':') c = ' ';
    }
    if (key.rfind("e7a:", 0) == 0) {
      out << fields << ' ' << hex_double(r.value) << ' ' << hex_double(r.bound)
          << ' ' << r.holds << '\n';
    } else {
      out << fields << ' ' << r.method << ' ' << hex_double(r.value) << ' '
          << r.holds << '\n';
    }
  }
  for (const std::string& family : refs.replay_known_failures) {
    out << "replay_known_failure " << family << '\n';
  }
  if (!out) throw std::runtime_error("failed writing references " + path);
}

}  // namespace perfbench
