#include "util/cli.hpp"

#include <charconv>
#include <sstream>
#include <system_error>

#include "util/error.hpp"

namespace duti {

Cli::Cli(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "-h" || arg == "--help") {
      help_ = true;
      continue;
    }
    require(arg.rfind("--", 0) == 0, "Cli: unexpected argument '" + arg +
                                         "'; flags look like --name=value");
    const std::string body = arg.substr(2);
    require(!body.empty(), "Cli: bare '--' is not a valid flag");
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      flags_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[body] = argv[++i];
    } else {
      flags_[body] = "true";  // bare boolean flag
    }
  }
}

namespace {

// The whole of `text` as a T; nullopt when it is not one or has trailing
// characters (--trials=150x, --eps=0.5.3).
template <typename T>
std::optional<T> parse_whole(const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc{} || stop != end) return std::nullopt;
  return value;
}

}  // namespace

std::optional<std::string> Cli::get(const std::string& name) const {
  read_.insert(name);
  if (auto it = flags_.find(name); it != flags_.end()) return it->second;
  return std::nullopt;
}

void Cli::reject_unread() const {
  std::string unread;
  for (const auto& [name, value] : flags_) {
    if (read_.count(name) != 0) continue;
    unread += (unread.empty() ? "--" : ", --") + name;
  }
  if (!unread.empty()) {
    throw InvalidArgument("Cli: unknown flag(s) " + unread +
                          ": given but never read (misspelt?)");
  }
}

std::string Cli::get_string(const std::string& name,
                            const std::string& fallback) const {
  return get(name).value_or(fallback);
}

std::uint64_t Cli::uint_at_most(const std::string& name,
                                std::uint64_t fallback,
                                std::uint64_t max) const {
  const auto v = get(name);
  if (!v) return fallback;
  // from_chars into an unsigned type takes no sign: "-1" does not parse.
  if (const auto parsed = parse_whole<std::uint64_t>(*v);
      parsed && *parsed <= max) {
    return *parsed;
  }
  throw InvalidArgument("Cli: flag --" + name + " expects an integer in [0, " +
                        std::to_string(max) + "], got '" + *v + "'");
}

double Cli::get_double(const std::string& name, double fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  if (const auto parsed = parse_whole<double>(*v)) return *parsed;
  throw InvalidArgument("Cli: flag --" + name + " expects a number, got '" +
                        *v + "'");
}

bool Cli::get_bool(const std::string& name, bool fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  if (*v == "true" || *v == "1" || *v == "yes" || *v == "on") return true;
  if (*v == "false" || *v == "0" || *v == "no" || *v == "off") return false;
  throw InvalidArgument("Cli: flag --" + name + " expects a boolean, got '" +
                        *v + "'");
}

std::vector<std::uint64_t> Cli::uint_list_at_most(const std::string& name,
                                                   std::uint64_t max) const {
  const std::string v = get(name).value_or("");
  std::vector<std::uint64_t> out;
  std::stringstream ss(v);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    const auto parsed = parse_whole<std::uint64_t>(item);
    if (!parsed || *parsed > max) {
      throw InvalidArgument("Cli: flag --" + name +
                            " expects comma-separated integers in [0, " +
                            std::to_string(max) + "], got '" + v + "'");
    }
    out.push_back(*parsed);
  }
  require(!out.empty(), "Cli: flag --" + name + " list is empty");
  return out;
}

}  // namespace duti
