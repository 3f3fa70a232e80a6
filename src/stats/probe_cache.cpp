#include "stats/probe_cache.hpp"

#include <array>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#include "util/fnv.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define DUTI_HAVE_FLOCK 1
#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>
#endif

namespace duti {

namespace {

/// Advisory exclusive lock on a lockfile, held for the object's lifetime.
/// flock (not O_EXCL sentinel files) on purpose: the kernel releases the
/// lock when the holder dies, so a SIGKILL'd writer cannot wedge every
/// future cache user. On platforms without flock this degrades to
/// lock-free appends (framing still detects any interleaving damage).
class FileLock {
 public:
  explicit FileLock(const std::string& path) {
#ifdef DUTI_HAVE_FLOCK
    fd_ = ::open(path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
    if (fd_ >= 0 && ::flock(fd_, LOCK_EX) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
#else
    (void)path;
    fd_ = 0;  // pretend held; framing is the only protection
#endif
  }
  FileLock(const FileLock&) = delete;
  FileLock& operator=(const FileLock&) = delete;
  ~FileLock() {
#ifdef DUTI_HAVE_FLOCK
    if (fd_ >= 0) ::close(fd_);  // closing releases the flock
#endif
  }
  [[nodiscard]] bool held() const noexcept { return fd_ >= 0; }

 private:
  int fd_ = -1;
};

void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

// Locate `"name":` in `line` and return the index just past the colon, or
// npos. Good enough for records this code itself writes; anything else is
// treated as corrupt and skipped.
std::size_t find_field(const std::string& line, const char* name) {
  const std::string needle = std::string("\"") + name + "\":";
  const std::size_t at = line.find(needle);
  return at == std::string::npos ? std::string::npos : at + needle.size();
}

bool parse_u64_field(const std::string& line, const char* name,
                     std::uint64_t& out) {
  const std::size_t at = find_field(line, name);
  if (at == std::string::npos) return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(line.c_str() + at, &end, 10);
  if (end == line.c_str() + at || errno != 0) return false;
  out = static_cast<std::uint64_t>(v);
  return true;
}

bool parse_string_field(const std::string& line, const char* name,
                        std::string& out) {
  std::size_t at = find_field(line, name);
  if (at == std::string::npos || at >= line.size() || line[at] != '"') {
    return false;
  }
  ++at;
  out.clear();
  while (at < line.size()) {
    const char c = line[at];
    if (c == '"') return true;
    if (c == '\\') {
      if (at + 1 >= line.size()) return false;
      const char esc = line[at + 1];
      if (esc == '"' || esc == '\\') {
        out += esc;
        at += 2;
        continue;
      }
      if (esc == 'u' && at + 5 < line.size()) {
        const std::string hex = line.substr(at + 2, 4);
        char* end = nullptr;
        const unsigned long code = std::strtoul(hex.c_str(), &end, 16);
        if (end != hex.c_str() + 4 || code > 0xFF) return false;
        out += static_cast<char>(code);
        at += 6;
        continue;
      }
      return false;
    }
    out += c;
    ++at;
  }
  return false;  // unterminated string
}

std::string serialize_record(const ProbeKey& key, const ProbeResult& r) {
  std::string out = "{\"workload\":";
  append_json_string(out, key.workload);
  out += ",\"tester\":";
  append_json_string(out, key.tester);
  std::ostringstream rest;
  rest << ",\"param\":" << key.param << ",\"trials\":" << key.trials
       << ",\"seed\":" << key.seed << ",\"flavor\":";
  out += rest.str();
  append_json_string(out, key.flavor);
  std::ostringstream tail;
  tail << ",\"ver\":" << key.engine_version << ",\"us\":"
       << r.uniform_successes << ",\"fs\":" << r.far_successes
       << ",\"t\":" << r.trials << ",\"budget\":" << r.budget
       << ",\"stop\":" << static_cast<unsigned>(r.stop)
       << ",\"uaq\":" << r.uniform_aborts_quorum
       << ",\"faq\":" << r.far_aborts_quorum << "}";
  out += tail.str();
  return out;
}

bool parse_record(const std::string& line, ProbeKey& key, ProbeResult& result) {
  std::uint64_t stop_raw = 0;
  std::uint64_t us = 0;
  std::uint64_t fs = 0;
  std::uint64_t t = 0;
  std::uint64_t budget = 0;
  if (!parse_string_field(line, "workload", key.workload) ||
      !parse_string_field(line, "tester", key.tester) ||
      !parse_string_field(line, "flavor", key.flavor) ||
      !parse_u64_field(line, "param", key.param) ||
      !parse_u64_field(line, "trials", key.trials) ||
      !parse_u64_field(line, "seed", key.seed) ||
      !parse_u64_field(line, "ver", key.engine_version) ||
      !parse_u64_field(line, "us", us) || !parse_u64_field(line, "fs", fs) ||
      !parse_u64_field(line, "t", t) ||
      !parse_u64_field(line, "budget", budget) ||
      !parse_u64_field(line, "stop", stop_raw) || stop_raw > 2) {
    return false;
  }
  result =
      probe_result_from_tallies(us, fs, t, budget,
                                static_cast<ProbeStop>(stop_raw));
  return parse_u64_field(line, "uaq", result.uniform_aborts_quorum) &&
         parse_u64_field(line, "faq", result.far_aborts_quorum);
}

}  // namespace

std::string probe_journal_frame(const std::string& json) {
  char head[40];
  std::snprintf(head, sizeof(head), "J1 %llu %016llx ",
                static_cast<unsigned long long>(json.size()),
                static_cast<unsigned long long>(fnv64(json)));
  return head + json;
}

std::optional<std::string> probe_journal_decode(const std::string& line) {
  // "J1 <decimal len> <16 hex digits> <json payload>"
  if (line.rfind("J1 ", 0) != 0) return std::nullopt;
  std::size_t at = 3;
  std::uint64_t len = 0;
  bool any_digit = false;
  while (at < line.size() && line[at] >= '0' && line[at] <= '9') {
    len = len * 10 + static_cast<std::uint64_t>(line[at] - '0');
    if (len > line.size()) return std::nullopt;  // torn: claims too much
    ++at;
    any_digit = true;
  }
  if (!any_digit || at >= line.size() || line[at] != ' ') return std::nullopt;
  ++at;
  if (at + 16 >= line.size()) return std::nullopt;
  std::uint64_t checksum = 0;
  for (std::size_t i = 0; i < 16; ++i) {
    const char c = line[at + i];
    std::uint64_t digit = 0;
    if (c >= '0' && c <= '9') {
      digit = static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return std::nullopt;
    }
    checksum = (checksum << 4) | digit;
  }
  at += 16;
  if (line[at] != ' ') return std::nullopt;
  ++at;
  const std::string payload = line.substr(at);
  if (payload.size() != len) return std::nullopt;      // torn write
  if (fnv64(payload) != checksum) return std::nullopt;  // bit rot / tear
  return payload;
}

std::uint64_t ProbeKey::fingerprint() const {
  Fnv64 h;
  h.str(workload);
  h.str(tester);
  h.u64(param);
  h.u64(trials);
  h.u64(seed);
  h.str(flavor);
  h.u64(engine_version);
  return h.value();
}

ProbeCache::ProbeCache(std::string dir, CacheMode mode)
    : dir_(std::move(dir)), mode_(mode) {
  if (!enabled()) return;
  path_ = (std::filesystem::path(dir_) / "probes.jsonl").string();
  lock_path_ = (std::filesystem::path(dir_) / "probes.lock").string();
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    const std::lock_guard<std::mutex> lock(mu_);
    degrade("cache dir '" + dir_ + "' unavailable: " + ec.message());
    return;
  }
  load();
}

void ProbeCache::load() {
  std::size_t damaged = 0;
  {
    std::ifstream in(path_);
    if (!in) return;  // no file yet: empty cache
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      Record rec;
      // Only a framed line that verifies and parses whole is a record.
      // Anything else (torn, corrupt, unframed) is skipped now and
      // scrubbed by the compaction below.
      const auto payload = probe_journal_decode(line);
      if (!payload || !parse_record(*payload, rec.key, rec.result)) {
        ++damaged;
        continue;
      }
      index_[rec.key.fingerprint()].push_back(std::move(rec));
    }
  }
  if (damaged > 0) {
    const std::lock_guard<std::mutex> lock(mu_);
    compact_locked();  // scrub the journal while we know it is dirty
  }
}

std::optional<ProbeResult> ProbeCache::lookup(const ProbeKey& key) {
  if (!enabled()) return std::nullopt;
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key.fingerprint());
  if (it != index_.end()) {
    for (const Record& rec : it->second) {
      if (rec.key == key) {
        ++stats_.hits;
        return rec.result;
      }
    }
  }
  ++stats_.misses;
  return std::nullopt;
}

void ProbeCache::insert(const ProbeKey& key, const ProbeResult& result) {
  if (!enabled()) return;
  const std::lock_guard<std::mutex> lock(mu_);
  if (!enabled()) return;  // degraded concurrently
  const FileLock file_lock(lock_path_);
  if (!file_lock.held()) {
    degrade("cannot lock '" + lock_path_ + "' (cache dir gone?)");
    return;
  }
  {
    std::ofstream out(path_, std::ios::app);
    if (out) {
      out << probe_journal_frame(serialize_record(key, result)) << '\n';
      out.flush();
    }
    if (!out) {
      degrade("cannot append to '" + path_ + "'");
      return;
    }
  }
  index_[key.fingerprint()].push_back(Record{key, result});
  ++stats_.inserts;
}

void ProbeCache::compact_locked() {
  const FileLock file_lock(lock_path_);
  if (!file_lock.held()) {
    degrade("cannot lock '" + lock_path_ + "' (cache dir gone?)");
    return;
  }
  // Merge: another process may have appended since our load. Records in
  // the file that we do not hold (by full key) are kept, not clobbered.
  std::map<std::uint64_t, std::vector<Record>> merged = index_;
  {
    std::ifstream in(path_);
    std::string line;
    while (in && std::getline(in, line)) {
      if (line.empty()) continue;
      Record rec;
      const auto payload = probe_journal_decode(line);
      if (!payload || !parse_record(*payload, rec.key, rec.result)) continue;
      auto& bucket = merged[rec.key.fingerprint()];
      bool known = false;
      for (const Record& have : bucket) {
        if (have.key == rec.key) {
          known = true;
          break;
        }
      }
      if (!known) bucket.push_back(std::move(rec));
    }
  }
  // Tmp file + rename: readers and crash victims see either the old
  // journal or the complete new one, never a half-written file.
  const std::string tmp = path_ + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (out) {
      for (const auto& [fp, bucket] : merged) {
        (void)fp;
        for (const Record& rec : bucket) {
          out << probe_journal_frame(serialize_record(rec.key, rec.result))
              << '\n';
        }
      }
      out.flush();
    }
    if (!out) {
      degrade("cannot write '" + tmp + "'");
      return;
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path_, ec);
  if (ec) {
    degrade("cannot rename '" + tmp + "': " + ec.message());
    return;
  }
  index_ = std::move(merged);
}

void ProbeCache::degrade(const std::string& why) {
  mode_.store(CacheMode::kOff, std::memory_order_relaxed);
  if (!warned_) {
    warned_ = true;
    std::fprintf(stderr, "duti: probe cache disabled: %s\n", why.c_str());
  }
}

ProbeResult ProbeCache::get_or_compute(
    const ProbeKey& key, const std::function<ProbeResult()>& compute) {
  if (const std::optional<ProbeResult> hit = lookup(key)) return *hit;
  ProbeResult fresh = compute();
  insert(key, fresh);
  return fresh;
}

CacheStats ProbeCache::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::size_t ProbeCache::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& [fp, recs] : index_) n += recs.size();
  return n;
}

ProbeKey probe_key(const ProbeKey& base, std::uint64_t param,
                   std::uint64_t trials, std::uint64_t seed,
                   ProbeFlavor flavor) {
  ProbeKey key = base;
  key.param = param;
  key.trials = trials;
  key.seed = seed;
  key.flavor = "full";
  if (flavor == ProbeFlavor::kAdaptive) {
    // The schedule in shortest round-trip form. "min=0" records that the
    // first confidence check is derived from the bar and delta, as it was
    // when the schedule was configurable, so older journals keep hitting.
    const auto exact = [](double v) {
      std::array<char, 32> buf{};
      const auto end = std::to_chars(buf.data(), buf.data() + buf.size(), v);
      return std::string(buf.data(), end.ptr);
    };
    key.flavor = "adaptive:b=" + std::to_string(kAdaptiveBatch) +
                 ":target=" + exact(kSuccessBar) +
                 ":delta=" + exact(kAdaptiveDelta) + ":min=0";
  }
  key.engine_version = kProbeEngineVersion;
  return key;
}

}  // namespace duti
