#include "stats/calibration_persist.hpp"

#include <array>
#include <cstddef>

#include "testers/calibration.hpp"

namespace duti {

namespace {

// Payload words per journal record: trials, budget, and the four abort
// tallies. The success slots stay 0 — a ProbeResult is rebuilt through
// probe_result_from_tallies on every journal load, and a success word above
// `trials` would fail its Wilson check — so every slot used here round-trips
// verbatim whatever its value.
constexpr std::size_t kSlotsPerRecord = 6;

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

ProbeKey chunk_key(const std::string& id, std::uint64_t chunk) {
  ProbeKey key;
  key.workload = "calib:" + id;
  key.tester = "calib";
  // "calib2": the six-slot layout. Records of the older eight-slot layout
  // ("calib") miss instead of decoding wrongly.
  key.flavor = "calib2";
  key.param = chunk;
  // The journal's framing has no payload-length field and key.trials must
  // stay constant across chunks (the total is unknown when chunk 0 is
  // fetched), so the length travels as the first WORD of the stored
  // stream instead.
  key.trials = 0;
  key.seed = fnv1a(id);
  return key;
}

std::array<std::uint64_t, kSlotsPerRecord> record_slots(
    const ProbeResult& r) {
  return {r.trials,                r.budget,
          r.uniform_aborts_quorum, r.uniform_aborts_timeout,
          r.far_aborts_quorum,     r.far_aborts_timeout};
}

ProbeResult slots_record(const std::array<std::uint64_t, kSlotsPerRecord>& s) {
  ProbeResult r = probe_result_from_tallies(0, 0, s[0], s[1],
                                            ProbeStop::kExhausted);
  r.uniform_aborts_quorum = s[2];
  r.uniform_aborts_timeout = s[3];
  r.far_aborts_quorum = s[4];
  r.far_aborts_timeout = s[5];
  return r;
}

std::optional<std::vector<std::uint64_t>> load_payload(
    ProbeCache& cache, const std::string& id) {
  const auto first = cache.lookup(chunk_key(id, 0));
  if (!first) return std::nullopt;
  const auto head = record_slots(*first);
  const std::uint64_t len = head[0];  // logical payload length in words
  std::vector<std::uint64_t> payload;
  payload.reserve(len);
  for (std::size_t i = 1; i < kSlotsPerRecord && payload.size() < len; ++i) {
    payload.push_back(head[i]);
  }
  const std::uint64_t total_words = len + 1;  // + the length prefix
  const std::uint64_t chunks =
      (total_words + kSlotsPerRecord - 1) / kSlotsPerRecord;
  for (std::uint64_t c = 1; c < chunks; ++c) {
    const auto rec = cache.lookup(chunk_key(id, c));
    if (!rec) return std::nullopt;  // torn journal: treat as a plain miss
    const auto slots = record_slots(*rec);
    for (std::size_t i = 0; i < kSlotsPerRecord && payload.size() < len; ++i) {
      payload.push_back(slots[i]);
    }
  }
  return payload;
}

void store_payload(ProbeCache& cache, const std::string& id,
                   const std::vector<std::uint64_t>& payload) {
  std::vector<std::uint64_t> stream;
  stream.reserve(payload.size() + 1);
  stream.push_back(payload.size());
  stream.insert(stream.end(), payload.begin(), payload.end());
  const std::uint64_t chunks =
      (stream.size() + kSlotsPerRecord - 1) / kSlotsPerRecord;
  for (std::uint64_t c = 0; c < chunks; ++c) {
    std::array<std::uint64_t, kSlotsPerRecord> slots{};
    for (std::size_t i = 0; i < kSlotsPerRecord; ++i) {
      const std::size_t w = c * kSlotsPerRecord + i;
      if (w < stream.size()) slots[i] = stream[w];
    }
    cache.insert(chunk_key(id, c), slots_record(slots));
  }
}

}  // namespace

void install_calibration_persistence(ProbeCache& cache) {
  CalibMemo::Hooks hooks;
  hooks.load = [&cache](const std::string& id) {
    return load_payload(cache, id);
  };
  hooks.store = [&cache](const std::string& id,
                         const std::vector<std::uint64_t>& payload) {
    store_payload(cache, id, payload);
  };
  CalibMemo::global().install_hooks(std::move(hooks));
}

void uninstall_calibration_persistence() {
  CalibMemo::global().install_hooks(CalibMemo::Hooks{});
}

}  // namespace duti
