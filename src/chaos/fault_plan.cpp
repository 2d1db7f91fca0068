#include "chaos/fault_plan.h"

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "trace/log_reader.h"
#include "trace/record_codec.h"
#include "trace/sanitize.h"
#include "util/byte_codec.h"
#include "util/error.h"

namespace wearscope::chaos {

namespace {

// Substream keys so each injector draws from an independent RNG stream:
// changing the duplicate count never perturbs which records get swapped.
constexpr std::uint64_t kStreamRecords = 0xC0FFEE01;
constexpr std::uint64_t kStreamRuntime = 0xC0FFEE02;
constexpr std::uint64_t kStreamBytes = 0xC0FFEE03;
constexpr std::uint64_t kStreamStalls = 0xC0FFEE04;

// Injected unknown TACs start far above anything a DeviceDB allocates.
constexpr std::uint32_t kUnknownTacBase = 0xDEAD0000;
// Regressed timestamps land this far before the capture start (plus a
// per-record offset so no two injected regressions are equal records).
constexpr std::int64_t kRegressionOffset = 10'000;

std::size_t draw_index(util::Pcg32& rng, std::size_t n) {
  return static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

/// Tracks which clean-log indices are already claimed by an injector.
/// Claims include both neighbours, which keeps victim sets not just
/// disjoint but non-adjacent — the property that makes each fault show up
/// as exactly one quarantine count (no swap can touch a duplicate victim,
/// no two insertions share an anchor).
class Reservation {
 public:
  bool take(std::size_t i, std::size_t span) {
    const std::size_t lo = i == 0 ? 0 : i - 1;
    for (std::size_t j = lo; j <= i + span; ++j) {
      if (used_.contains(j)) return false;
    }
    for (std::size_t j = lo; j <= i + span; ++j) used_.insert(j);
    return true;
  }

 private:
  std::unordered_set<std::size_t> used_;
};

template <typename Record>
struct Insertion {
  std::size_t anchor;  ///< Emitted right after clean index `anchor`.
  Record rec;
};

/// Corrupts one event log in place: applies `swaps` adjacent swaps and
/// splices in `dups` duplicates, `regressions` wildly-late records and the
/// pre-built `invalid` records (each of which the sanitizer must drop at
/// validation).  Returns via `expected` exactly what the sanitizer will
/// count.  `invalid` entries are anchored anywhere — they are quarantined
/// before they can influence dedup or reorder bookkeeping.
template <typename Record>
void corrupt_log(trace::Rows<Record>& log, util::Pcg32& rng,
                 std::uint32_t swaps, std::uint32_t dups,
                 std::uint32_t regressions, std::vector<Record> invalid,
                 std::size_t reorder_window, std::uint64_t& regression_salt,
                 trace::QuarantineStats& expected) {
  const std::size_t n = log.size();
  Reservation reserved;
  std::vector<std::size_t> swap_at;
  std::vector<Insertion<Record>> insertions;

  // Adjacent swaps of strictly-increasing pairs: one repairable late
  // arrival each (displacement 1 << reorder_window), zero drops.
  std::uint32_t done = 0;
  for (std::uint32_t attempt = 0; n >= 2 && done < swaps &&
                                  attempt < swaps * 64 + 256;
       ++attempt) {
    const std::size_t i = draw_index(rng, n - 1);
    if (!(log[i].timestamp < log[i + 1].timestamp)) continue;
    if (!reserved.take(i, 2)) continue;
    swap_at.push_back(i);
    ++done;
  }
  expected.reordered += done;

  // Duplicates: an exact copy emitted right after its original.
  done = 0;
  for (std::uint32_t attempt = 0; n >= 1 && done < dups &&
                                  attempt < dups * 64 + 256;
       ++attempt) {
    const std::size_t v = draw_index(rng, n);
    if (!reserved.take(v, 1)) continue;
    insertions.push_back({v, log[v]});
    ++done;
  }
  expected.duplicates += done;

  // Regressions: clones stamped far before the capture start, anchored
  // deep enough that the reorder window has already released records —
  // only then is "too late to repair" guaranteed rather than likely.
  done = 0;
  const std::size_t first_anchor = reorder_window + 1;
  for (std::uint32_t attempt = 0; n > first_anchor + 1 &&
                                  done < regressions &&
                                  attempt < regressions * 64 + 256;
       ++attempt) {
    const std::size_t a =
        first_anchor + draw_index(rng, n - first_anchor - 1);
    if (!reserved.take(a, 1)) continue;
    Record rec = log[a];
    rec.timestamp = log.front().timestamp - kRegressionOffset -
                    static_cast<std::int64_t>(regression_salt++);
    insertions.push_back({a, std::move(rec)});
    ++done;
  }
  expected.regressions += done;

  for (Record& rec : invalid) {
    insertions.push_back({n == 0 ? 0 : draw_index(rng, n), std::move(rec)});
  }

  for (const std::size_t i : swap_at) std::swap(log[i], log[i + 1]);

  std::stable_sort(insertions.begin(), insertions.end(),
                   [](const Insertion<Record>& a, const Insertion<Record>& b) {
                     return a.anchor < b.anchor;
                   });
  trace::Rows<Record> out;
  out.reserve(n + insertions.size());
  std::size_t next = 0;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(std::move(log[i]));
    while (next < insertions.size() && insertions[next].anchor == i) {
      out.push_back(std::move(insertions[next].rec));
      ++next;
    }
  }
  while (next < insertions.size()) {
    out.push_back(std::move(insertions[next].rec));
    ++next;
  }
  log = std::move(out);
}

}  // namespace

FaultProfile FaultProfile::named(const std::string& name) {
  FaultProfile p;
  p.name = name;
  if (name == "records") {
    p.duplicates = 7;
    p.regressions = 5;
    p.unknown_tacs = 6;
    p.bad_hosts = 4;
    p.reorder_swaps = 9;
    return p;
  }
  if (name == "records-heavy") {
    p.duplicates = 40;
    p.regressions = 25;
    p.unknown_tacs = 30;
    p.bad_hosts = 20;
    p.reorder_swaps = 60;
    return p;
  }
  if (name == "io") {
    p.truncations = 6;
    p.length_bombs = 4;
    p.bad_magics = 2;
    p.bit_flips = 12;
    return p;
  }
  if (name == "transient") {
    p.transient_reads = 12;
    return p;
  }
  if (name == "runtime") {
    p.transient_reads = 12;
    p.permanent_reads = 5;
    return p;
  }
  if (name == "all") {
    p.duplicates = 7;
    p.regressions = 5;
    p.unknown_tacs = 6;
    p.bad_hosts = 4;
    p.reorder_swaps = 9;
    p.transient_reads = 12;
    p.permanent_reads = 5;
    p.truncations = 6;
    p.length_bombs = 4;
    p.bad_magics = 2;
    p.bit_flips = 12;
    return p;
  }
  std::string known;
  for (const std::string& k : names()) {
    if (!known.empty()) known += ", ";
    known += k;
  }
  throw util::ConfigError("unknown chaos profile '" + name + "' (known: " +
                          known + ")");
}

std::vector<std::string> FaultProfile::names() {
  return {"records", "records-heavy", "io", "transient", "runtime", "all"};
}

template <typename Record>
BinaryImage image_of(std::string v1_log) {
  const std::span<const std::byte> bytes =
      std::as_bytes(std::span<const char>(v1_log.data(), v1_log.size()));
  if (trace::read_log_header<Record>(bytes) != trace::kBinaryFormatV1)
    throw util::ParseError("image_of: not a v1 log");
  BinaryImage image;
  util::MemorySpanDecoder dec(bytes.subspan(8));
  trace::ProxyPools scratch;
  Record r;
  while (!dec.at_eof()) {
    image.record_offsets.push_back(8 + static_cast<std::size_t>(dec.offset()));
    trace::decode_record(dec, r, scratch);
  }
  image.bytes = std::move(v1_log);
  return image;
}

template BinaryImage image_of<trace::ProxyRecord>(std::string);
template BinaryImage image_of<trace::MmeRecord>(std::string);

ByteFault inject_bytes(const BinaryImage& image, ByteFaultKind kind,
                       util::Pcg32& rng, bool proxy_layout) {
  const std::size_t n = image.record_offsets.size();
  ByteFault fault;
  fault.kind = kind;
  fault.bytes = image.bytes;
  switch (kind) {
    case ByteFaultKind::kTruncate: {
      util::require(n > 0, "inject_bytes: empty image cannot be truncated");
      const std::size_t k = draw_index(rng, n);
      const std::size_t begin = image.record_offsets[k];
      const std::size_t end =
          k + 1 < n ? image.record_offsets[k + 1] : image.bytes.size();
      // Cut strictly inside record k: everything before parses, record k
      // hits EOF mid-field, the tail is abandoned.
      const std::size_t cut = begin + 1 + draw_index(rng, end - begin - 1);
      fault.bytes.resize(cut);
      fault.expected_survivors = k;
      fault.expected.corrupt_tails = 1;
      break;
    }
    case ByteFaultKind::kLengthBomb: {
      util::require(proxy_layout && n > 0,
                    "inject_bytes: length bombs need a proxy image");
      // The host length prefix sits at a fixed offset inside a ProxyRecord:
      // i64 ts + u64 user + u32 tac + u8 protocol = 21 bytes.
      constexpr std::size_t kHostPrefix = 21;
      // 0xFFFF only guarantees a ParseError when the stream cannot deliver
      // 65535 more bytes; restrict victims to records close enough to EOF.
      std::vector<std::size_t> victims;
      for (std::size_t k = 0; k < n; ++k) {
        const std::size_t after = image.record_offsets[k] + kHostPrefix + 2;
        if (after <= image.bytes.size() &&
            image.bytes.size() - after < 0xFFFF) {
          victims.push_back(k);
        }
      }
      util::require(!victims.empty(),
                    "inject_bytes: no length-bomb victim close enough to EOF");
      const std::size_t k = victims[draw_index(rng, victims.size())];
      const std::size_t at = image.record_offsets[k] + kHostPrefix;
      fault.bytes[at] = static_cast<char>(0xFF);
      fault.bytes[at + 1] = static_cast<char>(0xFF);
      fault.expected_survivors = k;
      fault.expected.corrupt_tails = 1;
      break;
    }
    case ByteFaultKind::kBadMagic: {
      util::require(image.bytes.size() >= 4,
                    "inject_bytes: image too small for a header");
      const std::size_t at = draw_index(rng, 4);
      fault.bytes[at] = static_cast<char>(
          static_cast<unsigned char>(fault.bytes[at]) ^ 0xFFu);
      fault.expected_survivors = 0;
      fault.expected.corrupt_files = 1;
      break;
    }
    case ByteFaultKind::kBitFlip: {
      util::require(!image.bytes.empty(), "inject_bytes: empty image");
      const std::size_t flips = 1 + draw_index(rng, 8);
      for (std::size_t f = 0; f < flips; ++f) {
        const std::size_t at = draw_index(rng, fault.bytes.size());
        const auto bit =
            static_cast<unsigned char>(1u << draw_index(rng, 8));
        fault.bytes[at] = static_cast<char>(
            static_cast<unsigned char>(fault.bytes[at]) ^ bit);
      }
      fault.exact = false;
      break;
    }
  }
  return fault;
}

std::uint32_t StallSchedule::stall_us(std::uint64_t i) const noexcept {
  const std::uint64_t h =
      util::splitmix64(seed ^ 0x5354414C4Cull ^ util::splitmix64(i));
  if (h % 1000 >= stall_permille || max_stall_us == 0) return 0;
  return 1 + static_cast<std::uint32_t>((h >> 32) % max_stall_us);
}

std::uint32_t StallSchedule::burst_len(std::uint64_t i) const noexcept {
  const std::uint64_t h =
      util::splitmix64(seed ^ 0x4255525354ull ^ util::splitmix64(i));
  if (h % 1000 >= burst_permille || max_burst == 0) return 0;
  return 1 + static_cast<std::uint32_t>((h >> 32) % max_burst);
}

FaultPlan::FaultPlan(std::uint64_t seed, FaultProfile profile)
    : seed_(seed), profile_(std::move(profile)) {}

FaultManifest FaultPlan::inject_records(trace::TraceStore& store) const {
  util::Pcg32 rng = util::Pcg32(seed_).fork(kStreamRecords);
  FaultManifest manifest;
  const std::size_t window = trace::SanitizeOptions{}.reorder_window;
  std::uint64_t regression_salt = 0;
  std::uint64_t invalid_salt = 0;

  // Split requested counts across the two event logs; proxy takes the
  // remainder (it is the larger log in every realistic capture).
  const auto split_hi = [](std::uint32_t c) { return c - c / 2; };
  const auto split_lo = [](std::uint32_t c) { return c / 2; };

  // Invalid proxy records: hostile SNIs keep their (known) TAC so they hit
  // the bad-host counter; unknown-TAC clones keep a valid host.  Distinct
  // salts make every injected record unique.
  std::vector<trace::ProxyRecord> bad_proxy;
  if (!store.proxy.empty()) {
    for (std::uint32_t j = 0; j < profile_.bad_hosts; ++j) {
      trace::ProxyRecord r = store.proxy[draw_index(rng, store.proxy.size())];
      r.host_id = store.hosts.intern(std::string("\x01") + "chaos-bad-sni-" +
                                     std::to_string(invalid_salt++));
      bad_proxy.push_back(std::move(r));
      ++manifest.expected.bad_host;
    }
    for (std::uint32_t j = 0; j < split_hi(profile_.unknown_tacs); ++j) {
      trace::ProxyRecord r = store.proxy[draw_index(rng, store.proxy.size())];
      r.tac = kUnknownTacBase + static_cast<std::uint32_t>(invalid_salt++);
      bad_proxy.push_back(std::move(r));
      ++manifest.expected.unknown_tac;
    }
  }
  std::vector<trace::MmeRecord> bad_mme;
  if (!store.mme.empty()) {
    for (std::uint32_t j = 0; j < split_lo(profile_.unknown_tacs); ++j) {
      trace::MmeRecord r = store.mme[draw_index(rng, store.mme.size())];
      r.tac = kUnknownTacBase + static_cast<std::uint32_t>(invalid_salt++);
      bad_mme.push_back(std::move(r));
      ++manifest.expected.unknown_tac;
    }
  }

  corrupt_log<trace::ProxyRecord>(
      store.proxy, rng, split_hi(profile_.reorder_swaps),
      split_hi(profile_.duplicates), split_hi(profile_.regressions),
      std::move(bad_proxy), window, regression_salt, manifest.expected);
  corrupt_log<trace::MmeRecord>(
      store.mme, rng, split_lo(profile_.reorder_swaps),
      split_lo(profile_.duplicates), split_lo(profile_.regressions),
      std::move(bad_mme), window, regression_salt, manifest.expected);
  return manifest;
}

RuntimeFaults FaultPlan::runtime_faults(std::uint64_t feed_records,
                                        const live::RetryPolicy& retry) const {
  util::Pcg32 rng = util::Pcg32(seed_).fork(kStreamRuntime);
  RuntimeFaults rf;
  util::require(retry.max_attempts >= 2,
                "runtime_faults: retry budget must allow at least one retry");

  auto faults = std::make_shared<std::unordered_map<std::uint64_t,
                                                    std::uint32_t>>();
  const auto pick_seqs = [&](std::uint32_t want) {
    std::vector<std::uint64_t> seqs;
    for (std::uint32_t attempt = 0;
         feed_records > 0 && seqs.size() < want &&
         attempt < want * 64 + 256;
         ++attempt) {
      const auto s = static_cast<std::uint64_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(feed_records) - 1));
      if (faults->contains(s)) continue;
      (*faults)[s] = 0;  // reserve; count assigned by the caller
      seqs.push_back(s);
    }
    return seqs;
  };

  for (const std::uint64_t s : pick_seqs(profile_.transient_reads)) {
    const auto fails = static_cast<std::uint32_t>(rng.uniform_int(
        1, static_cast<std::int64_t>(retry.max_attempts) - 1));
    (*faults)[s] = fails;
    rf.expected.transient_retries += fails;
  }
  rf.permanent_seqs = pick_seqs(profile_.permanent_reads);
  for (const std::uint64_t s : rf.permanent_seqs) {
    (*faults)[s] = retry.max_attempts;
    ++rf.expected.dropped_after_retry;
  }
  std::sort(rf.permanent_seqs.begin(), rf.permanent_seqs.end());

  rf.schedule = [faults](std::uint64_t seq) -> std::uint32_t {
    const auto it = faults->find(seq);
    return it == faults->end() ? 0 : it->second;
  };
  return rf;
}

std::vector<ByteFault> FaultPlan::byte_corpus(const BinaryImage& image,
                                              bool proxy_layout) const {
  util::Pcg32 rng = util::Pcg32(seed_).fork(kStreamBytes);
  std::vector<ByteFault> corpus;
  const auto add = [&](ByteFaultKind kind, std::uint32_t count) {
    for (std::uint32_t j = 0; j < count; ++j) {
      corpus.push_back(inject_bytes(image, kind, rng, proxy_layout));
    }
  };
  add(ByteFaultKind::kTruncate, profile_.truncations);
  if (proxy_layout) add(ByteFaultKind::kLengthBomb, profile_.length_bombs);
  add(ByteFaultKind::kBadMagic, profile_.bad_magics);
  add(ByteFaultKind::kBitFlip, profile_.bit_flips);
  return corpus;
}

StallSchedule FaultPlan::stall_schedule() const {
  StallSchedule s;
  s.seed = util::splitmix64(seed_ ^ kStreamStalls);
  return s;
}

}  // namespace wearscope::chaos
