#include "serve/query.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <vector>

#include "util/error.h"
#include "util/strings.h"

namespace wearscope::serve {

namespace {

/// "%.17g" round-trips every finite double bit-exactly, which is what
/// makes serve responses byte-comparable against the batch pipeline.
void append_double(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
  out += buf;
}

void append_field_u64(std::string& out, std::string_view key,
                      std::uint64_t v) {
  out += ' ';
  out += key;
  out += '=';
  append_u64(out, v);
}

void append_field_double(std::string& out, std::string_view key, double v) {
  out += ' ';
  out += key;
  out += '=';
  append_double(out, v);
}

[[nodiscard]] std::vector<std::string_view> tokenize(std::string_view line) {
  std::vector<std::string_view> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    std::size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
    if (i > start) tokens.push_back(line.substr(start, i - start));
  }
  return tokens;
}

/// Decimal digits only (no sign, no spaces); a value above UINT64_MAX is
/// refused, never wrapped.
[[nodiscard]] bool parse_u64(std::string_view text, std::uint64_t& out) {
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end;
}

[[nodiscard]] ParsedQuery fail(std::string message) {
  return ParsedQuery{std::nullopt, std::move(message)};
}

}  // namespace

ParsedQuery parse_query(std::string_view line) {
  const std::string_view trimmed = util::trim(line);
  if (trimmed.empty() || trimmed.front() == '#') return ParsedQuery{};

  const std::vector<std::string_view> tokens = tokenize(trimmed);
  Query query;
  const std::string_view verb = tokens.front();
  bool takes_k = false;
  if (verb == "adoption") {
    query.kind = QueryKind::kAdoption;
  } else if (verb == "activity") {
    query.kind = QueryKind::kActivity;
  } else if (verb == "top-apps") {
    query.kind = QueryKind::kTopApps;
    takes_k = true;
  } else if (verb == "sectors") {
    query.kind = QueryKind::kSectors;
    takes_k = true;
  } else if (verb == "quarantine") {
    query.kind = QueryKind::kQuarantine;
  } else if (verb == "epochs") {
    query.kind = QueryKind::kEpochs;
  } else if (verb == "stats") {
    query.kind = QueryKind::kStats;
  } else if (verb == "help") {
    query.kind = QueryKind::kHelp;
  } else {
    return fail("unknown query '" + std::string(verb) +
                "' (try 'help' for the grammar)");
  }

  bool have_k = false;
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    const std::string_view token = tokens[i];
    if (token.front() == '@') {
      if (query.epoch.has_value()) return fail("duplicate @epoch selector");
      std::uint64_t epoch = 0;
      if (!parse_u64(token.substr(1), epoch)) {
        return fail("bad epoch selector '" + std::string(token) +
                    "' (expected @N)");
      }
      query.epoch = epoch;
      continue;
    }
    std::uint64_t k = 0;
    if (takes_k && !have_k && parse_u64(token, k)) {
      if (k == 0) return fail("top-K must be >= 1");
      query.top_k = static_cast<std::size_t>(k);
      have_k = true;
      continue;
    }
    return fail("unexpected token '" + std::string(token) + "' after '" +
                std::string(verb) + "'");
  }
  const bool meta = query.kind == QueryKind::kEpochs ||
                    query.kind == QueryKind::kStats ||
                    query.kind == QueryKind::kHelp;
  if (meta && query.epoch.has_value()) {
    return fail("'" + std::string(verb) + "' does not take an @epoch");
  }
  return ParsedQuery{query, {}};
}

std::string render_help() {
  return "OK help adoption|activity|top-apps [K]|sectors [K]|quarantine "
         "[@EPOCH] ; epochs ; stats ; help";
}

std::string render_adoption(std::uint64_t epoch, std::uint64_t records,
                            const core::AdoptionResult& a) {
  std::string out = "OK adoption";
  append_field_u64(out, "epoch", epoch);
  append_field_u64(out, "records", records);
  append_field_u64(out, "registered", a.ever_registered);
  append_field_u64(out, "transacted", a.ever_transacted);
  append_field_double(out, "transacting_frac", a.ever_transacting_fraction);
  append_field_double(out, "total_growth", a.total_growth);
  append_field_double(out, "monthly_growth", a.monthly_growth);
  append_field_double(out, "still_active", a.still_active_share);
  append_field_double(out, "gone", a.gone_share);
  append_field_double(out, "new", a.new_share);
  append_field_double(out, "churned", a.churned_of_initial);
  out += " curve=";
  for (std::size_t day = 0; day < a.daily_registered_norm.size(); ++day) {
    if (day > 0) out += ',';
    append_double(out, a.daily_registered_norm[day]);
  }
  return out;
}

std::string render_activity(
    std::uint64_t epoch, std::uint64_t records, const core::ActivityResult& a,
    const std::array<std::uint64_t, appdb::kTransactionClassCount>&
        class_txns) {
  std::string out = "OK activity";
  append_field_u64(out, "epoch", epoch);
  append_field_u64(out, "records", records);
  append_field_double(out, "mean_active_days", a.mean_active_days);
  append_field_double(out, "mean_active_hours", a.mean_active_hours);
  append_field_double(out, "frac_over_10h", a.frac_over_10h);
  append_field_double(out, "frac_under_5h", a.frac_under_5h);
  append_field_double(out, "mean_txn_bytes", a.mean_txn_bytes);
  append_field_double(out, "median_txn_bytes", a.median_txn_bytes);
  append_field_double(out, "frac_txn_under_10kb", a.frac_txn_under_10kb);
  out += " class_txns=";
  for (std::size_t c = 0; c < class_txns.size(); ++c) {
    if (c > 0) out += ',';
    append_u64(out, class_txns[c]);
  }
  return out;
}

std::string render_top_apps(
    std::uint64_t epoch, std::size_t k,
    std::span<const live::LiveSnapshot::AppRow> apps) {
  std::string out = "OK top-apps";
  append_field_u64(out, "epoch", epoch);
  append_field_u64(out, "k", k);
  append_field_u64(out, "total", apps.size());
  out += " rows=";
  const std::size_t n = std::min(k, apps.size());
  for (std::size_t i = 0; i < n; ++i) {
    const live::LiveSnapshot::AppRow& row = apps[i];
    if (i > 0) out += '|';
    out += row.name;
    out += ':';
    append_u64(out, row.counter.transactions);
    out += ':';
    append_u64(out, row.counter.bytes);
    out += ':';
    append_u64(out, row.counter.usages);
    out += ':';
    append_u64(out, row.counter.distinct_users);
  }
  return out;
}

std::string render_sectors(
    std::uint64_t epoch, std::size_t k,
    std::span<const live::LiveSnapshot::SectorRow> sectors) {
  std::string out = "OK sectors";
  append_field_u64(out, "epoch", epoch);
  append_field_u64(out, "k", k);
  append_field_u64(out, "total", sectors.size());
  out += " rows=";
  const std::size_t n = std::min(k, sectors.size());
  for (std::size_t i = 0; i < n; ++i) {
    const live::LiveSnapshot::SectorRow& row = sectors[i];
    if (i > 0) out += '|';
    append_u64(out, row.sector);
    out += ':';
    append_u64(out, row.counter.events);
    out += ':';
    append_u64(out, row.counter.attaches);
    out += ':';
    append_u64(out, row.counter.handovers);
    out += ':';
    append_u64(out, row.counter.wearable_events);
    out += ':';
    append_u64(out, row.counter.distinct_users);
    out += ':';
    append_u64(out, row.counter.wearable_users);
  }
  return out;
}

std::string render_quarantine(std::uint64_t epoch,
                              const trace::QuarantineStats& q) {
  std::string out = "OK quarantine";
  append_field_u64(out, "epoch", epoch);
  append_field_u64(out, "dropped", q.total_dropped());
  for (const trace::QuarantineCounter& c : trace::kQuarantineCounters)
    append_field_u64(out, c.key, q.*c.member);
  return out;
}

std::string render_snapshot_query(const Query& query,
                                  const live::LiveSnapshot& s) {
  switch (query.kind) {
    case QueryKind::kAdoption:
      return render_adoption(s.epoch, s.records, s.adoption);
    case QueryKind::kActivity:
      return render_activity(s.epoch, s.records, s.activity, s.class_txns);
    case QueryKind::kTopApps:
      return render_top_apps(s.epoch, query.top_k, s.apps);
    case QueryKind::kSectors:
      return render_sectors(s.epoch, query.top_k, s.sectors);
    case QueryKind::kQuarantine:
      return render_quarantine(s.epoch, s.quarantine);
    case QueryKind::kEpochs:
    case QueryKind::kStats:
    case QueryKind::kHelp:
      break;
  }
  util::ensure(false, "render_snapshot_query: non-snapshot query kind");
  return {};
}

}  // namespace wearscope::serve
