// Row-layout reference implementations of the proxy column transpose and
// of three columnar analysis kernels.
//
// proxy_columns_rows transposes proxy rows the way the library did before
// rows carried pool ids: it resolves every row's host to its string and
// hashes the strings into a first-appearance dictionary.  The store's own
// transpose instead copies the canonical ids and the host pool
// (trace/columns.h), so the two agree exactly when the store's pools are
// canonical — which test_columns.cpp checks for every input format and
// mutator.
//
// analyze_diurnal, analyze_usage and analyze_thirdparty stream the proxy
// columns with per-user run dedup and dense per-app arrays.  The oracles
// below compute the same figures the straightforward way — global hash
// sets and hash maps over the record pointers — so test_columns.cpp can
// check each kernel against an independent implementation on a full
// simulated capture.  They are test-only: nothing in the library calls
// them.  (Adoption and activity are checked against the streaming
// counters of core/streaming.h and core/streaming_activity.h instead.)
#pragma once

#include "core/analysis_diurnal.h"
#include "core/analysis_thirdparty.h"
#include "core/analysis_usage.h"
#include "core/context.h"
#include "trace/columns.h"
#include "trace/string_pool.h"

namespace wearscope::oracle {

/// The proxy transpose of `rows` (ids indexing `hosts`) built by hashing
/// each row's host string.
trace::ProxyColumns proxy_columns_rows(
    const std::vector<trace::ProxyRecord>& rows,
    const trace::StringPool& hosts);

/// Bitwise-identical to core::analyze_diurnal.
core::DiurnalResult diurnal_rows(const core::AnalysisContext& ctx);

/// Matches core::analyze_usage whenever no two apps tie exactly on mean
/// KB per usage (the sort key).
core::UsageResult usage_rows(const core::AnalysisContext& ctx);

/// Bitwise-identical to core::analyze_thirdparty.
core::ThirdPartyResult thirdparty_rows(const core::AnalysisContext& ctx);

}  // namespace wearscope::oracle
