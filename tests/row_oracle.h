// Row-layout reference implementations of three columnar analysis kernels.
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

namespace wearscope::oracle {

/// Bitwise-identical to core::analyze_diurnal.
core::DiurnalResult diurnal_rows(const core::AnalysisContext& ctx);

/// Matches core::analyze_usage whenever no two apps tie exactly on mean
/// KB per usage (the sort key).
core::UsageResult usage_rows(const core::AnalysisContext& ctx);

/// Bitwise-identical to core::analyze_thirdparty.
core::ThirdPartyResult thirdparty_rows(const core::AnalysisContext& ctx);

}  // namespace wearscope::oracle
