// Row-layout reference implementations of the analysis kernels.
//
// analyze_diurnal, analyze_usage and analyze_thirdparty gather each
// user's proxy rows by index with per-user run dedup and dense per-app
// arrays.  The oracles below compute the same figures the straightforward
// way — global hash sets and hash maps over each user's rows — so
// test_columns.cpp can check each kernel against an independent
// implementation on a full simulated capture.  They are test-only: nothing in the library calls
// them.  (Adoption and activity are checked against the streaming
// counters of core/streaming.h and core/streaming_activity.h instead.)
//
// analyze_cohorts, analyze_retention and analyze_mobility walk dense
// per-model and per-week tallies and one forward pass per user.  Their
// oracles are the tree-map versions those passes replaced: per-model
// std::sets of users and active user-days, a std::map of week sets per
// user, and a per-transaction binary search for the sector in use.  Two
// deliberate differences from that older code: the cohorts oracle keys
// active user-days on the (user, day) pair, not on a packed integer that
// let users whose ids differ only in the top 10 bits collide; and the
// mobility oracle sums each user's dwell entropy in first-appearance
// sector order, where the older code followed unordered_map iteration.
//
// throughdevice_rows is analyze_throughdevice as one sequential loop over
// every user, matching each in-window phone transaction's host string
// against every companion signature (the pass itself matches each host
// pool entry once and runs as user slices in the pipeline).
//
// sorted_rows is TraceStore::is_sorted as one sequential check: the two
// logs' std::is_sorted and one pools_canonical pass over the proxy rows,
// where the store cuts the rows into slices checked on threads of their
// own and merges what each slice saw.  test_store.cpp checks the sliced
// check against it at several slice counts.
//
// partition_feed_rows is fed::load_partition_feed on one thread: it pulls
// one row at a time from each log's trace::LogCursor and merges the two
// streams in the same loop that checks their order and filters them, the
// way the loader worked before its decoders moved onto threads of their
// own.  test_fed.cpp checks the pipelined loader against it field by
// field.
#pragma once

#include <filesystem>

#include "core/analysis_cohorts.h"
#include "core/analysis_diurnal.h"
#include "core/analysis_mobility.h"
#include "core/analysis_retention.h"
#include "core/analysis_thirdparty.h"
#include "core/analysis_throughdevice.h"
#include "core/analysis_usage.h"
#include "core/context.h"
#include "fed/feed_filter.h"
#include "trace/store.h"
#include "trace/string_pool.h"

namespace wearscope::oracle {

/// Bitwise-identical to core::analyze_diurnal.
core::DiurnalResult diurnal_rows(const core::AnalysisContext& ctx);

/// Matches core::analyze_usage whenever no two apps tie exactly on mean
/// KB per usage (the sort key).
core::UsageResult usage_rows(const core::AnalysisContext& ctx);

/// Bitwise-identical to core::analyze_thirdparty.
core::ThirdPartyResult thirdparty_rows(const core::AnalysisContext& ctx);

/// Bitwise-identical to core::analyze_cohorts.
core::CohortResult cohorts_rows(const core::AnalysisContext& ctx);

/// Bitwise-identical to core::analyze_retention.
core::RetentionResult retention_rows(const core::AnalysisContext& ctx);

/// Bitwise-identical to core::analyze_mobility.
core::MobilityResult mobility_rows(const core::AnalysisContext& ctx);

/// Bitwise-identical to core::analyze_throughdevice and to the pipeline's
/// sliced run of it.
core::ThroughDeviceResult throughdevice_rows(const core::AnalysisContext& ctx);

/// Equal to trace::TraceStore::is_sorted() on every store.
bool sorted_rows(const trace::TraceStore& store);

/// Identical, field by field, to fed::load_partition_feed; throws the
/// same exception types (util::ParseError naming the file on damage or an
/// order violation, util::IoError on a missing file).
fed::PartitionFeed partition_feed_rows(const std::filesystem::path& dir,
                                       std::size_t partition_id,
                                       std::size_t partition_count);

}  // namespace wearscope::oracle
