// wearscope::sched — the concurrency scenarios the harness explores.
//
// Each factory returns a self-contained Model over real wearscope objects
// (live::RingBuffer, live::LiveEngine, serve::SnapshotStore): the model
// builds everything fresh per run, drives it through the hooked choice
// points, and reports invariant violations via Scheduler::fail().  The
// heavyweight inputs — the capture fixture, the chaos fault manifest and
// the sequential reference snapshots — are built once (outside any
// schedule) and shared read-only across runs, so a schedule costs only
// the concurrent part.
//
// Invariants asserted, per the serving layer's contracts:
//   * snapshots are bitwise-equal to serve::reference_snapshot — the one
//     sequential reference `wearscope_serve --verify` also uses;
//   * snapshot.quarantine equals the chaos-injected manifest exactly;
//   * ring accounting is exact: pushed = records + barriers, popped =
//     pushed, rejected = 0 on clean runs, and close() races lose or
//     duplicate nothing;
//   * SnapshotStore publications are never torn (ServedSnapshot::fold
//     re-derives) and publish_seq is monotone for every reader.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "live/engine.h"
#include "live/snapshot.h"
#include "sched/explorer.h"
#include "trace/quarantine.h"
#include "trace/store.h"

namespace wearscope::sched {

/// Shared read-only input of the live-engine models: a tiny hand-built
/// capture, its chaos-injected quarantine expectation, and the sequential
/// reference snapshots every schedule must reproduce bitwise.
struct LiveFixture {
  /// The sanitized capture (time-sorted survivors of fault injection).
  trace::TraceStore survivors;
  /// survivors' events in feed order (what the model pushes).
  std::vector<std::variant<trace::ProxyRecord, trace::MmeRecord>> feed;
  /// What the sanitizer quarantined == what the chaos plan injected.
  trace::QuarantineStats quarantine;
  /// Engine configuration (2 shards, tiny rings, 7-day window).
  live::LiveOptions options;
  /// Events fed before the mid-stream snapshot (0 = no mid snapshot).
  std::uint64_t mid_cut = 0;
  /// reference_snapshot at mid_cut (epoch 0); meaningful when mid_cut > 0.
  live::LiveSnapshot mid_expected;
  /// reference_snapshot over the whole capture (the stop() epoch).
  live::LiveSnapshot final_expected;
};

/// The minimal 2-shard fixture for exhaustive enumeration: one MME attach
/// and one proxy transaction per shard, no faults, final barrier only.
[[nodiscard]] const LiveFixture& tiny_live_fixture();

/// The fuller fixture for random walks: multi-day events on both shards,
/// chaos-injected faults (quarantine != 0), and a mid-stream barrier cut.
[[nodiscard]] const LiveFixture& walk_live_fixture();

/// Field-by-field comparison of two snapshots (backpressure excluded — the
/// reference runs threadless).  Returns "" when bitwise-equal, else a
/// comma-separated list of diverging fields.
[[nodiscard]] std::string snapshot_diff(const live::LiveSnapshot& got,
                                        const live::LiveSnapshot& want);

/// SPSC handoff: a producer thread pushes 1..items through a ring of the
/// given capacity, main consumes.  Asserts FIFO delivery, exact stats.
[[nodiscard]] Model ring_transfer_model(std::size_t items,
                                        std::size_t capacity);

/// Batched SPSC handoff: a producer thread pushes 1..items with push_n in
/// chunks of `batch` (larger than `capacity`, so every chunk parks), main
/// drains with pop_n taking at most batch - 1 at once.  Asserts FIFO
/// delivery and exact pushed/popped element counts.
[[nodiscard]] Model ring_batch_transfer_model(std::size_t items,
                                              std::size_t capacity,
                                              std::size_t batch);

/// close() landing mid-push_n: on a capacity-2 ring the producer offers
/// 1..6 as two push_n calls of three while main closes and drains with
/// pop_n.  Asserts the accepted prefix is delivered exactly once,
/// accepted + rejected == 6, and nothing is accepted after a rejection.
[[nodiscard]] Model ring_batch_close_model();

/// close() racing a pushing (possibly parked) producer on a capacity-1
/// ring: main closes and drains while the producer attempts 3 pushes.
/// Asserts accepted pushes form a prefix, every accepted element is
/// delivered exactly once, and rejected accounts for the rest.
[[nodiscard]] Model ring_close_producer_model();

/// close() racing a draining (possibly parked) consumer: a consumer
/// thread pops to exhaustion while main pushes one element and closes.
/// Asserts the element is delivered exactly once and the consumer exits.
[[nodiscard]] Model ring_close_consumer_model();

/// The partition feed's decode-lane handoff: two producer lanes, each with
/// a capacity-1 ring of its own, push units k, k + 2, ... of a 5-unit log
/// (lane 0 the even ones, lane 1 the odd ones) and close their ring; main
/// pops the lanes round-robin until one says the log ended, then closes
/// every ring and joins, as the feed's destructor does.  With
/// `close_after_first`, main stops after the first element, as the feed's
/// error path does.  Asserts that what main got is
/// a prefix of the units in global order (each unit exactly once), the
/// whole log when nothing was closed early, and that every producer exits
/// (a producer left parked is a deadlock).
[[nodiscard]] Model lane_handoff_model(bool close_after_first);

/// SnapshotStore publish/read race: main publishes `publishes` epochs
/// into a store retaining `retain`, a reader thread interleaves latest /
/// at_epoch / retained_epochs.  Asserts checksums (no torn publication),
/// monotone publish_seq, sorted retention, and that a reference held
/// across eviction stays intact.
[[nodiscard]] Model store_publish_read_model(std::size_t retain,
                                             std::size_t publishes);

/// The tiny 2-shard engine end-to-end (tiny_live_fixture): feed, stop,
/// compare the final snapshot to the sequential reference, check ring
/// accounting.  Small enough for exhaustive enumeration.
[[nodiscard]] Model live_barrier_model();

/// The full live+serve path (walk_live_fixture): feed half, mid-stream
/// snapshot published to a SnapshotStore under a racing reader, feed the
/// rest, stop, publish the final epoch.  Asserts both snapshots equal
/// their references, quarantine == injected, ring accounting, and store
/// integrity.  Sized for seeded random walks.
[[nodiscard]] Model live_serve_model();

/// The mutation-test scenario: two threads increment a shared counter
/// twice each.  `buggy` splits the increment across a choice point (a
/// real lost-update race the explorer must find); otherwise the increment
/// is mutex-protected and every schedule passes.
[[nodiscard]] Model racy_counter_model(bool buggy);

}  // namespace wearscope::sched
