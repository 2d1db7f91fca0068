#include "sched/models.h"

#include <atomic>
#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "chaos/fault_plan.h"
#include "live/engine.h"
#include "live/replayer.h"
#include "live/ring_buffer.h"
#include "live/router.h"
#include "serve/reference.h"
#include "serve/snapshot_store.h"
#include "trace/sanitize.h"
#include "util/error.h"
#include "util/sched_hook.h"
#include "util/sync.h"

namespace wearscope::sched {

namespace {

constexpr trace::Tac kWearTac = 35254208;  // Gear S3 frontier LTE.
constexpr trace::Tac kPhoneTac = 99100200;

/// First UserId that partitions onto `shard` of a 2-shard engine.
[[nodiscard]] trace::UserId user_on_shard(std::size_t shard) {
  for (trace::UserId u = 1;; ++u) {
    if (live::shard_of(u, 2) == shard) return u;
  }
}

[[nodiscard]] trace::MmeRecord attach(util::SimTime t, trace::UserId user,
                                      trace::SectorId sector) {
  trace::MmeRecord r;
  r.timestamp = t;
  r.user_id = user;
  r.tac = kWearTac;
  r.event = trace::MmeEvent::kAttach;
  r.sector_id = sector;
  return r;
}

/// A wearable HTTPS transaction whose host is interned into `store`.
[[nodiscard]] trace::ProxyRecord txn(trace::TraceStore& store,
                                     util::SimTime t, trace::UserId user,
                                     std::string_view host,
                                     std::uint64_t bytes_down) {
  trace::ProxyRecord r;
  r.timestamp = t;
  r.user_id = user;
  r.tac = kWearTac;
  r.protocol = trace::Protocol::kHttps;
  r.host_id = store.hosts.intern(host);
  r.path_id = store.paths.intern("");
  r.bytes_up = 160;
  r.bytes_down = bytes_down;
  r.duration_ms = 40;
  return r;
}

[[nodiscard]] live::LiveOptions fixture_options(std::size_t ring_capacity) {
  live::LiveOptions opt;
  opt.shards = 2;
  opt.ring_capacity = ring_capacity;
  opt.observation_days = 7;
  opt.detailed_start_day = 0;
  opt.long_tail_apps = 4;
  opt.signature_coverage = 1.0;
  return opt;
}

/// Extracts `store`'s events in feed order (live::walk_feed) — the order
/// the models push them.
[[nodiscard]] std::vector<std::variant<trace::ProxyRecord, trace::MmeRecord>>
merge_order(const trace::TraceStore& store) {
  std::vector<std::variant<trace::ProxyRecord, trace::MmeRecord>> feed;
  live::walk_feed(store, [&](const live::FeedEvent& event) {
    if (event.mme != nullptr) {
      feed.emplace_back(*event.mme);
    } else {
      feed.emplace_back(*event.proxy);
    }
  });
  return feed;
}

}  // namespace

const LiveFixture& tiny_live_fixture() {
  static const LiveFixture fixture = [] {
    LiveFixture fx;
    fx.options = fixture_options(/*ring_capacity=*/1);
    const trace::UserId u0 = user_on_shard(0);
    const trace::UserId u1 = user_on_shard(1);

    trace::TraceStore store;
    store.devices = {{kWearTac, "Gear S3 frontier LTE", "Samsung", "Tizen"},
                     {kPhoneTac, "iPhone 8", "Apple", "iOS"}};
    store.sectors = {{7, {}}, {9, {}}};
    store.mme = {attach(3600, u0, 7), attach(7200, u1, 9)};
    store.proxy = {txn(store, 10000, u0, "api.weather.com", 2400),
                   txn(store, 14000, u1, "unattributed.example", 900)};
    store.sort_by_time();

    fx.survivors = std::move(store);
    fx.feed = merge_order(fx.survivors);
    fx.final_expected = serve::reference_snapshot(
        fx.survivors, fx.options, /*epoch=*/0, fx.quarantine);
    return fx;
  }();
  return fixture;
}

const LiveFixture& walk_live_fixture() {
  static const LiveFixture fixture = [] {
    LiveFixture fx;
    fx.options = fixture_options(/*ring_capacity=*/2);
    const trace::UserId u0 = user_on_shard(0);
    const trace::UserId u1 = user_on_shard(1);

    trace::TraceStore clean;
    clean.devices = {{kWearTac, "Gear S3 frontier LTE", "Samsung", "Tizen"},
                     {kPhoneTac, "iPhone 8", "Apple", "iOS"}};
    clean.sectors = {{7, {}}, {9, {}}, {11, {}}};
    for (int day = 0; day < 6; ++day) {
      const util::SimTime base = static_cast<util::SimTime>(day) * 86400;
      clean.mme.push_back(attach(base + 3600, u0, 7));
      clean.mme.push_back(attach(base + 3700, u1, day % 2 == 0 ? 9 : 11));
      clean.proxy.push_back(txn(clean, base + 4000 + day, u0,
                                "api.weather.com",
                                1000 + static_cast<std::uint64_t>(day)));
      clean.proxy.push_back(
          txn(clean, base + 5000 + day, u1,
              day % 2 == 0 ? "maps.googleapis.com" : "unattributed.example",
              500 + static_cast<std::uint64_t>(day) * 7));
    }
    clean.sort_by_time();

    // Seeded fault injection + sanitize: the survivors are what the feed
    // pushes, and the sanitizer's accounting must equal the manifest
    // exactly (the chaos differential contract, reused here so every
    // explored schedule carries a non-trivial quarantine expectation).
    chaos::FaultProfile profile;
    profile.name = "sched";
    profile.duplicates = 2;
    profile.unknown_tacs = 1;
    profile.bad_hosts = 1;
    profile.reorder_swaps = 2;
    const chaos::FaultPlan plan(0x5EEDF00D, profile);
    trace::TraceStore hostile = clean;
    const chaos::FaultManifest manifest = plan.inject_records(hostile);
    const trace::QuarantineStats observed = trace::sanitize_store(hostile);
    util::ensure(observed == manifest.expected,
                 "sched fixture: sanitizer accounting diverged from the "
                 "injected manifest");
    util::ensure(observed.any(),
                 "sched fixture: fault injection produced no quarantine");

    fx.survivors = std::move(hostile);
    fx.quarantine = observed;
    fx.feed = merge_order(fx.survivors);
    fx.mid_cut = fx.feed.size() / 2;
    fx.mid_expected = serve::reference_snapshot(
        fx.survivors, fx.options, /*epoch=*/0, fx.quarantine, fx.mid_cut);
    fx.final_expected = serve::reference_snapshot(
        fx.survivors, fx.options, /*epoch=*/1, fx.quarantine);
    return fx;
  }();
  return fixture;
}

std::string snapshot_diff(const live::LiveSnapshot& got,
                          const live::LiveSnapshot& want) {
  std::string diff;
  const auto mismatch = [&](const char* field) {
    if (!diff.empty()) diff += ", ";
    diff += field;
  };
  const auto check = [&](bool ok, const char* field) {
    if (!ok) mismatch(field);
  };
  const auto same_ecdf = [](const util::Ecdf& a, const util::Ecdf& b) {
    return a.sorted() == b.sorted();
  };

  check(got.epoch == want.epoch, "epoch");
  check(got.records == want.records, "records");

  const core::AdoptionResult& ga = got.adoption;
  const core::AdoptionResult& wa = want.adoption;
  check(ga.daily_registered_norm == wa.daily_registered_norm,
        "adoption.daily_registered_norm");
  check(ga.total_growth == wa.total_growth, "adoption.total_growth");
  check(ga.monthly_growth == wa.monthly_growth, "adoption.monthly_growth");
  check(ga.ever_transacting_fraction == wa.ever_transacting_fraction,
        "adoption.ever_transacting_fraction");
  check(ga.still_active_share == wa.still_active_share,
        "adoption.still_active_share");
  check(ga.gone_share == wa.gone_share, "adoption.gone_share");
  check(ga.new_share == wa.new_share, "adoption.new_share");
  check(ga.churned_of_initial == wa.churned_of_initial,
        "adoption.churned_of_initial");
  check(ga.ever_registered == wa.ever_registered,
        "adoption.ever_registered");
  check(ga.ever_transacted == wa.ever_transacted,
        "adoption.ever_transacted");

  const core::ActivityResult& gc = got.activity;
  const core::ActivityResult& wc = want.activity;
  check(same_ecdf(gc.active_days_per_week, wc.active_days_per_week),
        "activity.active_days_per_week");
  check(same_ecdf(gc.active_hours_per_day, wc.active_hours_per_day),
        "activity.active_hours_per_day");
  check(same_ecdf(gc.txn_size_bytes, wc.txn_size_bytes),
        "activity.txn_size_bytes");
  check(same_ecdf(gc.hourly_txns_per_user, wc.hourly_txns_per_user),
        "activity.hourly_txns_per_user");
  check(same_ecdf(gc.hourly_bytes_per_user, wc.hourly_bytes_per_user),
        "activity.hourly_bytes_per_user");
  check(gc.mean_active_days == wc.mean_active_days,
        "activity.mean_active_days");
  check(gc.mean_active_hours == wc.mean_active_hours,
        "activity.mean_active_hours");
  check(gc.frac_over_10h == wc.frac_over_10h, "activity.frac_over_10h");
  check(gc.frac_under_5h == wc.frac_under_5h, "activity.frac_under_5h");
  check(gc.mean_txn_bytes == wc.mean_txn_bytes, "activity.mean_txn_bytes");
  check(gc.median_txn_bytes == wc.median_txn_bytes,
        "activity.median_txn_bytes");
  check(gc.frac_txn_under_10kb == wc.frac_txn_under_10kb,
        "activity.frac_txn_under_10kb");
  check(gc.txns_vs_hours.x_centers == wc.txns_vs_hours.x_centers &&
            gc.txns_vs_hours.y_means == wc.txns_vs_hours.y_means &&
            gc.txns_vs_hours.n == wc.txns_vs_hours.n,
        "activity.txns_vs_hours");
  check(gc.correlation == wc.correlation, "activity.correlation");
  check(gc.binned_trend_corr == wc.binned_trend_corr,
        "activity.binned_trend_corr");

  bool apps_equal = got.apps.size() == want.apps.size();
  for (std::size_t i = 0; apps_equal && i < got.apps.size(); ++i) {
    const live::LiveSnapshot::AppRow& g = got.apps[i];
    const live::LiveSnapshot::AppRow& w = want.apps[i];
    apps_equal = g.app == w.app && g.name == w.name &&
                 g.counter.transactions == w.counter.transactions &&
                 g.counter.bytes == w.counter.bytes &&
                 g.counter.usages == w.counter.usages &&
                 g.counter.distinct_users == w.counter.distinct_users;
  }
  check(apps_equal, "apps");

  bool sectors_equal = got.sectors.size() == want.sectors.size();
  for (std::size_t i = 0; sectors_equal && i < got.sectors.size(); ++i) {
    const live::LiveSnapshot::SectorRow& g = got.sectors[i];
    const live::LiveSnapshot::SectorRow& w = want.sectors[i];
    sectors_equal = g.sector == w.sector &&
                    g.counter.events == w.counter.events &&
                    g.counter.attaches == w.counter.attaches &&
                    g.counter.handovers == w.counter.handovers &&
                    g.counter.wearable_events == w.counter.wearable_events &&
                    g.counter.distinct_users == w.counter.distinct_users &&
                    g.counter.wearable_users == w.counter.wearable_users;
  }
  check(sectors_equal, "sectors");

  check(got.class_txns == want.class_txns, "class_txns");
  check(got.quarantine == want.quarantine, "quarantine");
  // Belt and braces: the serving layer's own integrity word must agree on
  // everything it folds over.
  check(serve::ServedSnapshot::fold(got, 1, false) ==
            serve::ServedSnapshot::fold(want, 1, false),
        "fold_checksum");
  return diff;
}

Model ring_transfer_model(std::size_t items, std::size_t capacity) {
  return [items, capacity](Scheduler& sched) {
    live::RingBuffer<std::size_t> ring(capacity);
    ManagedThread producer("producer", [&] {
      for (std::size_t v = 1; v <= items; ++v) {
        if (!ring.push(v)) {
          sched.fail("ring_transfer: push rejected on an open ring");
          return;
        }
      }
    });
    std::vector<std::size_t> received;
    received.reserve(items);
    for (std::size_t i = 0; i < items; ++i) {
      std::size_t v = 0;
      if (!ring.pop(v)) {
        sched.fail("ring_transfer: pop failed before close");
        break;
      }
      received.push_back(v);
    }
    producer.join();
    ring.close();
    std::size_t v = 0;
    if (ring.pop(v)) sched.fail("ring_transfer: pop succeeded after drain");

    for (std::size_t i = 0; i < received.size(); ++i) {
      if (received[i] != i + 1) {
        sched.fail("ring_transfer: FIFO order violated at element " +
                   std::to_string(i));
        break;
      }
    }
    const live::RingStats stats = ring.stats();
    if (stats.pushed != items || stats.popped != items ||
        stats.rejected != 0) {
      sched.fail("ring_transfer: stats mismatch pushed=" +
                 std::to_string(stats.pushed) +
                 " popped=" + std::to_string(stats.popped) +
                 " rejected=" + std::to_string(stats.rejected));
    }
  };
}

Model ring_batch_transfer_model(std::size_t items, std::size_t capacity,
                                std::size_t batch) {
  return [items, capacity, batch](Scheduler& sched) {
    live::RingBuffer<std::size_t> ring(capacity);
    ManagedThread producer("producer", [&] {
      std::vector<std::size_t> chunk;
      for (std::size_t first = 1; first <= items; first += batch) {
        chunk.clear();
        for (std::size_t v = first; v < first + batch && v <= items; ++v) {
          chunk.push_back(v);
        }
        if (ring.push_n(chunk.data(), chunk.size()) != chunk.size()) {
          sched.fail("ring_batch_transfer: push_n rejected on an open ring");
          return;
        }
      }
    });
    std::vector<std::size_t> received;
    std::vector<std::size_t> out(batch > 1 ? batch - 1 : 1);
    while (received.size() < items) {
      const std::size_t n = ring.pop_n(out.data(), out.size());
      if (n == 0) {
        sched.fail("ring_batch_transfer: pop_n drained before close");
        break;
      }
      received.insert(received.end(), out.begin(),
                      out.begin() + static_cast<std::ptrdiff_t>(n));
    }
    producer.join();
    ring.close();
    if (ring.pop_n(out.data(), out.size()) != 0) {
      sched.fail("ring_batch_transfer: pop_n returned elements after drain");
    }

    for (std::size_t i = 0; i < received.size(); ++i) {
      if (received[i] != i + 1) {
        sched.fail("ring_batch_transfer: FIFO order violated at element " +
                   std::to_string(i));
        break;
      }
    }
    const live::RingStats stats = ring.stats();
    if (received.size() != items || stats.pushed != items ||
        stats.popped != items || stats.rejected != 0) {
      sched.fail("ring_batch_transfer: stats mismatch received=" +
                 std::to_string(received.size()) +
                 " pushed=" + std::to_string(stats.pushed) +
                 " popped=" + std::to_string(stats.popped) +
                 " rejected=" + std::to_string(stats.rejected));
    }
  };
}

Model ring_batch_close_model() {
  return [](Scheduler& sched) {
    constexpr std::size_t kChunk = 3;
    constexpr std::size_t kOffered = 2 * kChunk;
    live::RingBuffer<std::size_t> ring(2);
    std::size_t accepted = 0;
    bool accepted_after_reject = false;
    ManagedThread producer("producer", [&] {
      bool rejected_one = false;
      for (std::size_t first = 1; first <= kOffered; first += kChunk) {
        std::size_t chunk[kChunk] = {first, first + 1, first + 2};
        const std::size_t n = ring.push_n(chunk, kChunk);
        if (rejected_one && n > 0) accepted_after_reject = true;
        if (n < kChunk) rejected_one = true;
        accepted += n;
      }
    });

    util::sched::point(util::sched::Op::kUserPoint, &ring);
    ring.close();
    std::vector<std::size_t> received;
    std::size_t out[2];
    const auto drain = [&] {
      while (const std::size_t n = ring.pop_n(out, 2)) {
        received.insert(received.end(), out, out + n);
      }
    };
    drain();
    producer.join();
    // A chunk may have been committed after the first drain saw "empty +
    // closed"; a second drain after the join sees all that was accepted.
    drain();

    if (accepted_after_reject) {
      sched.fail("ring_batch_close: push_n accepted after a rejection "
                 "(closed is not sticky)");
    }
    for (std::size_t i = 0; i < received.size(); ++i) {
      if (received[i] != i + 1) {
        sched.fail("ring_batch_close: delivered element " +
                   std::to_string(received[i]) + " out of order");
        return;
      }
    }
    const live::RingStats stats = ring.stats();
    if (received.size() != accepted || stats.pushed != accepted ||
        stats.popped != accepted) {
      sched.fail("ring_batch_close: accepted " + std::to_string(accepted) +
                 " but delivered " + std::to_string(received.size()) +
                 " (pushed=" + std::to_string(stats.pushed) +
                 ", popped=" + std::to_string(stats.popped) + ")");
    }
    if (accepted + stats.rejected != kOffered) {
      sched.fail("ring_batch_close: accepted " + std::to_string(accepted) +
                 " + rejected " + std::to_string(stats.rejected) +
                 " != offered " + std::to_string(kOffered));
    }
  };
}

Model ring_close_producer_model() {
  return [](Scheduler& sched) {
    constexpr std::size_t kAttempts = 3;
    live::RingBuffer<std::size_t> ring(1);
    std::size_t accepted = 0;
    bool accepted_after_reject = false;
    ManagedThread producer("producer", [&] {
      bool rejected_one = false;
      for (std::size_t v = 1; v <= kAttempts; ++v) {
        if (ring.push(v)) {
          ++accepted;
          if (rejected_one) accepted_after_reject = true;
        } else {
          rejected_one = true;
        }
      }
    });

    util::sched::point(util::sched::Op::kUserPoint, &ring);
    ring.close();
    std::vector<std::size_t> received;
    std::size_t v = 0;
    while (ring.pop(v)) received.push_back(v);
    producer.join();
    // The producer may have committed a final element between our drain
    // hitting "empty + closed" and its own close check; a second drain
    // after the join sees everything that was ever accepted.
    while (ring.pop(v)) received.push_back(v);

    if (accepted_after_reject) {
      sched.fail("ring_close/producer: push accepted after a rejection "
                 "(closed is not sticky)");
    }
    for (std::size_t i = 0; i < received.size(); ++i) {
      if (received[i] != i + 1) {
        sched.fail("ring_close/producer: delivered element " +
                   std::to_string(received[i]) + " out of order");
        return;
      }
    }
    const live::RingStats stats = ring.stats();
    if (received.size() != accepted || stats.pushed != accepted) {
      sched.fail(
          "ring_close/producer: accepted " + std::to_string(accepted) +
          " but delivered " + std::to_string(received.size()) +
          " (pushed=" + std::to_string(stats.pushed) + ")");
    }
    if (stats.rejected != kAttempts - accepted) {
      sched.fail("ring_close/producer: rejected=" +
                 std::to_string(stats.rejected) + ", want " +
                 std::to_string(kAttempts - accepted));
    }
  };
}

Model lane_handoff_model(bool close_after_first) {
  return [close_after_first](Scheduler& sched) {
    constexpr std::size_t kLanes = 2;
    constexpr std::size_t kUnits = 5;
    std::vector<std::unique_ptr<live::RingBuffer<std::size_t>>> rings;
    for (std::size_t k = 0; k < kLanes; ++k) {
      rings.push_back(std::make_unique<live::RingBuffer<std::size_t>>(1));
    }
    std::vector<std::unique_ptr<ManagedThread>> lanes;
    for (std::size_t k = 0; k < kLanes; ++k) {
      lanes.push_back(std::make_unique<ManagedThread>(
          "lane" + std::to_string(k), [&rings, k] {
            live::RingBuffer<std::size_t>& ring = *rings[k];
            for (std::size_t unit = k; unit < kUnits; unit += kLanes) {
              if (!ring.push(unit)) return;  // main gave up
            }
            ring.close();
          }));
    }

    std::vector<std::size_t> received;
    for (std::size_t unit = 0;; ++unit) {
      std::size_t got = 0;
      if (!rings[unit % kLanes]->pop(got)) break;
      received.push_back(got);
      if (close_after_first) {
        util::sched::point(util::sched::Op::kUserPoint, &rings);
        break;
      }
    }
    // However main leaves, it closes every ring before it joins, as the
    // feed's destructor does; with close_after_first that is the only
    // close a parked lane sees.
    for (const auto& ring : rings) ring->close();
    for (const auto& lane : lanes) lane->join();

    for (std::size_t i = 0; i < received.size(); ++i) {
      if (received[i] != i) {
        sched.fail("lane_handoff: unit " + std::to_string(received[i]) +
                   " delivered at position " + std::to_string(i));
        return;
      }
    }
    const std::size_t want = close_after_first ? 1 : kUnits;
    if (received.size() != want) {
      sched.fail("lane_handoff: delivered " +
                 std::to_string(received.size()) + " units, want " +
                 std::to_string(want));
    }
  };
}

Model ring_close_consumer_model() {
  return [](Scheduler& sched) {
    live::RingBuffer<std::size_t> ring(1);
    std::vector<std::size_t> received;
    ManagedThread consumer("consumer", [&] {
      std::size_t v = 0;
      while (ring.pop(v)) received.push_back(v);
    });

    if (!ring.push(41)) {
      sched.fail("ring_close/consumer: push rejected before close");
    }
    util::sched::point(util::sched::Op::kUserPoint, &ring);
    ring.close();
    consumer.join();

    if (received.size() != 1 || received[0] != 41) {
      sched.fail("ring_close/consumer: expected exactly one element (41), "
                 "got " + std::to_string(received.size()));
    }
    const live::RingStats stats = ring.stats();
    if (stats.pushed != 1 || stats.popped != 1 || stats.rejected != 0) {
      sched.fail("ring_close/consumer: stats mismatch pushed=" +
                 std::to_string(stats.pushed) +
                 " popped=" + std::to_string(stats.popped) +
                 " rejected=" + std::to_string(stats.rejected));
    }
  };
}

Model store_publish_read_model(std::size_t retain, std::size_t publishes) {
  return [retain, publishes](Scheduler& sched) {
    serve::SnapshotStore store(retain);
    const auto checksum_ok = [](const serve::SnapshotRef& ref) {
      return ref->checksum == serve::ServedSnapshot::fold(
                                  ref->snap, ref->publish_seq,
                                  ref->final_epoch);
    };

    ManagedThread reader("reader", [&] {
      std::uint64_t last_seq = 0;
      serve::SnapshotRef held;
      for (int round = 0; round < 3; ++round) {
        if (serve::SnapshotRef ref = store.latest()) {
          if (!checksum_ok(ref)) {
            sched.fail("store: torn publication (checksum mismatch) at "
                       "publish_seq " + std::to_string(ref->publish_seq));
          }
          if (ref->publish_seq < last_seq) {
            sched.fail("store: publish_seq went backwards (" +
                       std::to_string(ref->publish_seq) + " after " +
                       std::to_string(last_seq) + ")");
          }
          last_seq = ref->publish_seq;
          held = std::move(ref);
        }
        const std::vector<std::uint64_t> epochs = store.retained_epochs();
        if (epochs.size() > retain) {
          sched.fail("store: retention window overflow (" +
                     std::to_string(epochs.size()) + " > " +
                     std::to_string(retain) + ")");
        }
        for (std::size_t i = 1; i < epochs.size(); ++i) {
          if (epochs[i - 1] >= epochs[i]) {
            sched.fail("store: retained_epochs not strictly increasing");
          }
        }
        if (!epochs.empty()) {
          if (serve::SnapshotRef at = store.at_epoch(epochs.front())) {
            if (at->snap.epoch != epochs.front()) {
              sched.fail("store: at_epoch returned epoch " +
                         std::to_string(at->snap.epoch) + ", asked for " +
                         std::to_string(epochs.front()));
            }
            if (!checksum_ok(at)) {
              sched.fail("store: at_epoch returned a torn snapshot");
            }
          }
        }
      }
      // A reference held across evictions must stay fully intact — the
      // writer retiring it from the window never touches the object.
      if (held && !checksum_ok(held)) {
        sched.fail("store: held reference corrupted by eviction");
      }
    });

    for (std::size_t e = 0; e < publishes; ++e) {
      live::LiveSnapshot snap;
      snap.epoch = e;
      snap.records = (e + 1) * 10;
      store.publish(std::move(snap), /*final_epoch=*/e + 1 == publishes);
    }
    reader.join();

    if (store.published() != publishes) {
      sched.fail("store: published() is " +
                 std::to_string(store.published()) + ", want " +
                 std::to_string(publishes));
    }
    const std::vector<std::uint64_t> epochs = store.retained_epochs();
    const std::size_t want_retained =
        publishes < retain ? publishes : retain;
    if (epochs.size() != want_retained) {
      sched.fail("store: final retention holds " +
                 std::to_string(epochs.size()) + " epochs, want " +
                 std::to_string(want_retained));
    }
    if (publishes > retain && store.at_epoch(0) != nullptr) {
      sched.fail("store: epoch 0 still reachable after eviction");
    }
  };
}

namespace {

/// Shared tail of the live models: feed, snapshot, compare, account.
void run_live_model(Scheduler& sched, const LiveFixture& fx,
                    serve::SnapshotStore* store) {
  live::LiveEngine engine(fx.survivors.devices, fx.options);
  engine.bind_hosts(fx.survivors.hosts);
  engine.add_quarantine(fx.quarantine);

  std::uint64_t fed = 0;
  std::uint64_t barriers = 1;  // stop() always broadcasts one.
  for (const auto& event : fx.feed) {
    if (fx.mid_cut != 0 && fed == fx.mid_cut) {
      live::LiveSnapshot mid = engine.snapshot();
      ++barriers;
      const std::string diff = snapshot_diff(mid, fx.mid_expected);
      if (!diff.empty()) {
        sched.fail("live: mid snapshot diverged from the sequential "
                   "reference: " + diff);
      }
      if (store != nullptr) store->publish(std::move(mid));
    }
    const bool ok = std::visit(
        [&](const auto& record) { return engine.push(record); }, event);
    if (!ok) {
      sched.fail("live: push rejected before stop");
      return;
    }
    ++fed;
  }

  live::LiveSnapshot fin = engine.stop();
  const std::string diff = snapshot_diff(fin, fx.final_expected);
  if (!diff.empty()) {
    sched.fail("live: final snapshot diverged from the sequential "
               "reference: " + diff);
  }

  // Exact ring accounting: every record plus one barrier per shard per
  // epoch rode the rings; everything pushed was popped; nothing was
  // rejected on this clean run.
  const live::RingStats bp = fin.backpressure;
  const std::uint64_t want_pushed =
      fed + barriers * static_cast<std::uint64_t>(fx.options.shards);
  if (bp.pushed != want_pushed || bp.popped != bp.pushed ||
      bp.rejected != 0) {
    sched.fail("live: ring accounting off — pushed=" +
               std::to_string(bp.pushed) + " (want " +
               std::to_string(want_pushed) + "), popped=" +
               std::to_string(bp.popped) + ", rejected=" +
               std::to_string(bp.rejected));
  }
  if (store != nullptr) store->publish(std::move(fin), /*final_epoch=*/true);
}

}  // namespace

Model live_barrier_model() {
  // Bind the fixture here, in the factory: constructing it lazily inside
  // the first schedule would build it under the scheduler, giving run #1
  // a different step timeline than every later run — and schedules must
  // be pure functions of decisions.
  const LiveFixture& fx = tiny_live_fixture();
  return [&fx](Scheduler& sched) { run_live_model(sched, fx, nullptr); };
}

Model live_serve_model() {
  const LiveFixture& fx = walk_live_fixture();  // outside any schedule
  return [&fx](Scheduler& sched) {
    serve::SnapshotStore store(2);
    const auto checksum_ok = [](const serve::SnapshotRef& ref) {
      return ref->checksum == serve::ServedSnapshot::fold(
                                  ref->snap, ref->publish_seq,
                                  ref->final_epoch);
    };
    ManagedThread reader("reader", [&] {
      std::uint64_t last_seq = 0;
      for (int round = 0; round < 3; ++round) {
        serve::SnapshotRef ref = store.latest();
        if (!ref) continue;
        if (!checksum_ok(ref)) {
          sched.fail("live+serve: torn publication at publish_seq " +
                     std::to_string(ref->publish_seq));
        }
        if (ref->publish_seq < last_seq) {
          sched.fail("live+serve: publish_seq went backwards");
        }
        last_seq = ref->publish_seq;
      }
    });
    run_live_model(sched, fx, &store);
    reader.join();
    if (store.published() != 2) {
      sched.fail("live+serve: expected 2 publications, saw " +
                 std::to_string(store.published()));
    }
    const serve::SnapshotRef last = store.latest();
    if (!last || !last->final_epoch || last->snap.epoch != 1) {
      sched.fail("live+serve: latest() is not the final epoch");
    }
  };
}

Model racy_counter_model(bool buggy) {
  return [buggy](Scheduler& sched) {
    int counter = 0;
    util::Mutex mutex;
    const auto worker = [&] {
      for (int i = 0; i < 2; ++i) {
        if (buggy) {
          // The seeded mutation: a read-modify-write split across a choice
          // point — a textbook lost update the explorer must catch.
          const int t = counter;
          util::sched::point(util::sched::Op::kUserPoint, &counter);
          counter = t + 1;
        } else {
          util::MutexLock lock(mutex);
          ++counter;
        }
      }
    };
    ManagedThread a("inc-a", worker);
    ManagedThread b("inc-b", worker);
    a.join();
    b.join();
    if (counter != 4) {
      sched.fail("racy_counter: lost update — counter is " +
                 std::to_string(counter) + ", want 4");
    }
  };
}

}  // namespace wearscope::sched
