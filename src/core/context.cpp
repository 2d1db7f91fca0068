#include "core/context.h"

#include <algorithm>
#include <array>
#include <cstddef>
#include <functional>
#include <string>

#include "par/task_pool.h"
#include "util/error.h"

namespace wearscope::core {

namespace {

/// One row slice of a log in the grouping pass.  The count task fills
/// `local`, `ids`, `wearable` and `rows` (rows of the slice per user and
/// destination array); the merge turns `rows` into each user's write
/// cursors and sets `dense`; the scatter task advances the cursors.
struct RowSlice {
  std::size_t lo = 0;
  std::size_t hi = 0;
  /// User id -> local index, in first-appearance order within the slice.
  std::unordered_map<trace::UserId, std::uint32_t> local;
  std::vector<trace::UserId> ids;      ///< Local index -> user id.
  std::vector<std::size_t> dense;      ///< Local index -> dense user id.
  std::vector<std::uint8_t> wearable;  ///< Local index -> saw a wearable TAC.
  /// Local index -> per destination array (proxy slices: wearable, phone;
  /// MME slices: only [0]): the slice's row count, then the cursor.
  std::vector<std::array<std::size_t, 2>> rows;
};

/// Counts the rows of `slice` of `log` per user.  `wearable_of(log[i])`
/// tells whether row i's TAC is a wearable's; with `kSplitByWearable` the
/// row goes to destination array 0 (wearable) or 1 (phone) by that same
/// test, otherwise always to array 0.
template <bool kSplitByWearable, typename Log, typename WearableOf>
void count_slice(const Log& log, RowSlice& slice, WearableOf wearable_of) {
  for (std::size_t i = slice.lo; i < slice.hi; ++i) {
    const auto& r = log[i];
    const auto next = static_cast<std::uint32_t>(slice.ids.size());
    const auto [it, inserted] = slice.local.try_emplace(r.user_id, next);
    if (inserted) {
      slice.ids.push_back(r.user_id);
      slice.wearable.push_back(0);
      slice.rows.push_back({0, 0});
    }
    const bool wearable = wearable_of(r);
    ++slice.rows[it->second][kSplitByWearable && !wearable ? 1 : 0];
    if (wearable) slice.wearable[it->second] = 1;
  }
}

}  // namespace

void require_analysis_window(int observation_days, int detailed_start_day) {
  if (detailed_start_day >= 0 &&
      detailed_window_weeks(observation_days, detailed_start_day) >= 1) {
    return;
  }
  throw util::ConfigError(
      "analysis window: the detailed window (from day " +
      std::to_string(detailed_start_day) + " of " +
      std::to_string(observation_days) +
      ") must hold at least 7 days inside the observation window");
}

AnalysisContext::AnalysisContext(const trace::TraceStore& store,
                                 AnalysisOptions options)
    : store_(&store), options_(options) {
  require_analysis_window(options_.observation_days,
                          options_.detailed_start_day);
  util::require(options_.threads >= 1, "analysis options: threads must be >= 1");
  util::require(store.is_sorted(),
                "analysis context requires time-sorted logs");
  util::require(store.proxy.size() <= 0xffffffffull,
                "analysis context: proxy log exceeds 2^32 rows");
  util::require(store.mme.size() <= 0xffffffffull,
                "analysis context: MME log exceeds 2^32 rows");
  // The store's lookup indexes build lazily on first find_*; force them now
  // so concurrent analyses only ever read them.
  store.rebuild_indexes();

  knowledge_base_ =
      std::make_unique<appdb::AppCatalog>(options_.long_tail_apps);
  devices_ = std::make_unique<DeviceClassifier>(store.devices);
  signatures_ = std::make_unique<AppSignatureTable>(
      *knowledge_base_, options_.signature_coverage);

  par::TaskPool pool(static_cast<std::size_t>(options_.threads));

  // Phase 1 — count.  Each task takes a row slice of the proxy log or of
  // the MME log and counts its rows per user and destination array.
  const auto row_slices = [&pool](std::size_t rows) {
    const std::vector<std::size_t> bounds = par::slice_bounds(
        rows, pool.threads(), [](std::size_t i) -> std::uint64_t { return i; });
    std::vector<RowSlice> slices(bounds.size() - 1);
    for (std::size_t s = 0; s < slices.size(); ++s) {
      slices[s].lo = bounds[s];
      slices[s].hi = bounds[s + 1];
    }
    return slices;
  };
  const auto& proxy = store.proxy;
  const auto& mme = store.mme;
  std::vector<RowSlice> proxy_slices = row_slices(proxy.size());
  std::vector<RowSlice> mme_slices = row_slices(mme.size());
  const DeviceClassifier& devices = *devices_;
  const auto wearable_of = [&devices](const auto& r) {
    return devices.is_wearable(r.tac);
  };
  const auto proxy_array = [&wearable_of](const trace::ProxyRecord& r) {
    return wearable_of(r) ? std::size_t{0} : std::size_t{1};
  };
  {
    std::vector<std::function<void()>> tasks;
    for (RowSlice& slice : proxy_slices) {
      tasks.push_back([&proxy, &slice, &wearable_of] {
        count_slice<true>(proxy, slice, wearable_of);
      });
    }
    for (RowSlice& slice : mme_slices) {
      tasks.push_back([&mme, &slice, &wearable_of] {
        count_slice<false>(mme, slice, wearable_of);
      });
    }
    pool.run(std::move(tasks));
  }

  // Phase 2 — merge, sequential over the slices: proxy slices first, then
  // MME slices, each in row order and each slice's users in their
  // first-appearance order.  That visits every user's first appearance in
  // stream order, so new users get dense ids in the order one sequential
  // scan of proxy-then-MME would discover them.  A user's rows of one
  // array are laid out slice after slice, so each (slice, user) cursor is
  // the user's base plus the rows of the earlier slices.
  // totals[user] = rows per array: wearable, phone, MME.
  std::vector<std::array<std::size_t, 3>> totals;
  const auto merge = [this, &totals](std::vector<RowSlice>& slices,
                                     std::size_t first, std::size_t arrays) {
    for (RowSlice& slice : slices) {
      slice.dense.resize(slice.ids.size());
      for (std::size_t l = 0; l < slice.ids.size(); ++l) {
        const auto [it, inserted] =
            user_index_.try_emplace(slice.ids[l], users_.size());
        if (inserted) {
          users_.emplace_back().user_id = slice.ids[l];
          totals.push_back({0, 0, 0});
        }
        const std::size_t u = it->second;
        slice.dense[l] = u;
        if (slice.wearable[l] != 0) users_[u].has_wearable = true;
        for (std::size_t a = 0; a < arrays; ++a) {
          const std::size_t n = slice.rows[l][a];
          slice.rows[l][a] = totals[u][first + a];
          totals[u][first + a] += n;
        }
      }
    }
  };
  merge(proxy_slices, 0, 2);
  merge(mme_slices, 2, 1);
  std::vector<std::array<std::size_t, 3>> base(users_.size());
  std::array<std::size_t, 3> end{0, 0, 0};
  for (std::size_t u = 0; u < users_.size(); ++u) {
    for (std::size_t a = 0; a < 3; ++a) {
      base[u][a] = end[a];
      end[a] += totals[u][a];
    }
  }
  wearable_rows_.resize(end[0]);
  phone_rows_.resize(end[1]);
  mme_rows_.resize(end[2]);
  for (std::size_t u = 0; u < users_.size(); ++u) {
    UserView& v = users_[u];
    v.wearable_rows = {wearable_rows_.data() + base[u][0], totals[u][0]};
    v.phone_rows = {phone_rows_.data() + base[u][1], totals[u][1]};
    v.mme_rows = {mme_rows_.data() + base[u][2], totals[u][2]};
  }
  const auto add_base = [&base](std::vector<RowSlice>& slices,
                                std::size_t first, std::size_t arrays) {
    for (RowSlice& slice : slices) {
      for (std::size_t l = 0; l < slice.ids.size(); ++l) {
        for (std::size_t a = 0; a < arrays; ++a)
          slice.rows[l][a] += base[slice.dense[l]][first + a];
      }
    }
  };
  add_base(proxy_slices, 0, 2);
  add_base(mme_slices, 2, 1);

  // Phase 3 — scatter.  Each task walks its slice again and writes every
  // row index to its user's cursor; the slices' ranges of each array are
  // disjoint, and within a slice rows land in row order, so every user's
  // rows stay time-sorted.
  {
    std::vector<std::function<void()>> tasks;
    for (RowSlice& slice : proxy_slices) {
      tasks.push_back([this, &proxy, &proxy_array, &slice] {
        for (std::size_t i = slice.lo; i < slice.hi; ++i) {
          const trace::ProxyRecord& r = proxy[i];
          auto& cursor = slice.rows[slice.local.find(r.user_id)->second];
          const std::size_t a = proxy_array(r);
          (a == 0 ? wearable_rows_ : phone_rows_)[cursor[a]++] =
              static_cast<std::uint32_t>(i);
        }
      });
    }
    for (RowSlice& slice : mme_slices) {
      tasks.push_back([this, &mme, &slice] {
        for (std::size_t j = slice.lo; j < slice.hi; ++j) {
          auto& cursor = slice.rows[slice.local.find(mme[j].user_id)->second];
          mme_rows_[cursor[0]++] = static_cast<std::uint32_t>(j);
        }
      });
    }
    pool.run(std::move(tasks));
  }
  proxy_slices.clear();
  mme_slices.clear();

  // Phase 4 — attribution + sessionization over contiguous user slices
  // cut by wearable transactions, the work this phase does per user (the
  // wearable owners come first in discovery order, so equal user counts
  // would leave one slice with nearly all of it).  Each slice writes only
  // its own users; the per-slice host cache is a pure memo over
  // classify_host, so a user's classes do not depend on their slice.
  pool.for_weighted_slices(
      users_.size(),
      [this](std::size_t i) { return users_[i].wearable_rows.size(); },
      [this](std::size_t lo, std::size_t hi, std::size_t) {
        HostClassCache cache(*signatures_, store_->hosts);
        for (std::size_t i = lo; i < hi; ++i) {
          UserView& u = users_[i];
          if (u.wearable_rows.empty()) continue;
          u.wearable_classes =
              attribute_user_stream(cache, store_->proxy, u.wearable_rows,
                                    options_.attribution_window_s);
          u.usages = sessionize_user(store_->proxy, u.wearable_rows,
                                     u.wearable_classes, options_.usage_gap_s);
        }
      });

  // Phase 5 — population partition (order-preserving, sequential).
  for (const UserView& u : users_) {
    (u.has_wearable ? wearable_users_ : other_users_).push_back(&u);
  }
}

const UserView* AnalysisContext::find_user(trace::UserId id) const {
  const auto it = user_index_.find(id);
  return it == user_index_.end() ? nullptr : &users_[it->second];
}

}  // namespace wearscope::core
