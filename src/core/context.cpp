#include "core/context.h"

#include <algorithm>
#include <cstddef>
#include <string>

#include "par/shard.h"
#include "par/task_pool.h"
#include "util/error.h"

namespace wearscope::core {

namespace {

/// One shard's private view of the grouping pass.  Shards are keyed by
/// par::shard_of(user_id), so every record of a user lands in exactly one
/// shard and the per-user vectors are built with no cross-shard writes.
struct UserShard {
  std::unordered_map<trace::UserId, std::size_t> index;
  std::vector<UserView> users;
  /// Global first-appearance position of each user (proxy record i -> i,
  /// mme record j -> proxy_count + j), index-aligned with `users`.  The
  /// merge sorts on it to reproduce the sequential discovery order.
  std::vector<std::size_t> first_pos;
};

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
  // The store's lookup indexes build lazily on first find_*; force them now
  // so concurrent analyses only ever read them.
  store.rebuild_indexes();

  knowledge_base_ =
      std::make_unique<appdb::AppCatalog>(options_.long_tail_apps);
  devices_ = std::make_unique<DeviceClassifier>(store.devices);
  signatures_ = std::make_unique<AppSignatureTable>(
      *knowledge_base_, options_.signature_coverage);

  par::TaskPool pool(static_cast<std::size_t>(options_.threads));
  const std::size_t shards = pool.threads();

  // Column views: the grouping pass below and the rewritten analysis
  // kernels stream these dense vectors instead of the row structs.
  store.build_columns(&pool);
  const trace::ProxyColumns& pcols = store.proxy_columns();
  const trace::MmeColumns& mcols = store.mme_columns();

  // Wearable classification per TAC-dictionary entry: one DeviceDB hash
  // lookup per distinct TAC instead of one per record.
  std::vector<std::uint8_t> proxy_wearable(pcols.tacs.size());
  for (std::size_t k = 0; k < pcols.tacs.size(); ++k)
    proxy_wearable[k] = devices_->is_wearable(pcols.tacs[k]) ? 1 : 0;
  std::vector<std::uint8_t> mme_wearable(mcols.tacs.size());
  for (std::size_t k = 0; k < mcols.tacs.size(); ++k)
    mme_wearable[k] = devices_->is_wearable(mcols.tacs[k]) ? 1 : 0;

  // Phase 1 — sharded per-user grouping.  Each shard scans the full
  // time-sorted streams and keeps only its users, so per-user vectors stay
  // time-sorted exactly as in the sequential single pass.  The scan reads
  // only the user_id and tac_id columns; record pointers are recovered by
  // row index.
  std::vector<UserShard> shard_state(shards);
  {
    std::vector<std::function<void()>> tasks;
    tasks.reserve(shards);
    for (std::size_t s = 0; s < shards; ++s) {
      tasks.push_back([&store, &pcols, &mcols, &proxy_wearable, &mme_wearable,
                       &shard_state, s, shards] {
        UserShard& shard = shard_state[s];
        const auto user_slot = [&shard](trace::UserId id,
                                        std::size_t pos) -> UserView& {
          const auto [it, inserted] = shard.index.emplace(id, shard.users.size());
          if (inserted) {
            shard.users.emplace_back();
            shard.users.back().user_id = id;
            shard.first_pos.push_back(pos);
          }
          return shard.users[it->second];
        };
        for (std::size_t i = 0; i < pcols.size(); ++i) {
          if (par::shard_of(pcols.user_id[i], shards) != s) continue;
          UserView& u = user_slot(pcols.user_id[i], i);
          if (proxy_wearable[pcols.tac_id[i]] != 0) {
            u.has_wearable = true;
            u.wearable_txns.push_back(&store.proxy[i]);
            u.wearable_rows.push_back(static_cast<std::uint32_t>(i));
          } else {
            u.phone_txns.push_back(&store.proxy[i]);
          }
        }
        for (std::size_t j = 0; j < mcols.size(); ++j) {
          if (par::shard_of(mcols.user_id[j], shards) != s) continue;
          UserView& u = user_slot(mcols.user_id[j], store.proxy.size() + j);
          u.mme.push_back(&store.mme[j]);
          if (mme_wearable[mcols.tac_id[j]] != 0) u.has_wearable = true;
        }
      });
    }
    pool.run(std::move(tasks));
  }

  // Phase 2 — ordered merge.  First-appearance positions are unique across
  // shards (each stream position belongs to one user, hence one shard), so
  // sorting on them reconstructs the order a single sequential scan would
  // have discovered the users in — for ANY shard count.
  struct MergeKey {
    std::size_t first_pos;
    std::size_t shard;
    std::size_t local;
  };
  std::vector<MergeKey> order;
  std::size_t total_users = 0;
  for (const UserShard& shard : shard_state) total_users += shard.users.size();
  order.reserve(total_users);
  for (std::size_t s = 0; s < shards; ++s) {
    for (std::size_t i = 0; i < shard_state[s].users.size(); ++i) {
      order.push_back(MergeKey{shard_state[s].first_pos[i], s, i});
    }
  }
  std::sort(order.begin(), order.end(),
            [](const MergeKey& a, const MergeKey& b) {
              return a.first_pos < b.first_pos;
            });
  users_.reserve(total_users);
  user_index_.reserve(total_users);
  for (const MergeKey& key : order) {
    user_index_.emplace(shard_state[key.shard].users[key.local].user_id,
                        users_.size());
    users_.push_back(std::move(shard_state[key.shard].users[key.local]));
  }
  shard_state.clear();

  // Phase 3 — attribution + sessionization over contiguous user slices.
  // Each slice writes only its own users; the per-slice host cache is a
  // pure memo over classify_host, so results match the uncached path.
  pool.for_slices(users_.size(),
                  [this](std::size_t lo, std::size_t hi, std::size_t) {
                    HostClassCache cache(*signatures_, store_->hosts);
                    for (std::size_t i = lo; i < hi; ++i) {
                      UserView& u = users_[i];
                      if (u.wearable_txns.empty()) continue;
                      u.wearable_classes = attribute_user_stream(
                          cache, u.wearable_txns,
                          options_.attribution_window_s);
                      u.usages = sessionize_user(u.wearable_txns,
                                                 u.wearable_classes,
                                                 options_.usage_gap_s);
                    }
                  });

  // Phase 4 — population partition (order-preserving, sequential).
  for (const UserView& u : users_) {
    (u.has_wearable ? wearable_users_ : other_users_).push_back(&u);
  }
}

const UserView* AnalysisContext::find_user(trace::UserId id) const {
  const auto it = user_index_.find(id);
  return it == user_index_.end() ? nullptr : &users_[it->second];
}

}  // namespace wearscope::core
