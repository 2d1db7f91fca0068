#include "trace/anonymize.h"

#include <string>
#include <utility>
#include <vector>

#include "util/error.h"
#include "util/rng.h"
#include "util/strings.h"

namespace wearscope::trace {

UserId anonymize_user_id(UserId id, std::uint64_t key) {
  // Two rounds of splitmix64 keyed on both sides: cheap, stable, and with
  // no practical way back to the subscriber id without the key.
  return util::splitmix64(util::splitmix64(id ^ key) ^ (key * 0x9E3779B97F4A7C15ULL));
}

void anonymize(TraceStore& store, const AnonymizePolicy& policy) {
  util::require(policy.time_quantum_s >= 1,
                "anonymize: time_quantum_s must be >= 1");
  const auto quantize = [&](util::SimTime t) {
    return t - (t % policy.time_quantum_s);
  };

  // Hosts and paths are rewritten once per pool entry, then re-interned:
  // two hosts that coarsen to the same registrable domain share one id.
  ProxyPools rewritten;
  std::vector<std::uint32_t> host_id(store.hosts.size());
  std::vector<std::uint32_t> path_id(store.paths.size());
  for (std::uint32_t id = 0; id < store.hosts.size(); ++id)
    host_id[id] = rewritten.hosts.intern(
        policy.coarsen_hosts ? util::registrable_domain(store.hosts[id])
                             : store.hosts[id]);
  for (std::uint32_t id = 0; id < store.paths.size(); ++id)
    path_id[id] = rewritten.paths.intern(
        policy.drop_url_paths ? std::string() : store.paths[id]);
  static_cast<ProxyPools&>(store) = std::move(rewritten);
  for (ProxyRecord& r : store.proxy) {
    r.user_id = anonymize_user_id(r.user_id, policy.key);
    r.timestamp = quantize(r.timestamp);
    r.host_id = host_id[r.host_id];
    r.path_id = path_id[r.path_id];
  }
  for (MmeRecord& r : store.mme) {
    r.user_id = anonymize_user_id(r.user_id, policy.key);
    r.timestamp = quantize(r.timestamp);
  }
  // Quantization can reorder equal-timestamp records relative to the
  // (time, user) canonical order; restore it (and the canonical pools).
  store.sort_by_time();
}

}  // namespace wearscope::trace
