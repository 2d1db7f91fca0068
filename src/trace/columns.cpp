#include "trace/columns.h"

#include <functional>
#include <unordered_map>
#include <utility>

#include "par/task_pool.h"

namespace wearscope::trace {

namespace {

/// Runs `batch` on `pool` (or inline when pool is null): same helper
/// shape as the blocked decode, same any-thread-count determinism —
/// every task writes only columns it owns.
void run_batch(std::vector<std::function<void()>> batch,
               par::TaskPool* pool) {
  if (pool == nullptr) {
    for (std::function<void()>& task : batch) task();
    return;
  }
  pool->run(std::move(batch));
}

/// Dictionary-codes the rows' TACs in first-appearance order.
/// try_emplace, not emplace: libstdc++'s emplace builds (and frees) a
/// node before it looks the key up, one allocation per row.
template <typename Record>
void code_tacs(const std::vector<Record>& rows, std::vector<std::uint32_t>& ids,
               std::vector<Tac>& dict) {
  ids.resize(rows.size());
  std::unordered_map<Tac, std::uint32_t> index;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto next = static_cast<std::uint32_t>(dict.size());
    const auto [it, inserted] = index.try_emplace(rows[i].tac, next);
    if (inserted) dict.push_back(rows[i].tac);
    ids[i] = it->second;
  }
}

}  // namespace

void schedule_proxy_columns(const std::vector<ProxyRecord>& rows,
                            const StringPool& hosts, ProxyColumns& cols,
                            std::vector<std::function<void()>>& batch) {
  const std::size_t n = rows.size();
  // The hashing task first: it is the longest, so it starts first.
  batch.push_back([&rows, &cols] { code_tacs(rows, cols.tac_id, cols.tacs); });
  batch.push_back([&rows, &cols, n] {
    cols.timestamp.resize(n);
    cols.user_id.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      cols.timestamp[i] = rows[i].timestamp;
      cols.user_id[i] = rows[i].user_id;
    }
  });
  batch.push_back([&rows, &hosts, &cols, n] {
    cols.host_id.resize(n);
    for (std::size_t i = 0; i < n; ++i) cols.host_id[i] = rows[i].host_id;
    cols.hosts = hosts.strings();
  });
  batch.push_back([&rows, &cols, n] {
    cols.protocol.resize(n);
    cols.duration_ms.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      cols.protocol[i] = static_cast<std::uint8_t>(rows[i].protocol);
      cols.duration_ms[i] = rows[i].duration_ms;
    }
  });
  batch.push_back([&rows, &cols, n] {
    cols.bytes_up.resize(n);
    cols.bytes_down.resize(n);
    cols.bytes_total.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      cols.bytes_up[i] = rows[i].bytes_up;
      cols.bytes_down[i] = rows[i].bytes_down;
      cols.bytes_total[i] = rows[i].bytes_total();
    }
  });
}

void schedule_mme_columns(const std::vector<MmeRecord>& rows, MmeColumns& cols,
                          std::vector<std::function<void()>>& batch) {
  const std::size_t n = rows.size();
  batch.push_back([&rows, &cols] { code_tacs(rows, cols.tac_id, cols.tacs); });
  batch.push_back([&rows, &cols, n] {
    cols.timestamp.resize(n);
    cols.user_id.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      cols.timestamp[i] = rows[i].timestamp;
      cols.user_id[i] = rows[i].user_id;
    }
  });
  batch.push_back([&rows, &cols, n] {
    cols.event.resize(n);
    cols.sector_id.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      cols.event[i] = static_cast<std::uint8_t>(rows[i].event);
      cols.sector_id[i] = rows[i].sector_id;
    }
  });
}

ProxyColumns build_proxy_columns(const std::vector<ProxyRecord>& rows,
                                 const StringPool& hosts,
                                 par::TaskPool* pool) {
  ProxyColumns cols;
  std::vector<std::function<void()>> batch;
  schedule_proxy_columns(rows, hosts, cols, batch);
  run_batch(std::move(batch), pool);
  return cols;
}

MmeColumns build_mme_columns(const std::vector<MmeRecord>& rows,
                             par::TaskPool* pool) {
  MmeColumns cols;
  std::vector<std::function<void()>> batch;
  schedule_mme_columns(rows, cols, batch);
  run_batch(std::move(batch), pool);
  return cols;
}

}  // namespace wearscope::trace
