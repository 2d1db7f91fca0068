// Dense per-user state for the streaming counters.
//
// The streaming analyses and the live shards keep a few bytes of state per
// user (has this user been seen this day, on this sector, with this app).
// UserSlots keeps that state in one vector, one element per distinct user
// in first-sighting order, behind a flat open-addressing index: one probe
// per event resolves every per-user question, where a presence set per
// question would cost a node-based hash operation each.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "trace/records.h"

namespace wearscope::core {

/// User id -> `State`, value-initialized at the user's first sighting.
/// Linear probing over a power-of-two table kept at most half full; never
/// shrinks.
template <typename State>
class UserSlots {
 public:
  /// The state of `user`.  The reference is valid until the next call.
  State& operator[](trace::UserId user) {
    if ((states_.size() + 1) * 2 > table_.size()) grow();
    for (std::size_t i = home(user);; i = (i + 1) & mask_) {
      Entry& e = table_[i];
      if (e.slot == kEmpty) {
        e = Entry{user, static_cast<std::uint32_t>(states_.size())};
        return states_.emplace_back();
      }
      if (e.user == user) return states_[e.slot];
    }
  }

  /// Distinct users seen.
  [[nodiscard]] std::size_t size() const noexcept { return states_.size(); }

 private:
  static constexpr std::uint32_t kEmpty = 0xffffffffu;
  struct Entry {
    trace::UserId user = 0;
    std::uint32_t slot = kEmpty;
  };

  /// Fibonacci hashing on the top bits.  The router spreads users over
  /// shards by the low bits of a different mix, so a shard's ids share
  /// those bits; the top bits of this product do not.
  [[nodiscard]] std::size_t home(trace::UserId user) const noexcept {
    const std::uint64_t h = (user ^ (user >> 29)) * 0x9e3779b97f4a7c15ull;
    return static_cast<std::size_t>(h >> shift_);
  }

  void grow() {
    std::vector<Entry> old = std::move(table_);
    table_.assign(old.empty() ? 64 : old.size() * 2, Entry{});
    mask_ = table_.size() - 1;
    shift_ = 64;
    for (std::size_t n = table_.size(); n > 1; n >>= 1) --shift_;
    for (const Entry& e : old) {
      if (e.slot == kEmpty) continue;
      std::size_t i = home(e.user);
      while (table_[i].slot != kEmpty) i = (i + 1) & mask_;
      table_[i] = e;
    }
  }

  std::vector<Entry> table_;
  std::vector<State> states_;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
};

}  // namespace wearscope::core
