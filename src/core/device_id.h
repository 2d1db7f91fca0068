// SIM-enabled wearable identification (paper §3.2).
//
// Method, exactly as the authors describe: (1) prepare a curated list of
// SIM-enabled wearable device models available in the country, (2) resolve
// those models to IMEI TAC ranges through the Device database, (3) search
// for those TACs in the traffic logs of the other two vantage points.
//
// The curated model list lives HERE, in the analysis layer — the DeviceDB
// itself carries no wearable flag.
#pragma once

#include <algorithm>
#include <span>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "trace/records.h"

namespace wearscope::core {

/// Kind assigned to a device TAC by the classifier.
enum class DeviceKind : std::uint8_t {
  kSimWearable = 0,  ///< TAC of a model on the curated wearable list.
  kOther,            ///< Any other known device (phones, tablets, ...).
  kUnknown,          ///< TAC absent from the Device database.
};

/// The curated model list: (manufacturer, model) pairs of SIM-enabled
/// wearables sold in the country (the operator does not support the Apple
/// Watch 3, so the list is Samsung/LG/Huawei — §3.2).
struct WearableModelEntry {
  std::string_view manufacturer;
  std::string_view model;
};

/// Built-in curated list used by the study.
std::span<const WearableModelEntry> curated_wearable_models();

/// TAC-based device classifier built from a DeviceDB snapshot.
class DeviceClassifier {
 public:
  /// Builds the TAC sets by joining `devices` against the curated list.
  /// `models` defaults to curated_wearable_models().
  explicit DeviceClassifier(
      const std::vector<trace::DeviceRecord>& devices,
      std::span<const WearableModelEntry> models = curated_wearable_models());

  /// Ablation: a naive classifier that flags EVERY device of the listed
  /// manufacturers as a wearable (what you would get from manufacturer
  /// TAC-prefix ranges without a curated model list).  Massively
  /// over-matches: those vendors also sell the country's phones.
  static DeviceClassifier from_manufacturers(
      const std::vector<trace::DeviceRecord>& devices,
      std::span<const std::string_view> manufacturers);

  /// Classifies one TAC.
  [[nodiscard]] DeviceKind classify(trace::Tac tac) const;

  /// True when `tac` belongs to a curated wearable model.  The analyses
  /// and the live shards ask this once per record; the DeviceDB holds a
  /// handful of wearable TACs, so a binary search over them beats hashing.
  [[nodiscard]] bool is_wearable(trace::Tac tac) const {
    return std::binary_search(wearable_tacs_.begin(), wearable_tacs_.end(),
                              tac);
  }

  /// All wearable TACs found in the DeviceDB, sorted and unique.
  [[nodiscard]] const std::vector<trace::Tac>& wearable_tacs()
      const noexcept {
    return wearable_tacs_;
  }

 private:
  /// Sorts and dedups wearable_tacs_ once the rows are in.
  void finish_wearable_tacs();

  std::vector<trace::Tac> wearable_tacs_;
  std::unordered_set<trace::Tac> known_tacs_;
};

}  // namespace wearscope::core
