#include "core/device_id.h"

#include <algorithm>
#include <array>

#include "util/strings.h"

namespace wearscope::core {

namespace {

/// The analyst-prepared list of SIM-enabled wearable models sold in the
/// country.  Deliberately written out by hand (not derived from appdb's
/// generator catalog): this mirrors how the authors compiled their list
/// from operator/vendor market data, and keeps the analysis honest.
constexpr std::array<WearableModelEntry, 7> kCuratedWearables = {{
    {"Samsung", "Gear S2 classic 3G"},
    {"Samsung", "Gear S3 frontier LTE"},
    {"Samsung", "Gear S 750"},
    {"LG", "Watch Urbane 2nd Edition LTE"},
    {"LG", "Watch Sport"},
    {"Huawei", "Watch 2 Pro LTE"},
    // Listed for completeness: not yet carried by this operator, so it
    // never appears in the DeviceDB (the Apple Watch 3 case of §3.2).
    {"Apple", "Watch Series 3 Cellular"},
}};

}  // namespace

std::span<const WearableModelEntry> curated_wearable_models() {
  return kCuratedWearables;
}

DeviceClassifier::DeviceClassifier(
    const std::vector<trace::DeviceRecord>& devices,
    std::span<const WearableModelEntry> models) {
  for (const trace::DeviceRecord& row : devices) {
    known_tacs_.insert(row.tac);
    for (const WearableModelEntry& entry : models) {
      if (util::to_lower(row.manufacturer) ==
              util::to_lower(entry.manufacturer) &&
          util::to_lower(row.model) == util::to_lower(entry.model)) {
        wearable_tacs_.push_back(row.tac);
        break;
      }
    }
  }
  finish_wearable_tacs();
}

DeviceClassifier DeviceClassifier::from_manufacturers(
    const std::vector<trace::DeviceRecord>& devices,
    std::span<const std::string_view> manufacturers) {
  DeviceClassifier c(devices, {});
  for (const trace::DeviceRecord& row : devices) {
    for (const std::string_view m : manufacturers) {
      if (util::to_lower(row.manufacturer) == util::to_lower(m)) {
        c.wearable_tacs_.push_back(row.tac);
        break;
      }
    }
  }
  c.finish_wearable_tacs();
  return c;
}

void DeviceClassifier::finish_wearable_tacs() {
  std::sort(wearable_tacs_.begin(), wearable_tacs_.end());
  wearable_tacs_.erase(
      std::unique(wearable_tacs_.begin(), wearable_tacs_.end()),
      wearable_tacs_.end());
}

DeviceKind DeviceClassifier::classify(trace::Tac tac) const {
  if (is_wearable(tac)) return DeviceKind::kSimWearable;
  if (known_tacs_.contains(tac)) return DeviceKind::kOther;
  return DeviceKind::kUnknown;
}

}  // namespace wearscope::core
