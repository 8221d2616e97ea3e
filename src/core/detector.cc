#include "core/detector.h"

#include <utility>

#include "util/string_util.h"

namespace sqlog::core {

DetectorRegistry& DetectorRegistry::Global() {
  // Lazy function-local instance: the built-ins are registered on first
  // use instead of via static initializers, which a static-archive link
  // would silently drop together with their TU.
  static DetectorRegistry* registry = [] {
    auto* r = new DetectorRegistry();
    RegisterBuiltinDetectors(*r);
    return r;
  }();
  return *registry;
}

Status DetectorRegistry::Register(std::shared_ptr<const Detector> detector) {
  if (detector == nullptr) return Status::InvalidArgument("null detector");
  const DetectorInfo& info = detector->info();
  if (info.id.empty()) return Status::InvalidArgument("detector id must not be empty");
  if (info.display_name.empty()) {
    return Status::InvalidArgument(
        StrFormat("detector '%s' must declare a display name", info.id.c_str()));
  }
  if (by_id_.count(info.id) != 0) {
    return Status::AlreadyExists(
        StrFormat("detector id '%s' is already registered", info.id.c_str()));
  }
  by_id_.emplace(info.id, order_.size());
  order_.push_back(std::move(detector));
  return Status::OK();
}

std::shared_ptr<const Detector> DetectorRegistry::Find(const std::string& id) const {
  auto it = by_id_.find(id);
  if (it == by_id_.end()) return nullptr;
  return order_[it->second];
}

std::vector<std::string> DetectorRegistry::Ids() const {
  std::vector<std::string> ids;
  ids.reserve(order_.size());
  for (const auto& detector : order_) ids.push_back(detector->info().id);
  return ids;
}

const std::vector<std::string>& DefaultDetectorIds() {
  static const std::vector<std::string>* ids = new std::vector<std::string>{
      "dw-stifle", "ds-stifle", "df-stifle", "cth", "snc"};
  return *ids;
}

Result<std::shared_ptr<const DetectorSet>> DetectorSet::Resolve(
    const DetectorOptions& options) {
  if (!options.custom_rules.empty()) {
    return Status::InvalidArgument(
        "custom rules are not supported; register a Detector subclass with "
        "DetectorRegistry::Register and select it by id in detector_ids");
  }
  const std::vector<std::string>& ids =
      options.detector_ids.empty() ? DefaultDetectorIds() : options.detector_ids;
  auto set = std::make_shared<DetectorSet>();
  std::unordered_map<std::string, size_t> seen;
  DetectorRegistry& registry = DetectorRegistry::Global();
  for (const auto& id : ids) {
    if (!seen.emplace(id, set->detectors_.size()).second) {
      return Status::InvalidArgument(
          StrFormat("detector id '%s' listed twice", id.c_str()));
    }
    std::shared_ptr<const Detector> detector = registry.Find(id);
    if (detector == nullptr) {
      return Status::InvalidArgument(StrFormat("unknown detector id '%s'", id.c_str()));
    }
    set->detectors_.push_back(std::move(detector));
  }
  return std::shared_ptr<const DetectorSet>(std::move(set));
}

int DetectorSet::IndexOf(const std::string& id) const {
  for (size_t i = 0; i < detectors_.size(); ++i) {
    if (detectors_[i]->info().id == id) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace sqlog::core
