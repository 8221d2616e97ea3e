#include "log/record.h"

#include <algorithm>
#include <unordered_set>

namespace sqlog::log {

const char* TruthLabelName(TruthLabel label) {
  switch (label) {
    case TruthLabel::kUnlabeled: return "unlabeled";
    case TruthLabel::kOrganic: return "organic";
    case TruthLabel::kDwStifle: return "dw_stifle";
    case TruthLabel::kDsStifle: return "ds_stifle";
    case TruthLabel::kDfStifle: return "df_stifle";
    case TruthLabel::kCthReal: return "cth_real";
    case TruthLabel::kCthFalse: return "cth_false";
    case TruthLabel::kSws: return "sws";
    case TruthLabel::kSnc: return "snc";
    case TruthLabel::kDuplicate: return "duplicate";
    case TruthLabel::kNoise: return "noise";
    case TruthLabel::kSelectStar: return "select_star";
    case TruthLabel::kNullFear: return "null_fear";
    case TruthLabel::kSpaghettiJoin: return "spaghetti_join";
    case TruthLabel::kNonSargable: return "non_sargable";
  }
  return "unlabeled";
}

TruthLabel ParseTruthLabel(std::string_view name) {
  static constexpr TruthLabel kAll[] = {
      TruthLabel::kUnlabeled, TruthLabel::kOrganic,  TruthLabel::kDwStifle,
      TruthLabel::kDsStifle,  TruthLabel::kDfStifle, TruthLabel::kCthReal,
      TruthLabel::kCthFalse,  TruthLabel::kSws,      TruthLabel::kSnc,
      TruthLabel::kDuplicate, TruthLabel::kNoise,    TruthLabel::kSelectStar,
      TruthLabel::kNullFear,  TruthLabel::kSpaghettiJoin,
      TruthLabel::kNonSargable,
  };
  for (TruthLabel label : kAll) {
    if (name == TruthLabelName(label)) return label;
  }
  return TruthLabel::kUnlabeled;
}

void QueryLog::SortByTime() {
  std::stable_sort(records_.begin(), records_.end(),
                   [](const LogRecord& a, const LogRecord& b) {
                     if (a.timestamp_ms != b.timestamp_ms) {
                       return a.timestamp_ms < b.timestamp_ms;
                     }
                     return a.seq < b.seq;
                   });
}

void QueryLog::Renumber() {
  for (size_t i = 0; i < records_.size(); ++i) {
    records_[i].seq = static_cast<uint64_t>(i);
  }
}

size_t QueryLog::DistinctUserCount() const {
  std::unordered_set<std::string> users;
  for (const auto& record : records_) {
    if (!record.user.empty()) users.insert(record.user);
  }
  return users.size();
}

}  // namespace sqlog::log
