#include "core/dedup.h"

#include <functional>
#include <unordered_map>

#include "util/hash.h"

namespace sqlog::core {

namespace {

/// Hashes a (user, statement) key; the maps compare the full strings.
struct PairHash {
  size_t operator()(const std::pair<std::string_view, std::string_view>& key) const {
    std::hash<std::string_view> hash;
    return HashCombine(hash(key.first), hash(key.second));
  }
};

}  // namespace

log::QueryLog RemoveDuplicates(const log::QueryLog& input, const DedupOptions& options,
                               DedupStats* stats, util::ThreadPool* /*pool*/) {
  log::QueryLog sorted = input;
  sorted.SortByTime();
  const auto& records = sorted.records();

  log::QueryLog output;
  size_t removed = 0;
  // (user, statement) → timestamp of the key's last occurrence. The keys
  // view `sorted`'s strings, which outlive the map.
  std::unordered_map<std::pair<std::string_view, std::string_view>, int64_t, PairHash>
      last_seen;
  last_seen.reserve(records.size());
  for (const log::LogRecord& record : records) {
    auto [entry, inserted] =
        last_seen.try_emplace({record.user, record.statement}, record.timestamp_ms);
    if (!inserted) {
      const bool is_duplicate =
          options.unrestricted || record.timestamp_ms - entry->second <= options.threshold_ms;
      entry->second = record.timestamp_ms;
      if (is_duplicate) {
        ++removed;
        continue;
      }
    }
    output.Append(record);
  }
  output.Renumber();

  if (stats != nullptr) {
    stats->input_count = input.size();
    stats->removed_count = removed;
    stats->output_count = output.size();
  }
  return output;
}

size_t StreamingDeduper::KeyHash::operator()(const Key& key) const { return PairHash{}(key); }

bool StreamingDeduper::IsDuplicate(const log::LogRecord& record) {
  ++records_seen_;
  auto found = last_seen_.find(Key{record.user, record.statement});
  if (found == last_seen_.end()) {
    last_seen_.emplace(Key{arena_.Store(record.user), arena_.Store(record.statement)},
                       record.timestamp_ms);
    return false;
  }
  bool is_duplicate = options_.unrestricted ||
                      record.timestamp_ms - found->second <= options_.threshold_ms;
  found->second = record.timestamp_ms;
  if (is_duplicate) ++duplicates_seen_;
  return is_duplicate;
}

}  // namespace sqlog::core
