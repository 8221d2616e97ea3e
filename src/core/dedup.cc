#include "core/dedup.h"

#include <functional>
#include <unordered_map>
#include <vector>

#include "util/hash.h"

namespace sqlog::core {

namespace {

uint64_t DedupKeyHash(const DedupOptions& options, std::string_view user,
                      std::string_view statement) {
  if (options.key_hash_for_test) return options.key_hash_for_test(user, statement);
  std::hash<std::string_view> hash;
  return HashCombine(hash(user), hash(statement));
}

/// One (user, statement) chain. The hash only buckets: the full strings
/// at `first_pos` verify every match, so a hash collision between
/// distinct keys can never flag a non-duplicate.
struct LastSeen {
  size_t first_pos;      // sorted-log position of the first occurrence
  int64_t timestamp_ms;  // last occurrence in the chain
};

}  // namespace

log::QueryLog RemoveDuplicates(const log::QueryLog& input, const DedupOptions& options,
                               DedupStats* stats, util::ThreadPool* /*pool*/) {
  log::QueryLog sorted = input;
  sorted.SortByTime();
  const auto& records = sorted.records();

  log::QueryLog output;
  size_t removed = 0;
  std::unordered_map<uint64_t, std::vector<LastSeen>> last_seen;
  last_seen.reserve(records.size() * 2);
  for (size_t pos = 0; pos < records.size(); ++pos) {
    const log::LogRecord& record = records[pos];
    uint64_t key = DedupKeyHash(options, record.user, record.statement);
    std::vector<LastSeen>& bucket = last_seen[key];
    LastSeen* entry = nullptr;
    for (LastSeen& candidate : bucket) {
      const log::LogRecord& first = records[candidate.first_pos];
      if (first.user == record.user && first.statement == record.statement) {
        entry = &candidate;
        break;
      }
    }
    bool is_duplicate = false;
    if (entry != nullptr) {
      if (options.unrestricted) {
        is_duplicate = true;
      } else {
        is_duplicate = record.timestamp_ms - entry->timestamp_ms <= options.threshold_ms;
      }
      entry->timestamp_ms = record.timestamp_ms;
    } else {
      bucket.push_back(LastSeen{pos, record.timestamp_ms});
    }
    if (is_duplicate) {
      ++removed;
      continue;
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

size_t StreamingDeduper::KeyHash::operator()(const Key& key) const {
  return DedupKeyHash(*options, key.first, key.second);
}

StreamingDeduper::StreamingDeduper(const DedupOptions& options)
    : options_(options), last_seen_(0, KeyHash{&options_}) {}

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
