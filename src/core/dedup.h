#ifndef SQLOG_CORE_DEDUP_H_
#define SQLOG_CORE_DEDUP_H_

#include <cstdint>
#include <functional>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "log/arena.h"
#include "log/record.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace sqlog::core {

/// Options for the duplicate-removal step (paper Sec. 5.2).
struct DedupOptions {
  /// Two identical statements from the same user count as one when the
  /// later one arrives within this window of the previous occurrence.
  int64_t threshold_ms = 1000;
  /// When true, the window is unlimited ("non restricted" row of
  /// Table 4): every repeat of an identical statement is a duplicate.
  bool unrestricted = false;
  /// Test seam: overrides the (user, statement) key hash so collision
  /// handling can be exercised without crafting real hash collisions.
  /// Duplicate decisions must not change under any override — keys are
  /// always verified against the full stored strings.
  std::function<uint64_t(std::string_view user, std::string_view statement)>
      key_hash_for_test;
};

/// Outcome counters for the dedup step.
struct DedupStats {
  size_t input_count = 0;
  size_t removed_count = 0;
  size_t output_count = 0;
};

/// Removes duplicate statements: identical text, same user, within the
/// time threshold of the previous occurrence (chained — a burst of
/// reloads collapses to its first statement). The input is sorted by
/// time internally; the output preserves time order and is renumbered.
/// This is the reference the pipeline's StreamingDeduper is tested
/// against; `pool` is ignored (dedup is one serial scan).
log::QueryLog RemoveDuplicates(const log::QueryLog& input, const DedupOptions& options,
                               DedupStats* stats = nullptr,
                               util::ThreadPool* pool = nullptr);

/// Incremental duplicate detection, the dedup step of both pipeline
/// entry points: records are offered one at a time in (timestamp, seq)
/// order and classified against a last-seen map keyed by the full
/// (user, statement) pair. The map compares full key strings (copies
/// stored in an arena), so a hash collision can never flag a
/// non-duplicate. Fed the time-sorted record sequence, the decisions
/// are exactly RemoveDuplicates's.
///
/// Memory is O(distinct (user, statement) pairs) — independent of log
/// length for the duplicate-heavy workloads the paper targets.
class StreamingDeduper {
 public:
  explicit StreamingDeduper(const DedupOptions& options);
  // The map's hasher points at options_.
  StreamingDeduper(const StreamingDeduper&) = delete;
  StreamingDeduper& operator=(const StreamingDeduper&) = delete;

  /// Classifies `record` and updates the chain state (the duplicate
  /// window chains on the last occurrence, duplicate or not).
  bool IsDuplicate(const log::LogRecord& record);

  /// Distinct (user, statement) keys seen.
  size_t distinct_keys() const { return last_seen_.size(); }

  /// Records offered / flagged so far.
  uint64_t records_seen() const { return records_seen_; }
  uint64_t duplicates_seen() const { return duplicates_seen_; }

 private:
  using Key = std::pair<std::string_view, std::string_view>;  // (user, statement)
  struct KeyHash {
    const DedupOptions* options;
    size_t operator()(const Key& key) const;
  };

  DedupOptions options_ SQLOG_CONST_AFTER_INIT;
  log::StringArena arena_ SQLOG_SHARD_LOCAL;  // owns the stored keys' bytes
  /// Key → timestamp of the key's last occurrence.
  std::unordered_map<Key, int64_t, KeyHash> last_seen_ SQLOG_SHARD_LOCAL;
  uint64_t records_seen_ SQLOG_SHARD_LOCAL = 0;
  uint64_t duplicates_seen_ SQLOG_SHARD_LOCAL = 0;
};

}  // namespace sqlog::core

#endif  // SQLOG_CORE_DEDUP_H_
