#ifndef SQLOG_CORE_PATTERN_MINER_H_
#define SQLOG_CORE_PATTERN_MINER_H_

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "core/template_store.h"

namespace sqlog::core {

/// Options for the pattern-mining step.
struct MinerOptions {
  /// Longest template sequence mined (Def. 7 patterns are sequences;
  /// the case study's interesting ones are short).
  size_t max_length = 4;
  /// Patterns below this instance count are dropped from the report.
  uint64_t min_support = 2;
  /// Two consecutive queries belong to the same pattern instance only
  /// when issued within this gap ("short time between them").
  int64_t max_gap_ms = 10 * 60 * 1000;
};

/// A mined pattern: a sequence of template ids plus statistics.
struct Pattern {
  std::vector<uint64_t> template_ids;
  uint64_t frequency = 0;                  // instance count (Def. 9)
  std::unordered_set<uint32_t> users;      // for userPopularity (Def. 10)
  size_t sample_query = 0;                 // a ParsedQuery index starting one instance

  size_t user_popularity() const { return users.size(); }
  size_t length() const { return template_ids.size(); }
  /// Total statements covered: frequency × length.
  uint64_t covered_statements() const { return frequency * template_ids.size(); }
};

/// Mines patterns from per-user streams. Length-1 pattern frequency is
/// the plain occurrence count of the template. Longer patterns are
/// counted over non-overlapping instances, and a longer pattern is
/// reported only when it is not a trivial self-repetition (e.g. (A,A) is
/// subsumed by (A)) — keeping the report aligned with the paper's
/// pattern tables while CTH detection still sees all pairs.
///
/// One serial, exact pass: every window is a 16-byte record, the records
/// are sorted so that equal template-id sequences are adjacent, and each
/// run is folded into one pattern. A pattern's `sample_query` starts its
/// first window in (user id, stream position) order. The order of the
/// returned vector is unspecified until SortByFrequency (a strict total
/// order) is applied, as the pipeline always does.
///
/// `pool` is unused: the serial sort is faster than the user-range
/// sharding it replaced. The parameter stays because callers outside
/// the library (`bench/suite/pipeline_child.cc`) still pass one.
std::vector<Pattern> MinePatterns(const ParsedLog& parsed, const MinerOptions& options,
                                  util::ThreadPool* pool = nullptr);

/// Sorts patterns by frequency (descending), tie-broken by length then
/// template ids, and returns the result (ranks of Sec. 6.5).
void SortByFrequency(std::vector<Pattern>& patterns);

}  // namespace sqlog::core

#endif  // SQLOG_CORE_PATTERN_MINER_H_
