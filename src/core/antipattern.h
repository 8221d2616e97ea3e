#ifndef SQLOG_CORE_ANTIPATTERN_H_
#define SQLOG_CORE_ANTIPATTERN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "catalog/schema.h"
#include "core/detector.h"
#include "core/rules.h"
#include "core/template_store.h"

namespace sqlog::core {

// AntipatternInstance and DetectorOptions live in core/detector.h
// together with the plugin interface; this header keeps the detection
// driver and the report types.

/// Aggregation of instances sharing a template signature — the unit the
/// paper's "count of distinct DW-Stifle" statistics and Table 6 use.
struct DistinctAntipattern {
  /// Index into the DetectorSet the report was produced with.
  uint32_t detector = 0;
  std::vector<uint64_t> template_ids;  // distinct templates, first-seen order
  uint64_t instance_count = 0;
  uint64_t query_count = 0;
  std::unordered_set<uint32_t> users;
  size_t sample_query = 0;  // a ParsedQuery index from some instance

  size_t user_popularity() const { return users.size(); }
};

/// Full detector output.
struct AntipatternReport {
  std::vector<AntipatternInstance> instances;
  std::vector<DistinctAntipattern> distinct;

  /// query index → index+1 of the instance containing it (0 = none).
  /// A query belongs to at most one instance (first-wins, Sec. 5.5).
  std::vector<uint32_t> instance_of_query;

  /// The detector set the report was produced with (DetectAntipatterns
  /// always sets it). Kept on the report so per-instance metadata
  /// lookups never dangle.
  std::shared_ptr<const DetectorSet> detectors;

  /// Per-detector counters by registry id ("dw-stifle", ...); 0 for a
  /// detector outside the report's set.
  uint64_t InstancesOf(const std::string& id) const;
  uint64_t QueriesOf(const std::string& id) const;
  uint64_t DistinctOf(const std::string& id) const;
};

/// Runs the resolved detector set over per-user gap-bounded segments.
/// `schema` may be null — schema-aware axioms are then skipped (as if
/// require_key_attribute were false; schema-aware detectors match
/// nothing).
///
/// With a non-null `pool`, scanning is sharded over contiguous user-id
/// ranges (every instance lives within one user's stream, Defs. 11-16)
/// and per-shard instance lists are concatenated in ascending shard
/// order — reproducing the serial emission order exactly, so the report
/// is byte-identical to the serial path.
AntipatternReport DetectAntipatterns(const ParsedLog& parsed, const TemplateStore& store,
                                     const catalog::Schema* schema,
                                     const DetectorOptions& options,
                                     std::shared_ptr<const DetectorSet> detectors,
                                     util::ThreadPool* pool = nullptr);

/// True when `query` can be a Stifle member (Def. 11 per-query axioms):
/// exactly one predicate, equality against a constant, conjunctive
/// WHERE, and (when enforced) a key filter column.
bool StifleEligible(const ParsedQuery& query, const catalog::Schema* schema,
                    bool require_key_attribute);

}  // namespace sqlog::core

#endif  // SQLOG_CORE_ANTIPATTERN_H_
