#include "core/statistics.h"

#include "util/string_util.h"

namespace sqlog::core {

namespace {

std::string Row(const char* label, uint64_t value, uint64_t base = 0) {
  std::string line = StrFormat("  %-42s %14s", label,
                               WithThousands(static_cast<long long>(value)).c_str());
  if (base > 0) {
    line += StrFormat("  (%.2f%%)",
                      100.0 * static_cast<double>(value) / static_cast<double>(base));
  }
  line += "\n";
  return line;
}

}  // namespace

uint64_t PipelineStats::DistinctOf(const std::string& id) const {
  for (const DetectorRow& row : detectors) {
    if (row.id == id) return row.distinct_count;
  }
  return 0;
}

uint64_t PipelineStats::QueriesOf(const std::string& id) const {
  for (const DetectorRow& row : detectors) {
    if (row.id == id) return row.query_count;
  }
  return 0;
}

std::string PipelineStats::ToTable() const {
  std::string out = "Results overview (cf. paper Table 5)\n";
  out += Row("Size of original query log", original_size);
  out += Row("Count of SELECT queries", select_count, original_size);
  out += Row("Non-SELECT statements", non_select_count, original_size);
  out += Row("Syntax errors", syntax_error_count, original_size);
  out += Row("Size after deleting duplicates", after_dedup_size, original_size);
  out += Row("Duplicates removed", duplicates_removed, original_size);
  out += Row("Final (clean) log size", final_size, original_size);
  out += Row("Removal log size", removal_size, original_size);
  out += Row("Count of patterns", pattern_count);
  out += Row("Maximal pattern frequency", max_pattern_frequency);
  for (const DetectorRow& row : detectors) {
    out += Row(StrFormat("Count of distinct %s", row.label.c_str()).c_str(),
               row.distinct_count);
    out += Row(StrFormat("Count of queries in all %s", row.label.c_str()).c_str(),
               row.query_count);
  }
  out += Row("Instances solved", solve.instances_solved);
  out += Row("Queries merged away by rewriting", solve.queries_merged);
  return out;
}

}  // namespace sqlog::core
