#ifndef SQLOG_CORE_STATISTICS_H_
#define SQLOG_CORE_STATISTICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/antipattern.h"
#include "core/dedup.h"
#include "core/solver.h"

namespace sqlog::core {

/// The pipeline's results-overview statistics — the direct analogue of
/// the paper's Table 5.
struct PipelineStats {
  uint64_t original_size = 0;        // raw statements in
  uint64_t select_count = 0;         // SELECTs surviving classification+parse
  uint64_t non_select_count = 0;
  uint64_t syntax_error_count = 0;
  uint64_t after_dedup_size = 0;     // statements after duplicate removal
  uint64_t duplicates_removed = 0;
  uint64_t final_size = 0;           // clean-log size
  uint64_t removal_size = 0;         // removal-log size

  uint64_t pattern_count = 0;        // distinct mined patterns
  uint64_t max_pattern_frequency = 0;

  /// One Table 5 row pair per detector of the run's set, in set order
  /// (the default set yields the paper's DW/DS/DF/CTH/SNC rows).
  struct DetectorRow {
    std::string id;     // registry id ("dw-stifle", ...)
    std::string label;  // the detector's display name
    uint64_t distinct_count = 0;
    uint64_t query_count = 0;
  };
  std::vector<DetectorRow> detectors;

  /// Row counters by registry id; 0 for a detector the run did not select.
  uint64_t DistinctOf(const std::string& id) const;
  uint64_t QueriesOf(const std::string& id) const;

  SolveStats solve;

  /// The first PipelineOptions::max_parse_diagnostics per-record parse
  /// failures, in record order — dropped statements are counted above
  /// (syntax_error_count) and sampled here instead of vanishing
  /// silently.
  std::vector<ParseDiagnostic> parse_diagnostics;

  /// Renders the Table 5-style overview.
  std::string ToTable() const;
};

}  // namespace sqlog::core

#endif  // SQLOG_CORE_STATISTICS_H_
