#ifndef SQLOG_CORE_PIPELINE_H_
#define SQLOG_CORE_PIPELINE_H_

#include <memory>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "core/antipattern.h"
#include "core/dedup.h"
#include "core/pattern_miner.h"
#include "core/solver.h"
#include "core/statistics.h"
#include "core/sws.h"
#include "core/template_store.h"
#include "log/log_io.h"
#include "log/record.h"
#include "util/status.h"

namespace sqlog::core {

/// End-to-end configuration for the Fig. 1 workflow.
struct PipelineOptions {
  DedupOptions dedup;
  MinerOptions miner;
  DetectorOptions detector;
  SwsOptions sws;
  /// When false, the user/session columns are ignored (all queries are
  /// attributed to one anonymous user) — the Sec. 6.8 reduced-input
  /// mode.
  bool use_user_metadata = true;
  /// When false, pattern mining and SWS detection are skipped (cheaper
  /// when only cleaning is needed).
  bool mine_patterns = true;
  /// Worker threads for the parallel stages (dedup, parse+skeletonize,
  /// pattern mining, antipattern detection). 1 = the serial path; 0 =
  /// one thread per hardware thread. Results are byte-identical across
  /// every value — sharding keys (record ranges, user streams) and
  /// merge orders are deterministic, never wall-clock dependent.
  size_t num_threads = 1;
  /// Cap on per-record parse failures kept as diagnostics in
  /// PipelineStats (the failures are always *counted* in full).
  size_t max_parse_diagnostics = 32;
  /// Parse cache (parse avoidance), keyed by each statement's normalized
  /// token key: repeated statements skip the parser and have their facts
  /// rendered from cached template recipes. Outputs are byte-identical
  /// with the cache on or off — this is purely a performance escape
  /// hatch (`sqlog --no-parse-cache`).
  /// Ignored (treated as false) when the resolved detector set needs
  /// per-query ASTs (DetectorSet::AnyNeedsAst — legacy custom rules),
  /// because cache hits never build them.
  bool parse_cache = true;
  /// Ignored: calling Pipeline::RunStreaming selects streaming, and Run
  /// and RunStreaming accept the same options. Kept so that code which
  /// still sets it compiles.
  bool streaming = false;
  /// Records per RunStreaming pass-1 batch; larger batches parallelize
  /// better, smaller ones hold fewer raw records at once.
  size_t batch_size = 4096;
  /// Format of RunStreaming's input (kAuto probes the file magic, so a
  /// renamed file still opens correctly). A binary `.sqb` input seeds
  /// the parse cache from its template dictionary before the first
  /// record: with stored recipes, ingestion runs with zero full parses.
  log::LogFormat input_format = log::LogFormat::kAuto;
  /// Format of RunStreaming's clean/removal outputs, resolved per path
  /// (kAuto: a ".sqb" extension means binary, anything else CSV).
  log::LogFormat output_format = log::LogFormat::kAuto;
};

/// Validates a PipelineOptions bundle; returns the first violation.
Status ValidatePipelineOptions(const PipelineOptions& options);

/// Everything the Fig. 1 workflow produces.
struct PipelineResult {
  log::QueryLog pre_clean;   // after duplicate removal
  TemplateStore templates;
  ParsedLog parsed;
  std::vector<Pattern> patterns;       // sorted by frequency
  AntipatternReport antipatterns;
  SwsReport sws;
  log::QueryLog clean_log;
  log::QueryLog removal_log;
  PipelineStats stats;

  /// True when the mined pattern at `pattern_index` is (part of) a
  /// detected antipattern — drives the before/after views of Fig. 2(a).
  /// With `solvable_only`, unsolvable CTH candidates do not count.
  bool PatternIsAntipattern(size_t pattern_index, bool solvable_only = false) const;
};

/// What Pipeline::RunStreaming returns: the analysis state (templates,
/// parsed log — ASTs released unless the detector set reads them —
/// patterns, reports) plus the overview statistics. The clean and
/// removal logs live on disk — the streaming path never materializes
/// them; stats.final_size / stats.removal_size carry their record counts.
struct StreamingRunResult {
  TemplateStore templates;
  ParsedLog parsed;
  std::vector<Pattern> patterns;  // sorted by frequency
  AntipatternReport antipatterns;
  SwsReport sws;
  PipelineStats stats;
};

/// Runs the full workflow of Fig. 1 over a raw log: delete duplicates →
/// parse statements → templates → patterns → detect antipatterns →
/// solve → clean log + statistics. Configure it with a PipelineOptions
/// and SetSchema; Run and RunStreaming validate the options and accept
/// the same ones:
///
///   core::PipelineOptions options;
///   options.num_threads = 0;  // all hardware threads
///   core::Pipeline pipeline(options);
///   pipeline.SetSchema(&schema);
///   auto result = pipeline.Run(raw);  // InvalidArgument on bad options
///
/// Re-cleaning (Sec. 5.5) is a second run over the first run's clean log,
/// in either mode: Run(result->clean_log), or RunStreaming with the first
/// run's clean output as its input.
class Pipeline {
 public:
  explicit Pipeline(PipelineOptions options = {}) : options_(std::move(options)) {}

  /// Attaches the schema catalog consulted by Def. 11's key-attribute
  /// axiom. Without one, the axiom is skipped.
  void SetSchema(const catalog::Schema* schema) { schema_ = schema; }

  const PipelineOptions& options() const { return options_; }

  /// Executes the workflow. The input log is not modified. Fails (never
  /// throws — the repo's Status/Result design rule) on invalid options;
  /// per-record parse failures do not fail the run, they are counted
  /// and sampled into PipelineStats::parse_diagnostics.
  Result<PipelineResult> Run(const log::QueryLog& raw_log) const;

  /// Executes the workflow file to file: reads the raw log from
  /// `input_path` twice (pass 1 dedups + parses in batches of
  /// options().batch_size, the same pass Run makes over its sorted log
  /// in one batch; pass 2 re-reads to solve + write), and emits the
  /// clean and removal logs straight to `clean_path`/`removal_path`.
  /// Neither the raw log nor the outputs are ever held in memory, but
  /// what pass 1 keeps grows with the log: the parsed facts of every
  /// surviving SELECT (and their ASTs, for a detector set that reads
  /// them) and the deduper's distinct (user, statement) keys.
  /// The output files and the returned statistics are byte-identical to
  /// Run() + LogIo::WriteFile of the same input at any batch size and
  /// thread count. The input file must be (timestamp, seq)-ordered and
  /// must not change between the passes. InvalidArgument, before any
  /// file is written, when an output path names the input or the other
  /// output.
  Result<StreamingRunResult> RunStreaming(const std::string& input_path,
                                          const std::string& clean_path,
                                          const std::string& removal_path) const;

 private:
  PipelineOptions options_;
  const catalog::Schema* schema_ = nullptr;
};

}  // namespace sqlog::core

#endif  // SQLOG_CORE_PIPELINE_H_
