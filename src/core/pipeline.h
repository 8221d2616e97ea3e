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
  /// Additional clean→re-detect→re-solve passes after the first one
  /// (Sec. 5.5: one cleaning step can leave further solvable
  /// antipatterns, e.g. merged DS pairs lining up into fresh DW runs).
  /// 0 reproduces the paper's single-pass setting.
  size_t extra_clean_passes = 0;
  /// Worker threads for the parallel stages (dedup, parse+skeletonize,
  /// pattern mining, antipattern detection). 1 = the serial path; 0 =
  /// one thread per hardware thread. Results are byte-identical across
  /// every value — sharding keys (record ranges, user streams) and
  /// merge orders are deterministic, never wall-clock dependent.
  size_t num_threads = 1;
  /// Cap on per-record parse failures kept as diagnostics in
  /// PipelineStats (the failures are always *counted* in full).
  size_t max_parse_diagnostics = 32;
  /// Template fingerprint cache (parse avoidance): repeated statements
  /// skip the parser and have their facts rendered from cached template
  /// recipes. Outputs are byte-identical with the cache on or off — this
  /// is purely a performance escape hatch (`sqlog --no-parse-cache`).
  /// Ignored (treated as false) when the resolved detector set needs
  /// per-query ASTs (DetectorSet::AnyNeedsAst — legacy custom rules),
  /// because cache hits never build them.
  bool parse_cache = true;
  /// Streaming ingestion (Pipeline::RunStreaming): the raw log is never
  /// held in memory — records are read, deduplicated, and parsed in
  /// batches of `batch_size`, and the clean/removal logs are written
  /// incrementally. Peak memory is bounded by the batch plus the
  /// template/pattern state (and the kept ASTs, for a detector set that
  /// needs them), not the log size. Output is byte-identical to the
  /// in-memory path at any batch size and thread count, but the input
  /// must already be (timestamp, seq)-ordered and extra_clean_passes is
  /// unsupported (re-cleaning needs the clean log in memory).
  bool streaming = false;
  /// Records per streaming batch; larger batches parallelize better,
  /// smaller ones bound memory tighter.
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
/// solve → clean log + statistics. Prefer constructing through
/// PipelineBuilder, which validates options up front.
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

  /// Executes the workflow with bounded memory: reads the raw log from
  /// `input_path` twice (pass 1 dedups + parses in batches of
  /// options().batch_size, the same pass Run makes over its sorted log
  /// in one batch; pass 2 re-reads to solve + write), and emits the
  /// clean and removal logs straight to `clean_path`/`removal_path`.
  /// The output files and the returned statistics are byte-identical to
  /// Run() + LogIo::WriteFile of the same input at any batch size and
  /// thread count. The input file must be (timestamp, seq)-ordered and
  /// must not change between the passes. InvalidArgument, before any
  /// file is written, when an output path names the input or the other
  /// output, or when extra_clean_passes is set.
  Result<StreamingRunResult> RunStreaming(const std::string& input_path,
                                          const std::string& clean_path,
                                          const std::string& removal_path) const;

 private:
  PipelineOptions options_;
  const catalog::Schema* schema_ = nullptr;
};

/// Fluent, validating construction of a Pipeline:
///
///   auto pipeline = core::PipelineBuilder()
///                       .WithSchema(&schema)
///                       .NumThreads(0)          // all hardware threads
///                       .ExtraCleanPasses(1)
///                       .Build();               // Result<Pipeline>
///   if (!pipeline.ok()) { ... }
///   auto result = pipeline->Run(raw);
class PipelineBuilder {
 public:
  PipelineBuilder() = default;

  PipelineBuilder& WithSchema(const catalog::Schema* schema) {
    schema_ = schema;
    return *this;
  }
  PipelineBuilder& WithDedup(DedupOptions dedup) {
    options_.dedup = dedup;
    return *this;
  }
  PipelineBuilder& WithMiner(MinerOptions miner) {
    options_.miner = miner;
    return *this;
  }
  PipelineBuilder& WithDetector(DetectorOptions detector) {
    options_.detector = std::move(detector);
    return *this;
  }
  /// Selects the detectors to run by registry id, in evaluation order
  /// (empty = the paper's default set). Ids are validated by Build().
  PipelineBuilder& Detectors(std::vector<std::string> ids) {
    options_.detector.detector_ids = std::move(ids);
    return *this;
  }
  PipelineBuilder& WithSws(SwsOptions sws) {
    options_.sws = sws;
    return *this;
  }
  PipelineBuilder& NumThreads(size_t num_threads) {
    options_.num_threads = num_threads;
    return *this;
  }
  PipelineBuilder& ExtraCleanPasses(size_t passes) {
    options_.extra_clean_passes = passes;
    return *this;
  }
  PipelineBuilder& UseUserMetadata(bool use) {
    options_.use_user_metadata = use;
    return *this;
  }
  PipelineBuilder& MinePatterns(bool mine) {
    options_.mine_patterns = mine;
    return *this;
  }
  PipelineBuilder& MaxParseDiagnostics(size_t max) {
    options_.max_parse_diagnostics = max;
    return *this;
  }
  PipelineBuilder& ParseCache(bool enabled) {
    options_.parse_cache = enabled;
    return *this;
  }
  PipelineBuilder& Streaming(bool streaming) {
    options_.streaming = streaming;
    return *this;
  }
  PipelineBuilder& BatchSize(size_t batch_size) {
    options_.batch_size = batch_size;
    return *this;
  }
  PipelineBuilder& InputFormat(log::LogFormat format) {
    options_.input_format = format;
    return *this;
  }
  PipelineBuilder& OutputFormat(log::LogFormat format) {
    options_.output_format = format;
    return *this;
  }

  /// Validates the accumulated options and returns the configured
  /// Pipeline, or the first validation error.
  Result<Pipeline> Build() const;

 private:
  PipelineOptions options_;
  const catalog::Schema* schema_ = nullptr;
};

}  // namespace sqlog::core

#endif  // SQLOG_CORE_PIPELINE_H_
