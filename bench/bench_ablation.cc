// Ablations for the detector design choices called out in DESIGN.md:
//   1. Def. 11 axiom 3 (filter column must be a key attribute) — what is
//      the false-positive cost of dropping it?
//   2. The instance cohesion gap (max_gap_ms).
//   3. The CTH support threshold.
// Precision/recall are measured against the generator's ground-truth
// labels, substituting the paper's domain experts.

#include "bench_common.h"

namespace {

using namespace sqlog;

struct PrecisionRecall {
  double precision;
  double recall;
  uint64_t claimed;
};

/// Stifle detection quality: a claimed query is a true positive when its
/// ground-truth label is one of the Stifle families (or a CTH-real
/// follow-up, which genuinely is a Stifle run too).
PrecisionRecall StifleQuality(const core::PipelineResult& result) {
  uint64_t claimed = 0;
  uint64_t true_positive = 0;
  uint64_t labelled = 0;
  for (size_t q = 0; q < result.parsed.queries.size(); ++q) {
    size_t record = result.parsed.queries[q].record_index;
    log::TruthLabel truth = result.pre_clean.records()[record].truth;
    bool is_stifle_truth = truth == log::TruthLabel::kDwStifle ||
                           truth == log::TruthLabel::kDsStifle ||
                           truth == log::TruthLabel::kDfStifle ||
                           truth == log::TruthLabel::kCthReal;
    if (is_stifle_truth) ++labelled;
    uint32_t instance_id = result.antipatterns.instance_of_query[q];
    if (instance_id == 0) continue;
    const auto& instance = result.antipatterns.instances[instance_id - 1];
    const core::DetectorInfo& info =
        result.antipatterns.detectors->info(instance.detector);
    if (!info.solvable || info.id == "snc") continue;
    ++claimed;
    if (is_stifle_truth) ++true_positive;
  }
  PrecisionRecall out{};
  out.claimed = claimed;
  out.precision = claimed == 0 ? 1.0
                               : static_cast<double>(true_positive) /
                                     static_cast<double>(claimed);
  out.recall = labelled == 0 ? 1.0
                             : static_cast<double>(true_positive) /
                                   static_cast<double>(labelled);
  return out;
}

}  // namespace

int main() {
  bench::Banner("Ablations — key-attribute axiom, cohesion gap, CTH support",
                "DESIGN.md decisions 1-4; paper Sec. 4.2.1 discusses axiom 3");

  log::QueryLog raw = bench::GenerateStudyLog();

  std::printf("(1) Def. 11 axiom 3 — require key attribute:\n");
  std::printf("    %-10s %10s %11s %9s\n", "key check", "claimed", "precision", "recall");
  for (bool require_key : {true, false}) {
    core::PipelineOptions options;
    options.detector.require_key_attribute = require_key;
    core::PipelineResult result = bench::RunStudyPipeline(raw, options);
    PrecisionRecall quality = StifleQuality(result);
    std::printf("    %-10s %10s %10.1f%% %8.1f%%\n", require_key ? "on" : "off",
                bench::Thousands(quality.claimed).c_str(), 100.0 * quality.precision,
                100.0 * quality.recall);
  }

  std::printf("\n(2) instance cohesion gap (max_gap_ms):\n");
  std::printf("    %-10s %10s %11s %9s\n", "gap", "claimed", "precision", "recall");
  for (int64_t gap_s : {10, 60, 600, 3600}) {
    core::PipelineOptions options;
    options.detector.max_gap_ms = gap_s * 1000;
    options.miner.max_gap_ms = gap_s * 1000;
    core::PipelineResult result = bench::RunStudyPipeline(raw, options);
    PrecisionRecall quality = StifleQuality(result);
    std::printf("    %-10s %10s %10.1f%% %8.1f%%\n",
                sqlog::StrFormat("%llds", (long long)gap_s).c_str(),
                bench::Thousands(quality.claimed).c_str(), 100.0 * quality.precision,
                100.0 * quality.recall);
  }

  std::printf("\n(3) CTH support threshold — distinct candidates kept:\n");
  std::printf("    %-10s %12s\n", "support", "candidates");
  for (uint64_t support : {1, 2, 3, 5, 10}) {
    core::PipelineOptions options;
    options.detector.cth_min_support = support;
    options.mine_patterns = false;  // cheaper; CTH detection is unaffected
    core::PipelineResult result = bench::RunStudyPipeline(raw, options);
    std::printf("    %-10llu %12s\n", (unsigned long long)support,
                bench::Thousands(result.stats.DistinctOf("cth")).c_str());
  }

  std::printf("\nExpected: dropping the key check inflates claims at lower precision;\n"
              "tiny gaps hurt recall (bot runs straddle the window), huge gaps admit\n"
              "unrelated queries; higher CTH support trims organic one-offs.\n");
  return 0;
}
