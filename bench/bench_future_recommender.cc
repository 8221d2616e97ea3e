// Future-work experiment (paper Sec. 7): train a next-query recommender
// on the raw log versus the cleaned log and measure
//   (1) how often the raw-trained model recommends antipattern queries
//       (paper item 2: "queries suggested by a recommender system must
//        not contain antipatterns"),
//   (2) hit@k over human (organic) activity, where SWS "machine
//       downloads" inflate raw-log accuracy without helping anyone
//       (paper item 1).

#include <unordered_set>

#include "analysis/recommender.h"
#include "bench_common.h"

int main() {
  using namespace sqlog;
  bench::Banner("Future work (Sec. 7) — recommender trained on raw vs cleaned log",
                "paper Sec. 7 items 1-2 (proposed; numbers are this repo's)");

  log::QueryLog raw = bench::GenerateStudyLog();
  core::PipelineResult result = bench::RunStudyPipeline(raw);

  // Antipattern template fingerprints (from the raw run's detector).
  std::unordered_set<uint64_t> antipattern_fps;
  const core::DetectorSet& detector_set = *result.antipatterns.detectors;
  for (const auto& d : result.antipatterns.distinct) {
    if (!detector_set.info(d.detector).solvable) continue;
    for (uint64_t id : d.template_ids) {
      antipattern_fps.insert(result.templates.Get(id).facts->tmpl.fingerprint);
    }
  }

  // Parse the cleaned log into its own ParsedLog for training.
  core::TemplateStore clean_store;
  core::ParsedLog clean_parsed = core::ParseLog(result.clean_log, clean_store);

  analysis::Recommender raw_model;
  raw_model.Train(result.parsed);
  analysis::Recommender clean_model;
  clean_model.Train(clean_parsed);

  std::printf("training transitions: raw %s, cleaned %s\n\n",
              bench::Thousands(raw_model.transition_count()).c_str(),
              bench::Thousands(clean_model.transition_count()).c_str());

  // (1) antipattern recommendation rate, evaluated over the raw stream
  // (that is what a live system would see).
  double raw_rate = raw_model.FlaggedRecommendationRate(result.parsed, antipattern_fps);
  double clean_rate =
      clean_model.FlaggedRecommendationRate(result.parsed, antipattern_fps);
  std::printf("(1) share of top-1 recommendations that are antipattern templates:\n");
  std::printf("    trained on raw log:     %6.2f%%\n", 100.0 * raw_rate);
  std::printf("    trained on cleaned log: %6.2f%%\n", 100.0 * clean_rate);

  // (2) hit@3 over the cleaned stream (a proxy for human information
  // needs — machine downloads and antipattern chatter are gone).
  double raw_hits = raw_model.HitRate(clean_parsed, 3);
  double clean_hits = clean_model.HitRate(clean_parsed, 3);
  std::printf("\n(2) hit@3 over the cleaned (human-need) stream:\n");
  std::printf("    trained on raw log:     %6.2f%%\n", 100.0 * raw_hits);
  std::printf("    trained on cleaned log: %6.2f%%\n", 100.0 * clean_hits);

  std::printf("\nExpected: the cleaned-trained model recommends (near-)zero\n"
              "antipattern templates while matching or beating the raw-trained\n"
              "model on human-need transitions — the outcome the paper's future\n"
              "work anticipates.\n");
  return 0;
}
