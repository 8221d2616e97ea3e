// Table 5: results overview of the whole case study — log sizes at each
// stage and per-antipattern counts. Paper: 42.0M raw → 40.2M SELECT
// (95.9%) → 38.5M deduped (91.7%) → 30.5M final (72.5%); 1018 distinct
// DW / 6.3M queries, 6562 DS / 1.28M, 487 DF / 0.21M, 50 CTH candidates
// / 0.42M.

#include "bench_common.h"

int main() {
  using namespace sqlog;
  bench::Banner("Table 5 — results overview", "paper Table 5");

  log::QueryLog raw = bench::GenerateStudyLog();
  Timer timer;
  core::PipelineResult result = bench::RunStudyPipeline(raw);
  double seconds = timer.ElapsedSeconds();

  std::printf("%s\n", result.stats.ToTable().c_str());
  std::printf("pipeline wall time: %.2fs over %s statements (%.0f stmts/s)\n\n", seconds,
              bench::Thousands(raw.size()).c_str(),
              bench::SafeRate(static_cast<double>(raw.size()), seconds));

  double final_share = 100.0 * static_cast<double>(result.stats.final_size) /
                       static_cast<double>(result.stats.original_size);
  std::printf("Shape check vs paper:\n");
  std::printf("  SELECT share          measured %5.1f%%   paper 95.9%%\n",
              100.0 *
                  static_cast<double>(result.stats.select_count +
                                      result.stats.duplicates_removed) /
                  static_cast<double>(result.stats.original_size));
  std::printf("  post-dedup share      measured %5.1f%%   paper 91.7%%\n",
              100.0 * static_cast<double>(result.stats.after_dedup_size) /
                  static_cast<double>(result.stats.original_size));
  std::printf("  final (clean) share   measured %5.1f%%   paper 72.5%%\n", final_share);
  std::printf("  DW >> DS >> DF query counts: %s >> %s >> %s (paper 6.3M >> 1.3M >> 0.2M)\n",
              bench::Thousands(result.stats.QueriesOf("dw-stifle")).c_str(),
              bench::Thousands(result.stats.QueriesOf("ds-stifle")).c_str(),
              bench::Thousands(result.stats.QueriesOf("df-stifle")).c_str());
  return 0;
}
