// Fig. 2(c): top-10 pattern frequencies with full input (user/session
// metadata) versus reduced input (SQL + timestamps only). Paper: the
// frequencies barely move; the cleaned-log size differs by only 0.36%.

#include "bench_common.h"

int main() {
  using namespace sqlog;
  bench::Banner("Fig. 2(c) — with vs without user/session metadata",
                "paper Fig. 2(c) + Sec. 6.8: result sizes differ by ~0.36%");

  log::QueryLog raw = bench::GenerateStudyLog();

  core::PipelineResult with_meta = bench::RunStudyPipeline(raw);

  core::PipelineOptions reduced;
  reduced.use_user_metadata = false;
  core::PipelineResult without_meta = bench::RunStudyPipeline(raw, reduced);

  std::printf("%-6s %-16s %-16s\n", "rank", "freq (with FI)", "freq (without FI)");
  size_t top = std::min<size_t>(10, std::min(with_meta.patterns.size(),
                                             without_meta.patterns.size()));
  for (size_t i = 0; i < top; ++i) {
    std::printf("%-6zu %-16s %-16s\n", i + 1,
                bench::Thousands(with_meta.patterns[i].frequency).c_str(),
                bench::Thousands(without_meta.patterns[i].frequency).c_str());
  }

  double size_delta =
      100.0 *
      (static_cast<double>(with_meta.stats.final_size) -
       static_cast<double>(without_meta.stats.final_size)) /
      static_cast<double>(with_meta.stats.final_size);
  std::printf("\nclean-log size: with FI %s, without FI %s (delta %.2f%%; paper 0.36%%)\n",
              bench::Thousands(with_meta.stats.final_size).c_str(),
              bench::Thousands(without_meta.stats.final_size).c_str(), size_delta);
  std::printf("solvable-antipattern queries: with FI %s, without FI %s\n",
              bench::Thousands(with_meta.stats.QueriesOf("dw-stifle") +
                               with_meta.stats.QueriesOf("ds-stifle") +
                               with_meta.stats.QueriesOf("df-stifle"))
                  .c_str(),
              bench::Thousands(without_meta.stats.QueriesOf("dw-stifle") +
                               without_meta.stats.QueriesOf("ds-stifle") +
                               without_meta.stats.QueriesOf("df-stifle"))
                  .c_str());
  std::printf("\nShape check: top frequencies and cleaned sizes barely move without\n"
              "metadata, because instance members arrive back-to-back in time.\n");
  return 0;
}
