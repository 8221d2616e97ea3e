// Fig. 2(d): CTH candidates — frequency and user popularity by rank,
// split into real and false hunts. Paper: 28 of 50 candidates are real;
// real hunts concentrate at low user popularity (proprietary software),
// false ones spread over more users.

#include <algorithm>

#include "bench_common.h"

int main() {
  using namespace sqlog;
  bench::Banner("Fig. 2(d) — real vs false CTH candidates",
                "paper Fig. 2(d) + Sec. 6.6: 28/50 candidates are real");

  log::QueryLog raw = bench::GenerateStudyLog();
  core::PipelineResult result = bench::RunStudyPipeline(raw);

  // Ground truth per distinct candidate: majority vote over the member
  // queries' generator labels (substituting the paper's domain experts).
  struct Row {
    uint64_t instances;
    size_t users;
    bool real;
  };
  std::vector<Row> rows;
  const auto cth = static_cast<uint32_t>(result.antipatterns.detectors->IndexOf("cth"));
  for (const auto& d : result.antipatterns.distinct) {
    if (d.detector != cth) continue;
    size_t real_votes = 0;
    size_t false_votes = 0;
    for (const auto& instance : result.antipatterns.instances) {
      if (instance.detector != cth) continue;
      // Match instance to this distinct signature via its first query.
      if (result.parsed.queries[instance.query_indices.front()].template_id !=
          d.template_ids.front()) {
        continue;
      }
      for (size_t q : instance.query_indices) {
        size_t record = result.parsed.queries[q].record_index;
        switch (result.pre_clean.records()[record].truth) {
          case log::TruthLabel::kCthReal: ++real_votes; break;
          case log::TruthLabel::kCthFalse: ++false_votes; break;
          default: ++false_votes; break;  // organic coincidences are false
        }
      }
    }
    rows.push_back(Row{d.instance_count, d.user_popularity(), real_votes > false_votes});
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.instances > b.instances; });

  std::printf("%-6s %-12s %-14s %s\n", "rank", "frequency", "userPopularity", "verdict");
  size_t real_count = 0;
  double real_users = 0;
  double false_users = 0;
  size_t false_count = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    std::printf("%-6zu %-12s %-14zu %s\n", i + 1, bench::Thousands(rows[i].instances).c_str(),
                rows[i].users, rows[i].real ? "real CTH" : "false CTH");
    if (rows[i].real) {
      ++real_count;
      real_users += static_cast<double>(rows[i].users);
    } else {
      ++false_count;
      false_users += static_cast<double>(rows[i].users);
    }
  }
  std::printf("\ncandidates: %zu, real: %zu (%.0f%%; paper 28/50 = 56%%)\n", rows.size(),
              real_count,
              rows.empty() ? 0.0 : 100.0 * static_cast<double>(real_count) /
                                        static_cast<double>(rows.size()));
  if (real_count > 0 && false_count > 0) {
    std::printf("mean userPopularity: real %.1f vs false %.1f (paper: real hunts have\n"
                "lower user popularity)\n",
                real_users / static_cast<double>(real_count),
                false_users / static_cast<double>(false_count));
  }
  return 0;
}
