// Traffic report (cf. the SkyServer traffic reports [9]-[11] the paper
// builds on): session statistics, robot share, and what the robots are
// doing — before and after cleaning.

#include <cstdio>
#include <cstdlib>
#include <map>

#include "analysis/describe.h"
#include "analysis/sessions.h"
#include "catalog/schema.h"
#include "core/pipeline.h"
#include "log/generator.h"

namespace {

void Report(const char* label, const sqlog::core::ParsedLog& parsed) {
  auto sessions = sqlog::analysis::SegmentSessions(parsed);
  auto stats = sqlog::analysis::ComputeTrafficStats(sessions, parsed);
  std::printf("%s\n", label);
  std::printf("  sessions=%zu users=%zu  mean len=%.1f queries  mean dur=%.0fs  "
              "mean gap=%.1fs\n",
              stats.session_count, stats.user_count, stats.mean_session_length,
              stats.mean_session_duration_s, stats.mean_gap_s);
  std::printf("  robot sessions=%zu carrying %.1f%% of queries\n", stats.robot_sessions,
              100.0 * stats.robot_query_share);

  // What are the robots doing? Describe the dominant template of the
  // five biggest robot sessions.
  std::multimap<size_t, const sqlog::analysis::Session*, std::greater<size_t>> by_size;
  for (const auto& session : sessions) {
    if (sqlog::analysis::IsRobotSession(session, parsed)) {
      by_size.emplace(session.size(), &session);
    }
  }
  size_t shown = 0;
  for (const auto& [size, session] : by_size) {
    if (shown++ >= 5) break;
    const auto& sample = parsed.queries[session->query_indices.front()];
    std::printf("    robot session of %zu queries: %s\n", size,
                sqlog::analysis::DescribeTemplate(*sample.facts.shared).c_str());
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  size_t target = 40000;
  if (argc > 1) target = static_cast<size_t>(std::strtoull(argv[1], nullptr, 10));

  sqlog::log::GeneratorConfig config;
  config.target_statements = target;
  sqlog::log::QueryLog raw = sqlog::log::GenerateLog(config);

  sqlog::catalog::Schema schema = sqlog::catalog::MakeSkyServerSchema();
  sqlog::core::Pipeline pipeline;
  pipeline.SetSchema(&schema);
  auto run = pipeline.Run(raw);
  if (!run.ok()) {
    std::fprintf(stderr, "pipeline failed: %s\n", run.status().ToString().c_str());
    return 1;
  }
  sqlog::core::PipelineResult& result = *run;

  Report("RAW LOG", result.parsed);

  // A second run over the clean log parses it.
  auto cleaned = pipeline.Run(result.clean_log);
  if (!cleaned.ok()) {
    std::fprintf(stderr, "pipeline failed: %s\n", cleaned.status().ToString().c_str());
    return 1;
  }
  Report("CLEANED LOG", cleaned->parsed);

  std::printf("Cleaning collapses Stifle bot sessions into single statements, so the\n"
              "robot session count and mean session length drop while human sessions\n"
              "are untouched (the surviving robots are the SWS/spatial downloaders,\n"
              "which are patterns, not antipatterns).\n");
  return 0;
}
