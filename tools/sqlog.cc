// sqlog — the operator command-line tool. Wraps the library end to end:
//
//   sqlog generate <n> <out.csv>            synthesize a SkyServer-style log
//   sqlog convert <in> <out>                convert between CSV and binary .sqb
//   sqlog clean <in> <out-prefix>           run the full pipeline, write
//                                           <prefix>.clean/.removal in csv or
//                                           sqb (--out-format)
//   sqlog stats <in>                        Table 5-style overview
//   sqlog patterns <in.csv> [k]             top-k patterns with descriptions
//   sqlog antipatterns <in.csv> [k]         top-k distinct antipatterns
//   sqlog report <in.csv>                   per-detector hits, template-clustered
//   sqlog cluster <in.csv> [threshold]      Sec. 6.9 clustering summary
//   sqlog recommend <in.csv> <sql...>       next-query suggestions
//
// The command list above, the Usage() text, and the main() dispatch are
// all generated from the single kCommands table at the bottom.

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <system_error>

#include "sqlog.h"

#include "analysis/clustering.h"
#include "analysis/describe.h"
#include "analysis/recommender.h"
#include "log/binlog.h"

namespace {

using namespace sqlog;

// Usage() and main() render/dispatch the kCommands table below; the
// command handlers only need the forward declaration.
int Usage();

/// Parses the whole of a numeric argument (`what` names it in the error)
/// or exits 2: trailing bytes, a sign on an unsigned value, and overflow
/// are all usage errors, never a silently truncated number.
template <typename T>
T ParseNumberOrExit(const char* what, const char* text) {
  T value{};
  const char* end = text + std::strlen(text);
  auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end) {
    std::fprintf(stderr, "error: %s must be a number, got '%s'\n", what, text);
    std::exit(2);
  }
  return value;
}

/// --streaming / --batch-size=<n> / --no-parse-cache / --format=<f>,
/// stripped from the argument list by ParseStreamFlags (remaining
/// positional args shift down). Returns the new argc, or -1 after
/// printing an error for a malformed flag value.
struct StreamFlags {
  bool streaming = false;
  size_t batch_size = 4096;
  bool parse_cache = true;
  /// Input format; auto probes for the `.sqb` magic.
  log::LogFormat format = log::LogFormat::kAuto;
  /// Output format for `clean` (csv or sqb); picks the file extensions.
  log::LogFormat out_format = log::LogFormat::kCsv;
};

int ParseStreamFlags(int argc, char** argv, StreamFlags* flags) {
  int kept = 0;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--streaming") == 0) {
      flags->streaming = true;
      continue;
    }
    if (std::strncmp(argv[i], "--batch-size=", 13) == 0) {
      flags->batch_size = ParseNumberOrExit<size_t>("--batch-size", argv[i] + 13);
      flags->streaming = true;
      continue;
    }
    if (std::strcmp(argv[i], "--no-parse-cache") == 0) {
      flags->parse_cache = false;
      continue;
    }
    if (std::strncmp(argv[i], "--format=", 9) == 0) {
      auto format = log::ParseLogFormatName(argv[i] + 9);
      if (!format.ok()) {
        std::fprintf(stderr, "error: %s\n", format.status().ToString().c_str());
        return -1;
      }
      flags->format = *format;
      continue;
    }
    if (std::strncmp(argv[i], "--out-format=", 13) == 0) {
      auto format = log::ParseLogFormatName(argv[i] + 13);
      if (!format.ok() || *format == log::LogFormat::kAuto) {
        std::fprintf(stderr, "error: --out-format must be csv or sqb\n");
        return -1;
      }
      flags->out_format = *format;
      continue;
    }
    argv[kept++] = argv[i];
  }
  return kept;
}

/// Parse-avoidance effectiveness, printed after the overview table. The
/// hit/miss split depends on thread sharding, so this never goes into
/// the golden-compared table itself.
void PrintParseCacheReport(const core::ParseStats& ps) {
  if (ps.cache_hits + ps.cache_misses + ps.uncacheable_hits + ps.failure_hits == 0) {
    return;  // cache disabled (or nothing was parsed through it)
  }
  uint64_t keyed = ps.cache_hits + ps.cache_misses + ps.uncacheable_hits + ps.failure_hits;
  double hit_rate = keyed == 0 ? 0.0 : 100.0 * (double)ps.parses_avoided() / (double)keyed;
  std::printf(
      "parse cache: %llu templates (%.1f KiB), %llu hits / %llu misses, "
      "%llu parses avoided (%.1f%% of looked-up statements)\n",
      (unsigned long long)ps.templates_cached, ps.cache_bytes / 1024.0,
      (unsigned long long)(ps.cache_hits + ps.failure_hits),
      (unsigned long long)ps.cache_misses, (unsigned long long)ps.parses_avoided(),
      hit_rate);
}

Result<log::QueryLog> Load(const char* path,
                           log::LogFormat format = log::LogFormat::kAuto) {
  return log::LogIo::ReadFile(path, format);
}

/// The schema catalog every CLI run consults (Def. 11's key axiom).
const catalog::Schema* CliSchema() {
  static const catalog::Schema schema = catalog::MakeSkyServerSchema();
  return &schema;
}

/// The CLI's pipeline: every core, Def. 11 checked against the SkyServer
/// schema, the stream flags and the detector selection (empty = the
/// paper's default set).
core::Pipeline MakePipeline(const StreamFlags& flags = {},
                            std::vector<std::string> detector_ids = {}) {
  core::PipelineOptions options;
  options.num_threads = 0;  // CLI batch work: use every core
  options.parse_cache = flags.parse_cache;
  options.batch_size = flags.batch_size;
  options.input_format = flags.format;
  options.output_format = flags.out_format;
  options.detector.detector_ids = std::move(detector_ids);
  core::Pipeline pipeline(std::move(options));
  pipeline.SetSchema(CliSchema());
  return pipeline;
}

int CmdGenerate(int argc, char** argv) {
  if (argc < 2) return Usage();
  log::GeneratorConfig config;
  config.target_statements = ParseNumberOrExit<size_t>("<n>", argv[0]);
  log::QueryLog log = log::GenerateLog(config);
  Status s = log::LogIo::WriteFile(log, argv[1]);
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s (%zu records, %zu users)\n", argv[1], log.size(),
              log.DistinctUserCount());
  return 0;
}

/// `sqlog convert`: re-encodes a log between CSV and the binary `.sqb`
/// container. The direction comes from --to-csv/--to-sqb or, absent
/// both, the output extension; the input format is probed. A CSV →
/// `.sqb` → CSV round trip is byte-identical, and `.sqb` → `.sqb`
/// re-encodes from the input's template shapes without lexing, writing
/// the bytes the CSV → `.sqb` conversion writes.
int CmdConvert(int argc, char** argv) {
  log::LogFormat target = log::LogFormat::kAuto;
  int kept = 0;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--to-csv") == 0) {
      target = log::LogFormat::kCsv;
      continue;
    }
    if (std::strcmp(argv[i], "--to-sqb") == 0) {
      target = log::LogFormat::kSqb;
      continue;
    }
    argv[kept++] = argv[i];
  }
  argc = kept;
  if (argc < 2) return Usage();
  const std::string in_path = argv[0];
  const std::string out_path = argv[1];
  target = log::ResolveWriteFormat(target, out_path);
  Status distinct = log::RequireDistinctFiles({{"input", in_path}, {"output", out_path}});
  if (!distinct.ok()) {
    std::fprintf(stderr, "error: %s\n", distinct.ToString().c_str());
    return 1;
  }

  auto reader = log::LogIo::OpenLogReader(in_path);
  if (!reader.ok()) {
    std::fprintf(stderr, "error: %s\n", reader.status().ToString().c_str());
    return 1;
  }
  const auto* bin = dynamic_cast<const log::BinLogReader*>(reader->get());
  auto copy_all = [&](log::RecordWriter& writer) -> Status {
    SQLOG_RETURN_IF_ERROR(writer.Open(out_path));
    log::LogRecord record;
    bool eof = false;
    while (true) {
      SQLOG_RETURN_IF_ERROR((*reader)->ReadRecord(&record, &eof));
      if (eof) break;
      SQLOG_RETURN_IF_ERROR(
          writer.AppendShaped(record, bin != nullptr ? bin->last_shape() : nullptr));
    }
    return writer.Close();
  };

  if (target == log::LogFormat::kSqb) {
    log::BinLogWriterOptions options;
    // Recipes make the file self-describing: re-ingestion seeds the
    // parse cache from the dictionary and runs with zero full parses.
    options.recipe_builder = core::BuildStatementRecipe;
    log::BinLogWriter writer(options);
    writer.SetSource(bin);
    Status s = copy_all(writer);
    if (!s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s (%llu records, %llu templates, %llu stored verbatim, "
                "%llu re-encoded without lexing)\n",
                out_path.c_str(), (unsigned long long)writer.records_written(),
                (unsigned long long)writer.dictionary_size(),
                (unsigned long long)writer.verbatim_records(),
                (unsigned long long)writer.shaped_records());
  } else {
    log::LogWriter writer;
    Status s = copy_all(writer);
    if (!s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s (%llu records)\n", out_path.c_str(),
                (unsigned long long)writer.records_written());
  }
  return 0;
}

int CmdClean(int argc, char** argv) {
  StreamFlags flags;
  argc = ParseStreamFlags(argc, argv, &flags);
  if (argc < 0) return 2;
  if (argc < 2) return Usage();
  const bool sqb_out = flags.out_format == log::LogFormat::kSqb;
  const std::string prefix = argv[1];
  const std::string clean_path = prefix + (sqb_out ? ".clean.sqb" : ".clean.csv");
  const std::string removal_path = prefix + (sqb_out ? ".removal.sqb" : ".removal.csv");
  // An output named like the input would truncate it on open.
  Status distinct = log::RequireDistinctFiles(
      {{"input", argv[0]}, {"clean output", clean_path}, {"removal output", removal_path}});
  if (!distinct.ok()) {
    std::fprintf(stderr, "error: %s\n", distinct.ToString().c_str());
    return 1;
  }
  if (flags.streaming) {
    auto run = MakePipeline(flags).RunStreaming(argv[0], clean_path, removal_path);
    if (!run.ok()) {
      std::fprintf(stderr, "error: %s\n", run.status().ToString().c_str());
      return 1;
    }
    std::printf("%s\n", run->stats.ToTable().c_str());
    PrintParseCacheReport(run->parsed.parse_stats);
    std::printf("wrote %s (%llu records)\n", clean_path.c_str(),
                (unsigned long long)run->stats.final_size);
    std::printf("wrote %s (%llu records)\n", removal_path.c_str(),
                (unsigned long long)run->stats.removal_size);
    return 0;
  }
  auto raw = Load(argv[0], flags.format);
  if (!raw.ok()) {
    std::fprintf(stderr, "error: %s\n", raw.status().ToString().c_str());
    return 1;
  }
  auto run = MakePipeline(flags).Run(*raw);
  if (!run.ok()) {
    std::fprintf(stderr, "error: %s\n", run.status().ToString().c_str());
    return 1;
  }
  core::PipelineResult& result = *run;
  std::printf("%s\n", result.stats.ToTable().c_str());
  PrintParseCacheReport(result.parsed.parse_stats);
  for (const auto& [path, log] :
       {std::pair<const std::string*, const log::QueryLog*>{&clean_path, &result.clean_log},
        std::pair<const std::string*, const log::QueryLog*>{&removal_path,
                                                            &result.removal_log}}) {
    Status s = log::LogIo::WriteFile(*log, *path, flags.out_format,
                                     sqb_out ? core::BuildStatementRecipe : nullptr);
    if (!s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s (%zu records)\n", path->c_str(), log->size());
  }
  return 0;
}

int CmdStats(int argc, char** argv) {
  StreamFlags flags;
  argc = ParseStreamFlags(argc, argv, &flags);
  if (argc < 0) return 2;
  if (argc < 1) return Usage();
  if (flags.streaming) {
    // stats has no output files of its own; the streaming pass still
    // writes the clean/removal logs, so put them in a fresh private
    // directory and remove it afterwards.
    std::error_code ec;
    std::string dir =
        (std::filesystem::temp_directory_path(ec) / "sqlog-stats-XXXXXX").string();
    if (ec || mkdtemp(dir.data()) == nullptr) {
      std::fprintf(stderr, "error: cannot create a temporary directory: %s\n",
                   ec ? ec.message().c_str() : std::strerror(errno));
      return 1;
    }
    auto run = MakePipeline(flags).RunStreaming(argv[0], dir + "/clean.csv",
                                                dir + "/removal.csv");
    std::filesystem::remove_all(dir, ec);
    if (!run.ok()) {
      std::fprintf(stderr, "error: %s\n", run.status().ToString().c_str());
      return 1;
    }
    std::printf("%s", run->stats.ToTable().c_str());
    PrintParseCacheReport(run->parsed.parse_stats);
    return 0;
  }
  auto raw = Load(argv[0], flags.format);
  if (!raw.ok()) {
    std::fprintf(stderr, "error: %s\n", raw.status().ToString().c_str());
    return 1;
  }
  auto run = MakePipeline(flags).Run(*raw);
  if (!run.ok()) {
    std::fprintf(stderr, "error: %s\n", run.status().ToString().c_str());
    return 1;
  }
  core::PipelineResult& result = *run;
  std::printf("%s", result.stats.ToTable().c_str());
  PrintParseCacheReport(result.parsed.parse_stats);
  return 0;
}

int CmdPatterns(int argc, char** argv) {
  if (argc < 1) return Usage();
  size_t k = argc > 1 ? ParseNumberOrExit<size_t>("[k]", argv[1]) : 15;
  auto raw = Load(argv[0]);
  if (!raw.ok()) {
    std::fprintf(stderr, "error: %s\n", raw.status().ToString().c_str());
    return 1;
  }
  auto run = MakePipeline().Run(*raw);
  if (!run.ok()) {
    std::fprintf(stderr, "error: %s\n", run.status().ToString().c_str());
    return 1;
  }
  core::PipelineResult& result = *run;
  std::printf("%-4s %-10s %-6s %-4s %s\n", "#", "freq", "users", "AP?", "description");
  for (size_t i = 0; i < result.patterns.size() && i < k; ++i) {
    const auto& pattern = result.patterns[i];
    const auto& info = result.templates.Get(pattern.template_ids[0]);
    const auto& sample = result.parsed.queries[info.first_query];
    std::printf("%-4zu %-10llu %-6zu %-4s %s\n", i + 1,
                (unsigned long long)pattern.frequency, pattern.user_popularity(),
                result.PatternIsAntipattern(i) ? "yes" : "",
                analysis::DescribeTemplate(*sample.facts.shared).c_str());
  }
  return 0;
}

int CmdAntipatterns(int argc, char** argv) {
  if (argc < 1) return Usage();
  size_t k = argc > 1 ? ParseNumberOrExit<size_t>("[k]", argv[1]) : 15;
  auto raw = Load(argv[0]);
  if (!raw.ok()) {
    std::fprintf(stderr, "error: %s\n", raw.status().ToString().c_str());
    return 1;
  }
  auto run = MakePipeline().Run(*raw);
  if (!run.ok()) {
    std::fprintf(stderr, "error: %s\n", run.status().ToString().c_str());
    return 1;
  }
  core::PipelineResult& result = *run;
  auto distinct = result.antipatterns.distinct;
  std::sort(distinct.begin(), distinct.end(),
            [](const auto& a, const auto& b) { return a.query_count > b.query_count; });
  std::printf("%-4s %-12s %-10s %-6s %s\n", "#", "detector", "queries", "users",
              "skeleton");
  const core::DetectorSet& set = *result.antipatterns.detectors;
  for (size_t i = 0; i < distinct.size() && i < k; ++i) {
    const auto& d = distinct[i];
    const auto& tmpl = result.templates.Get(d.template_ids[0]).facts->tmpl;
    std::printf("%-4zu %-12s %-10llu %-6zu %.80s\n", i + 1,
                set.info(d.detector).display_name.c_str(),
                (unsigned long long)d.query_count, d.user_popularity(),
                (tmpl.ssc + " " + tmpl.swc).c_str());
  }
  return 0;
}

/// `sqlog report`: runs the full registered detector catalog (or the
/// --detectors=<id,...> subset) and prints, per detector, its distinct
/// hit groups bucketed by template cluster — the Sec. 6.9 data-space
/// clustering applied to detector output, so one robot that tripped a
/// detector under many templates reads as one cluster.
int CmdReport(int argc, char** argv) {
  StreamFlags flags;
  argc = ParseStreamFlags(argc, argv, &flags);
  if (argc < 0) return 2;
  std::vector<std::string> ids = core::DetectorRegistry::Global().Ids();
  int kept = 0;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--detectors=", 12) == 0) {
      ids.clear();
      std::string list = argv[i] + 12;
      size_t start = 0;
      while (start < list.size()) {
        size_t comma = list.find(',', start);
        if (comma == std::string::npos) comma = list.size();
        if (comma > start) ids.push_back(list.substr(start, comma - start));
        start = comma + 1;
      }
      continue;
    }
    argv[kept++] = argv[i];
  }
  argc = kept;
  if (argc < 1) return Usage();

  auto raw = Load(argv[0], flags.format);
  if (!raw.ok()) {
    std::fprintf(stderr, "error: %s\n", raw.status().ToString().c_str());
    return 1;
  }
  auto run = MakePipeline(flags, std::move(ids)).Run(*raw);
  if (!run.ok()) {
    std::fprintf(stderr, "error: %s\n", run.status().ToString().c_str());
    return 1;
  }
  const core::PipelineResult& result = *run;
  const core::AntipatternReport& report = result.antipatterns;
  const core::DetectorSet& set = *report.detectors;

  for (size_t d = 0; d < set.size(); ++d) {
    const core::DetectorInfo& info = set.info(d);
    std::vector<const core::DistinctAntipattern*> groups;
    for (const auto& group : report.distinct) {
      if (group.detector == d) groups.push_back(&group);
    }
    std::printf("== %s (%s): %zu distinct, %llu queries\n", info.display_name.c_str(),
                info.id.c_str(), groups.size(),
                (unsigned long long)report.QueriesOf(info.id));
    if (!info.description.empty()) std::printf("   %s\n", info.description.c_str());
    if (groups.empty()) continue;

    std::vector<analysis::DataSpace> spaces;
    for (const auto* group : groups) {
      spaces.push_back(
          analysis::ExtractDataSpace(result.parsed.queries[group->sample_query].facts));
    }
    auto clusters = analysis::ClusterDataSpaces(spaces, analysis::ClusteringOptions{});

    struct Row {
      size_t group_count;
      unsigned long long queries;
      size_t sample_query;
    };
    std::vector<Row> rows;
    for (const auto& cluster : clusters.clusters) {
      Row row{cluster.size(), 0, groups[cluster.members[0]]->sample_query};
      for (size_t member : cluster.members) row.queries += groups[member]->query_count;
      rows.push_back(row);
    }
    std::stable_sort(rows.begin(), rows.end(),
                     [](const Row& a, const Row& b) { return a.queries > b.queries; });
    for (size_t i = 0; i < rows.size() && i < 8; ++i) {
      std::printf(
          "   cluster %zu: %zu groups, %llu queries — %s\n", i + 1, rows[i].group_count,
          rows[i].queries,
          analysis::DescribeTemplate(*result.parsed.queries[rows[i].sample_query].facts.shared)
              .c_str());
    }
    if (rows.size() > 8) std::printf("   ... %zu more clusters\n", rows.size() - 8);
  }
  return 0;
}

int CmdCluster(int argc, char** argv) {
  if (argc < 1) return Usage();
  double threshold = argc > 1 ? ParseNumberOrExit<double>("[threshold]", argv[1]) : 0.9;
  auto raw = Load(argv[0]);
  if (!raw.ok()) {
    std::fprintf(stderr, "error: %s\n", raw.status().ToString().c_str());
    return 1;
  }
  std::vector<analysis::DataSpace> spaces;
  for (const auto& record : raw->records()) {
    // sqlog-lint: allow(R1 one-shot clustering scan with no cache to warm)
    auto facts = sql::ParseAndAnalyze(record.statement);
    if (!facts.ok()) continue;
    spaces.push_back(analysis::ExtractDataSpace(facts.value()));
  }
  analysis::ClusteringOptions options;
  options.threshold = threshold;
  auto clusters = analysis::ClusterDataSpaces(spaces, options);
  std::printf("queries=%zu clusters=%zu avg-size=%.1f runtime=%.2fs\n", spaces.size(),
              clusters.cluster_count(), clusters.average_size(),
              clusters.runtime_seconds);
  for (size_t i = 0; i < clusters.clusters.size() && i < 10; ++i) {
    std::printf("  cluster %zu: %zu queries\n", i + 1, clusters.clusters[i].size());
  }
  return 0;
}

int CmdRecommend(int argc, char** argv) {
  if (argc < 2) return Usage();
  auto raw = Load(argv[0]);
  if (!raw.ok()) {
    std::fprintf(stderr, "error: %s\n", raw.status().ToString().c_str());
    return 1;
  }
  // Train on the cleaned log so suggestions are antipattern-free
  // (exactly the setup the paper's future work argues for). A second
  // run over the first run's clean log parses it: its pre-clean log,
  // templates and parsed queries describe the clean log. Neither run's
  // patterns are read, so neither mines them.
  core::PipelineOptions options = MakePipeline().options();
  options.mine_patterns = false;
  core::Pipeline pipeline(std::move(options));
  pipeline.SetSchema(CliSchema());
  auto run = pipeline.Run(*raw);
  if (run.ok()) run = pipeline.Run(run->clean_log);
  if (!run.ok()) {
    std::fprintf(stderr, "error: %s\n", run.status().ToString().c_str());
    return 1;
  }
  const core::PipelineResult& clean = *run;
  analysis::Recommender model;
  model.Train(clean.parsed);

  // sqlog-lint: allow(R1 a single user-typed statement is parsed once)
  auto facts = sql::ParseAndAnalyze(argv[1]);
  if (!facts.ok()) {
    std::fprintf(stderr, "cannot parse query: %s\n", facts.status().ToString().c_str());
    return 1;
  }
  auto suggestions = model.Recommend(facts->shared->tmpl.fingerprint, 5);
  if (suggestions.empty()) {
    std::printf("no suggestions (template unseen in the cleaned log)\n");
    return 0;
  }
  // Resolve fingerprints back to a sample statement each.
  std::printf("likely next queries:\n");
  for (uint64_t fp : suggestions) {
    for (const auto& info : clean.templates.templates()) {
      if (info.facts->tmpl.fingerprint != fp) continue;
      const auto& sample = clean.parsed.queries[info.first_query];
      std::printf("  - %s\n     e.g. %.100s\n",
                  analysis::DescribeTemplate(*sample.facts.shared).c_str(),
                  clean.pre_clean.records()[sample.record_index].statement.c_str());
      break;
    }
  }
  return 0;
}

/// The single source of truth for the CLI surface: Usage() renders it,
/// main() dispatches over it, and the file header mirrors it.
struct Command {
  const char* name;
  const char* syntax;  // positional args + per-command flags
  const char* help;    // one line
  int (*fn)(int argc, char** argv);
};

constexpr Command kCommands[] = {
    {"generate", "<n> <out.csv>", "synthesize a SkyServer-style log", CmdGenerate},
    {"convert", "<in> <out> [--to-csv|--to-sqb]",
     "convert between CSV and the binary .sqb format", CmdConvert},
    {"clean", "<in> <out-prefix>",
     "clean a log; writes <prefix>.clean.{csv,sqb} and <prefix>.removal.{csv,sqb}",
     CmdClean},
    {"stats", "<in>", "results overview (paper Table 5)", CmdStats},
    {"patterns", "<in.csv> [k]", "top-k patterns with descriptions", CmdPatterns},
    {"antipatterns", "<in.csv> [k]", "top-k distinct antipatterns", CmdAntipatterns},
    {"report", "<in> [--detectors=a,b]",
     "per-detector hits grouped by template cluster", CmdReport},
    {"cluster", "<in.csv> [threshold]", "data-space clustering summary", CmdCluster},
    {"recommend", "<in.csv> <sql>", "suggest likely next queries", CmdRecommend},
};

int Usage() {
  std::fprintf(stderr, "usage: sqlog <command> [flags] [args]\n");
  for (const Command& command : kCommands) {
    std::string invocation = std::string(command.name) + " " + command.syntax;
    std::fprintf(stderr, "  %-30s %s\n", invocation.c_str(), command.help);
  }
  std::fprintf(
      stderr,
      "flags for clean/stats:\n"
      "  --streaming                  two-pass file-to-file ingestion (the raw\n"
      "                               log is never held in memory); the input\n"
      "                               must be (timestamp, seq)-ordered\n"
      "  --batch-size=<n>             records per streaming batch (default 4096;\n"
      "                               implies --streaming)\n"
      "  --no-parse-cache             disable the parse cache and\n"
      "                               fully parse every statement (escape hatch;\n"
      "                               output is identical either way)\n"
      "  --format=auto|csv|sqb        input format (default auto: the binary\n"
      "                               .sqb magic is probed, anything else is CSV)\n"
      "  --out-format=csv|sqb         clean/removal output format (default csv;\n"
      "                               sqb embeds parse-cache recipes)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  for (const Command& command : kCommands) {
    if (std::strcmp(argv[1], command.name) == 0) return command.fn(argc - 2, argv + 2);
  }
  return Usage();
}
