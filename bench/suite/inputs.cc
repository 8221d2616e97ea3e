// Input generation and set-up for the four workloads. Everything here
// runs in the `prepare` child before any rep: the program under test
// only ever receives the files written here.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <numeric>
#include <unordered_set>

#include "catalog/schema.h"
#include "core/parse_cache.h"
#include "core/solver.h"
#include "engine/database.h"
#include "log/binlog.h"
#include "log/generator.h"
#include "log/log_io.h"
#include "sql/skeleton.h"
#include "suite.h"
#include "util/hash.h"
#include "util/random.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace sqlog::bench::suite {
namespace {

// --- W3: the synthetic ad-hoc log ----------------------------------------
//
// A synthetic parser stress point, not a measured traffic mix. Every
// statement is a SELECT over the SkyServer catalog whose shape (table,
// projection, predicate columns and operators, TOP, ORDER BY) is drawn
// Zipf from a shape space, with fresh literals each time. The constants
// below come from no observed log: they were tuned only so that the
// share of statements paying a full parse lands inside
// [kAdhocFullParseMin, kAdhocFullParseMax] — about 45 % at full size,
// 60 % at smoke size, where one batch is split over four shards that
// each parse their own first sightings. That is the opposite of the
// study mix, where 99 % hit the parse cache. The ratio is checked on
// every run.

constexpr const char* kAdhocTables[] = {"photoprimary", "photoobjall", "photoobj",
                                        "galaxy",       "specobj",     "specobjall",
                                        "dbobjects"};
constexpr uint64_t kShapeSpacePerRecord = 10;
constexpr double kDuplicateShare = 0.04;
constexpr size_t kConcurrentSessions = 64;

std::string Literal(catalog::ColumnType type, Rng& values) {
  switch (type) {
    case catalog::ColumnType::kInt64:
      return StrFormat("%llu", static_cast<unsigned long long>(values.Uniform(1000000)));
    case catalog::ColumnType::kDouble:
      return StrFormat("%.4f", values.NextDouble() * 360.0);
    case catalog::ColumnType::kString:
      return StrFormat("'obj%llu'", static_cast<unsigned long long>(values.Uniform(10000)));
  }
  return "0";
}

/// One predicate `column op literal(s)`. A lone predicate is never an
/// equality: one equality filter is the Stifle axiom, and this log must
/// carry no Stifle families.
std::string Predicate(const catalog::ColumnDef& column, bool lone, Rng& shape, Rng& values) {
  const bool text = column.type == catalog::ColumnType::kString;
  if (text) {
    uint64_t op = lone ? 1 : shape.Uniform(3);
    if (op == 0) return column.name + " = " + Literal(column.type, values);
    if (op == 1) {
      return column.name + StrFormat(" LIKE 'obj%llu%%'",
                                     static_cast<unsigned long long>(values.Uniform(100)));
    }
    return column.name + " <> " + Literal(column.type, values);
  }
  static constexpr const char* kOps[] = {"=", "<", ">", "<=", ">=", "<>", "BETWEEN"};
  const char* op = kOps[shape.Uniform(std::size(kOps))];
  if (lone && op[0] == '=') op = ">=";
  if (op[0] == 'B') {
    return column.name + " BETWEEN " + Literal(column.type, values) + " AND " +
           Literal(column.type, values);
  }
  return column.name + " " + op + " " + Literal(column.type, values);
}

/// Renders a statement of shape `shape_id`. The shape is a pure function
/// of (seed, shape_id), so the shape space needs no storage; only the
/// literals come from `values`.
std::string AdhocStatement(const catalog::Schema& schema, uint64_t seed, uint64_t shape_id,
                           Rng& values) {
  Rng shape(HashCombine(seed, shape_id));
  const catalog::TableDef& table =
      *schema.FindTable(kAdhocTables[shape.Uniform(std::size(kAdhocTables))]);
  const auto& columns = table.columns();
  std::vector<size_t> order(columns.size());
  std::iota(order.begin(), order.end(), size_t{0});
  const size_t projected = 1 + shape.Uniform(std::min<size_t>(6, columns.size()));
  for (size_t i = 0; i < projected; ++i) {
    std::swap(order[i], order[i + shape.Uniform(columns.size() - i)]);
  }
  std::string sql = "SELECT ";
  if (shape.Chance(0.3)) {
    sql += StrFormat("TOP %d ", static_cast<int>(10 * (1 + shape.Uniform(10))));
  }
  for (size_t i = 0; i < projected; ++i) {
    if (i > 0) sql += ", ";
    sql += columns[order[i]].name;
  }
  sql += " FROM " + table.name() + " WHERE ";
  const size_t predicates = 1 + shape.Uniform(6);
  for (size_t p = 0; p < predicates; ++p) {
    if (p > 0) sql += " AND ";
    sql += Predicate(columns[shape.Uniform(columns.size())], predicates == 1, shape, values);
  }
  if (shape.Chance(0.3)) {
    sql += " ORDER BY " + columns[order[0]].name + (shape.Chance(0.5) ? " DESC" : "");
  }
  return sql;
}

/// The W3 log: `records` statements from synthetic users in interleaved
/// sessions, time-ordered as RunStreaming requires, with instant
/// duplicates so that dedup has work.
log::QueryLog SynthesizeAdhocLog(uint64_t seed, size_t records) {
  const catalog::Schema schema = catalog::MakeSkyServerSchema();
  Rng rng(seed);
  const uint64_t shape_space = kShapeSpacePerRecord * std::max<size_t>(records, 1);
  const size_t users = std::max<size_t>(20, records / 40);
  struct Session {
    uint64_t user = 0;
    uint64_t id = 0;
    uint64_t left = 0;
  };
  uint64_t next_session = 0;
  auto fresh = [&](Session& session) {
    session.user = rng.Uniform(users);
    session.id = next_session++;
    session.left = 1 + rng.Uniform(30);
  };
  std::vector<Session> active(kConcurrentSessions);
  for (Session& session : active) fresh(session);

  log::QueryLog log;
  int64_t clock_ms = 1300000000000LL;
  while (log.size() < records) {
    Session& session = active[rng.Uniform(active.size())];
    clock_ms += 1 + static_cast<int64_t>(rng.Uniform(400));
    log::LogRecord record;
    record.seq = log.size();
    record.timestamp_ms = clock_ms;
    record.user = StrFormat("10.%llu.%llu.7", static_cast<unsigned long long>(session.user / 256),
                            static_cast<unsigned long long>(session.user % 256));
    record.session = StrFormat("s%llu", static_cast<unsigned long long>(session.id));
    record.statement = AdhocStatement(schema, seed, rng.Zipf(shape_space, 1.0), rng);
    record.row_count = static_cast<int64_t>(rng.Uniform(1000));
    record.truth = log::TruthLabel::kOrganic;
    const bool duplicate = rng.Chance(kDuplicateShare);
    log.Append(record);
    if (duplicate && log.size() < records) {
      // An instant duplicate: same user and text inside the dedup window.
      clock_ms += static_cast<int64_t>(rng.Uniform(500));
      record.seq = log.size();
      record.timestamp_ms = clock_ms;
      record.truth = log::TruthLabel::kDuplicate;
      log.Append(std::move(record));
    }
    if (--session.left == 0) fresh(session);
  }
  return log;
}

// --- W2 set-up: what `sqlog convert` does ------------------------------

Status ConvertToSqb(const std::string& csv_path, const std::string& sqb_path) {
  auto reader = log::LogIo::OpenLogReader(csv_path, log::LogFormat::kCsv);
  SQLOG_RETURN_IF_ERROR(reader.status());
  log::BinLogWriterOptions options;
  options.recipe_builder = core::BuildStatementRecipe;
  log::BinLogWriter writer(options);
  SQLOG_RETURN_IF_ERROR(writer.Open(sqb_path));
  log::LogRecord record;
  bool eof = false;
  while (true) {
    SQLOG_RETURN_IF_ERROR((*reader)->ReadRecord(&record, &eof));
    if (eof) break;
    SQLOG_RETURN_IF_ERROR(writer.Append(record));
  }
  return writer.Close();
}

// --- W4: DW-Stifle runs and their rewrites -----------------------------

/// Writes the replay script: runs of 4-39 point lookups over hitting
/// objids, shaped like the generator's DW family, each followed by the
/// solver's rewrite of the run. Format, one item per line:
///   R <members>           start of a run
///   P <objid> <sql>       original point lookup (expects 1 row)
///   I <rows> <sql>        the run's IN-list rewrite (expects `rows` rows)
Status WriteStifleScript(uint64_t seed, const Sizes& sizes, const std::string& path,
                         size_t* statements, size_t* inlists) {
  static constexpr const char* kBands[] = {"g", "r", "i"};
  Rng rng(seed);
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot write " + path);
  *statements = 0;
  *inlists = 0;
  while (*statements < sizes.stifle_statements) {
    const uint64_t pick = rng.Uniform(14 + 14 + 10);  // generator's rank weights
    const char* band = kBands[pick < 14 ? 0 : (pick < 28 ? 1 : 2)];
    const size_t members = 4 + rng.Uniform(36);
    std::vector<std::string> texts;
    std::vector<core::ParsedQuery> parsed(members);
    std::vector<const core::ParsedQuery*> pointers;
    std::unordered_set<int64_t> distinct;
    out << "R " << members << '\n';
    for (size_t i = 0; i < members; ++i) {
      const int64_t objid = engine::SyntheticObjId(rng.Uniform(sizes.photo_rows));
      distinct.insert(objid);
      texts.push_back(StrFormat("SELECT rowc_%s, colc_%s FROM photoPrimary WHERE objID = %lld",
                                band, band, static_cast<long long>(objid)));
      auto facts = sql::ParseAndAnalyze(texts.back());
      if (!facts.ok()) return facts.status();
      parsed[i].facts = std::move(facts).value();
      pointers.push_back(&parsed[i]);
      out << "P " << objid << ' ' << texts.back() << '\n';
    }
    auto rewrite = core::RewriteDwStifle(pointers);
    if (!rewrite.ok()) return rewrite.status();
    out << "I " << distinct.size() << ' ' << *rewrite << '\n';
    *statements += members;
    ++*inlists;
  }
  out.close();
  return out ? Status::OK() : Status::IoError("short write: " + path);
}

/// The log of W1-W3, generated from `seed`.
log::QueryLog GenerateInput(uint64_t seed, const Workload& workload, const Sizes& sizes) {
  if (workload.adhoc) return SynthesizeAdhocLog(seed, sizes.adhoc_records);
  log::GeneratorConfig config;
  config.seed = seed;
  config.target_statements = sizes.study_statements;
  return log::GenerateLog(config);
}

int Fail(const Status& status) {
  std::fprintf(stderr, "prepare failed: %s\n", status.ToString().c_str());
  return 1;
}

}  // namespace

int PrepareChild(const ChildArgs& args) {
  const Workload& workload = *args.workload;
  const Sizes sizes = SizesFor(args.smoke);
  const Files files(args.dir, workload);

  if (workload.path == Path::kReplay) {
    size_t statements = 0;
    size_t inlists = 0;
    Status written = WriteStifleScript(args.seed, sizes, files.script, &statements, &inlists);
    if (!written.ok()) return Fail(written);
    EmitMetric("records", static_cast<double>(statements + inlists));
    EmitMetric("inlists", static_cast<double>(inlists));
    return 0;  // W4 sets up (populates) inside each rep
  }

  // Set-up times only the program's own calls that make its input file:
  // LogIo::WriteFile of the generated log (W1, W3), or for W2 the CSV →
  // `.sqb` conversion with recipes that `sqlog convert` does. Generating
  // the log is the benchmark's work and stays untimed. Repeated; the
  // parent reports the median.
  const log::QueryLog raw = GenerateInput(args.seed, workload, sizes);
  if (workload.sqb) {
    Status written = log::LogIo::WriteFile(raw, files.input_csv);
    if (!written.ok()) return Fail(written);
  }
  double total = 0.0;
  for (size_t rep = 0; rep < sizes.setup_reps || total < sizes.setup_seconds; ++rep) {
    RemoveFile(InputPath(files, workload));
    Timer timer;
    Status status = workload.sqb ? ConvertToSqb(files.input_csv, files.input_sqb)
                                 : log::LogIo::WriteFile(raw, files.input_csv);
    const double seconds = timer.ElapsedSeconds();
    if (!status.ok()) return Fail(status);
    EmitMetric("setup_s", seconds);
    total += seconds;
  }
  EmitMetric("records", static_cast<double>(raw.size()));
  EmitMetric("input_bytes", static_cast<double>(FileBytes(InputPath(files, workload))));
  return 0;
}

}  // namespace sqlog::bench::suite
