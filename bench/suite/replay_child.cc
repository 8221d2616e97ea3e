// Child modes of W4 (stifle-replay-ooc): the Sec. 6.3 question on the
// out-of-core engine. Each rep populates a paged photoprimary behind a
// small buffer pool (set-up), then replays every original DW-Stifle
// point lookup and afterwards every IN-list rewrite, one statement at a
// time on one thread, timing each statement.

#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "bench_common.h"
#include "engine/database.h"
#include "engine/executor.h"
#include "sql/parser.h"
#include "suite.h"
#include "trace.h"
#include "util/hash.h"
#include "util/string_util.h"

namespace sqlog::bench::suite {
namespace {

/// One DW-Stifle run of the script and its rewrite.
struct StifleRun {
  std::vector<std::pair<int64_t, std::string>> points;  // (objid, statement)
  size_t inlist_rows = 0;
  std::string inlist;
};

Result<std::vector<StifleRun>> ReadScript(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot read " + path);
  std::vector<StifleRun> runs;
  std::string line;
  while (std::getline(in, line)) {
    if (line.size() < 2) return Status::ParseError("short script line in " + path);
    const size_t space = line.find(' ', 2);
    if (line[0] == 'R') {
      runs.emplace_back();
    } else if (runs.empty() || space == std::string::npos) {
      return Status::ParseError("malformed script line: " + line);
    } else if (line[0] == 'P') {
      runs.back().points.emplace_back(std::stoll(line.substr(2, space - 2)),
                                      line.substr(space + 1));
    } else if (line[0] == 'I') {
      runs.back().inlist_rows = std::stoull(line.substr(2, space - 2));
      runs.back().inlist = line.substr(space + 1);
    } else {
      return Status::ParseError("unknown script line: " + line);
    }
  }
  return runs;
}

int Fail(const char* what, const Status& status) {
  std::fprintf(stderr, "%s failed: %s\n", what, status.ToString().c_str());
  return 1;
}

/// The paged table every rep and the oracle replay against.
Status Populate(const Sizes& sizes, engine::Database& db, Tracer* tracer, double* populate_s,
                double* index_s) {
  auto start = Tracer::Now();
  SQLOG_RETURN_IF_ERROR(engine::PopulatePhotoPrimary(db, sizes.photo_rows));
  auto populated = Tracer::Now();
  SQLOG_RETURN_IF_ERROR(db.CreateIndex("photoprimary", "objid"));
  auto indexed = Tracer::Now();
  *populate_s = Tracer::Seconds(start, populated);
  *index_s = Tracer::Seconds(populated, indexed);
  if (tracer != nullptr) {
    tracer->Mark("engine.populate", start, populated,
                 StrFormat("\"rows\": %zu", sizes.photo_rows));
    tracer->Mark("engine.index_build", populated, indexed);
  }
  return Status::OK();
}

/// The page file is the engine's default, an unlinked temp file under
/// $TMPDIR (the parent points it into its run directory), so every rep
/// starts on a fresh file (see RemoveFile).
engine::DatabaseOptions PagedOptions(const Sizes& sizes) {
  engine::DatabaseOptions options;
  options.storage = engine::StorageMode::kPaged;
  options.buffer_pool_pages = sizes.buffer_pages;
  return options;
}

/// Replays statements one by one. Untraced, each statement is one
/// Executor::ExecuteSql call; traced, the same call is split into its
/// sql::ParseSelect and Executor::Execute halves, each timed.
class Replayer {
 public:
  Replayer(const engine::Executor& executor, Tracer* tracer)
      : executor_(executor), tracer_(tracer) {}

  /// Executes one statement, recording its latency; false when it fails
  /// or returns another row count than `expected_rows`.
  bool Execute(const std::string& statement, size_t expected_rows,
               std::vector<double>* latencies_us) {
    auto start = Tracer::Now();
    Result<engine::ResultSet> result = Status::Internal("not executed");
    if (tracer_ == nullptr) {
      result = executor_.ExecuteSql(statement);
    } else {
      auto parsed = sql::ParseSelect(statement);
      auto parse_end = Tracer::Now();
      parse_s_ += Tracer::Seconds(start, parse_end);
      if (parsed.ok()) {
        result = executor_.Execute(*parsed.value());
      } else {
        result = parsed.status();
      }
      exec_s_ += Tracer::Seconds(parse_end, Tracer::Now());
    }
    latencies_us->push_back(Tracer::Seconds(start, Tracer::Now()) * 1e6);
    const size_t rows = result.ok() ? result->row_count() : static_cast<size_t>(-1);
    digest_ = HashCombine(digest_, rows);
    return result.ok() && rows == expected_rows;
  }

  double parse_s() const { return parse_s_; }
  double exec_s() const { return exec_s_; }
  uint64_t digest() const { return digest_; }

 private:
  const engine::Executor& executor_;
  Tracer* tracer_;
  double parse_s_ = 0.0;
  double exec_s_ = 0.0;
  uint64_t digest_ = 0;
};

}  // namespace

int ReplayRepChild(const ChildArgs& args) {
  const Workload& workload = *args.workload;
  const Files files(args.dir, workload);
  const Sizes sizes = SizesFor(args.smoke);
  auto script = ReadScript(files.script);
  if (!script.ok()) return Fail("script", script.status());
  Tracer tracer(args.trace_pid);
  Tracer* traced = args.traced ? &tracer : nullptr;

  engine::Database db(PagedOptions(sizes));
  double populate_s = 0.0;
  double index_s = 0.0;
  Status populated = Populate(sizes, db, traced, &populate_s, &index_s);
  if (!populated.ok()) return Fail("populate", populated);
  engine::Executor executor(&db);
  const engine::BufferPool& pool = *db.buffer_pool();
  Replayer replayer(executor, traced);

  // Originals first, then the rewrites (Sec. 6.3 runs them apart).
  std::vector<double> point_us;
  std::vector<double> inlist_us;
  size_t points = 0;
  for (const StifleRun& run : *script) points += run.points.size();
  point_us.reserve(points);
  inlist_us.reserve(script->size());
  size_t failed = 0;
  const engine::BufferPool::Stats before = pool.stats();
  const double cpu_start = CpuSeconds();
  auto start = Tracer::Now();
  auto chunk_start = start;
  size_t in_chunk = 0;
  auto mark_chunk = [&](const char* name, bool force) {
    if (traced == nullptr || (!force && ++in_chunk < 1000)) return;
    auto now = Tracer::Now();
    tracer.Mark(name, chunk_start, now, StrFormat("\"statements\": %zu", in_chunk));
    tracer.Counter("pool", now,
                   StrFormat("\"misses\": %llu", (unsigned long long)pool.stats().misses));
    chunk_start = now;
    in_chunk = 0;
  };
  for (const StifleRun& run : *script) {
    for (const auto& [objid, statement] : run.points) {
      if (!replayer.Execute(statement, 1, &point_us)) ++failed;
      mark_chunk("replay.points", false);
    }
  }
  mark_chunk("replay.points", true);
  const engine::BufferPool::Stats after_points = pool.stats();
  auto points_end = Tracer::Now();
  for (const StifleRun& run : *script) {
    if (!replayer.Execute(run.inlist, run.inlist_rows, &inlist_us)) ++failed;
    mark_chunk("replay.inlists", false);
  }
  mark_chunk("replay.inlists", true);
  auto end = Tracer::Now();
  const double cpu = CpuSeconds() - cpu_start;
  const engine::BufferPool::Stats after = pool.stats();
  const double wall = Tracer::Seconds(start, end);

  EmitMetric("wall_s", wall);
  EmitMetric("cpu_s", cpu);
  EmitMetric("records", static_cast<double>(point_us.size() + inlist_us.size()));
  EmitMetric("peak_rss_bytes", static_cast<double>(SelfPeakRssBytes()));
  EmitMetric("setup_s", populate_s + index_s);
  EmitMetric("failed", static_cast<double>(failed));
  EmitMetric("full_scans", static_cast<double>(executor.stats().full_scans));
  EmitMetric("original_s", Tracer::Seconds(start, points_end));
  EmitMetric("rewritten_s", Tracer::Seconds(points_end, end));
  EmitMetric("point_us_p50", Percentile(point_us, 50));
  EmitMetric("point_us_p99", Percentile(point_us, 99));
  EmitMetric("inlist_us_p50", Percentile(inlist_us, 50));
  EmitMetric("inlist_us_p99", Percentile(inlist_us, 99));
  EmitText("digest", StrFormat("%016llx", (unsigned long long)replayer.digest()));
  if (traced == nullptr) return 0;

  const double point_count = static_cast<double>(point_us.size());
  const double inlist_count = static_cast<double>(inlist_us.size());
  const double hits = static_cast<double>(after.hits - before.hits);
  const double misses = static_cast<double>(after.misses - before.misses);
  EmitMetric("engine.parse_s", replayer.parse_s());
  EmitMetric("engine.exec_s", replayer.exec_s());
  EmitMetric("engine.index_scans", static_cast<double>(executor.stats().index_scans));
  EmitMetric("engine.full_scans", static_cast<double>(executor.stats().full_scans));
  EmitMetric("engine.point_us_p50", Percentile(point_us, 50));
  EmitMetric("engine.point_us_p99", Percentile(point_us, 99));
  EmitMetric("engine.inlist_us_p50", Percentile(inlist_us, 50));
  EmitMetric("engine.inlist_us_p99", Percentile(inlist_us, 99));
  EmitMetric("engine.pool.hit_ratio", SafeDiv(hits, hits + misses));
  EmitMetric("engine.pool.misses_per_point",
             SafeDiv(static_cast<double>(after_points.misses - before.misses), point_count));
  EmitMetric("engine.pool.misses_per_inlist",
             SafeDiv(static_cast<double>(after.misses - after_points.misses), inlist_count));
  EmitMetric("engine.pool.evictions", static_cast<double>(after.evictions - before.evictions));
  EmitMetric("engine.pool.writebacks",
             static_cast<double>(after.writebacks - before.writebacks));
  EmitMetric("engine.populate_s", populate_s);
  EmitMetric("engine.index_build_s", index_s);
  EmitMetric("trace.wall_s", wall);
  EmitMetric("trace.coverage", SafeDiv(replayer.parse_s() + replayer.exec_s(), wall));
  Status written = tracer.WriteEvents(files.events);
  if (!written.ok()) return Fail("trace events", written);
  return 0;
}

int ReplayOracleChild(const ChildArgs& args) {
  const Workload& workload = *args.workload;
  const Files files(args.dir, workload);
  const Sizes sizes = SizesFor(args.smoke);
  auto script = ReadScript(files.script);
  if (!script.ok()) return Fail("script", script.status());
  engine::Database db(PagedOptions(sizes));
  double populate_s = 0.0;
  double index_s = 0.0;
  Status populated = Populate(sizes, db, nullptr, &populate_s, &index_s);
  if (!populated.ok()) return Fail("populate", populated);
  engine::Executor executor(&db);

  // The rewrite must return exactly the rows its originals returned,
  // each object once, with the filter column (objid) in front.
  auto render = [](const std::vector<engine::Value>& row) {
    std::string out;
    for (const engine::Value& value : row) out += value.ToString() + "|";
    return out;
  };
  size_t mismatched = 0;
  for (const StifleRun& run : *script) {
    std::set<std::string> expected;
    for (const auto& [objid, statement] : run.points) {
      auto result = executor.ExecuteSql(statement);
      if (!result.ok()) return Fail("original", result.status());
      for (const auto& row : result->rows) {
        expected.insert(std::to_string(objid) + "|" + render(row));
      }
    }
    auto rewritten = executor.ExecuteSql(run.inlist);
    if (!rewritten.ok()) return Fail("rewrite", rewritten.status());
    std::set<std::string> actual;
    for (const auto& row : rewritten->rows) actual.insert(render(row));
    if (actual != expected || rewritten->row_count() != run.inlist_rows) ++mismatched;
  }
  EmitMetric("runs", static_cast<double>(script->size()));
  EmitMetric("mismatched_runs", static_cast<double>(mismatched));
  return 0;
}

}  // namespace sqlog::bench::suite
