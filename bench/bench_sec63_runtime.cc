// Sec. 6.3 runtime experiment: execute a slice of Stifle queries against
// the database, then execute the solver's rewrites, and compare counts
// and wall time. Paper: 10222 queries → 254 after rewriting (≈40×
// fewer), running 29.27× faster.

#include <sys/wait.h>
#include <unistd.h>

#include <string>
#include <vector>

#include "bench_common.h"
#include "core/solver.h"
#include "engine/database.h"
#include "engine/executor.h"
#include "engine/table_heap.h"
#include "sql/skeleton.h"

namespace {

using sqlog::bench::SelfPeakRssBytes;

/// Strips `--name=<uint>` from argv, returning its value or `def`.
size_t StripUintFlag(int* argc, char** argv, const char* name, size_t def) {
  const size_t len = std::strlen(name);
  size_t value = def;
  int kept = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strncmp(argv[i], name, len) == 0 && argv[i][len] == '=') {
      value = std::strtoull(argv[i] + len + 1, nullptr, 10);
      continue;
    }
    argv[kept++] = argv[i];
  }
  *argc = kept;
  return value;
}

/// Strips a bare `--name` flag from argv; returns whether it was present.
bool StripBoolFlag(int* argc, char** argv, const char* name) {
  bool present = false;
  int kept = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) {
      present = true;
      continue;
    }
    argv[kept++] = argv[i];
  }
  *argc = kept;
  return present;
}

/// One cell of the out-of-core sweep matrix, as measured by its child
/// process (every number below is the child's own, so rows are
/// independent of each other and of the parent).
struct OocResult {
  double populate_seconds = 0;
  double index_seconds = 0;
  double query_seconds = 0;
  size_t queries = 0;
  size_t matched = 0;
  unsigned long long data_bytes = 0;
  unsigned long long pool_bytes = 0;
  unsigned long long evictions = 0;
  unsigned long long writebacks = 0;
  size_t peak_rss_bytes = 0;
};

/// Child mode for the out-of-core sweep: builds photoprimary in the
/// requested backend, optionally indexes objid, runs point lookups with
/// the requested access path, and prints one stats line + its peak RSS.
/// argv: --ooc-child <mem|paged> <scan|index> <rows> <buffer_pages> <queries>
int RunOocChild(int argc, char** argv) {
  using namespace sqlog;
  if (argc != 7) return 2;
  const bool paged = std::string(argv[2]) == "paged";
  const bool use_index = std::string(argv[3]) == "index";
  const size_t rows = std::strtoull(argv[4], nullptr, 10);
  const size_t buffer_pages = std::strtoull(argv[5], nullptr, 10);
  const size_t queries = std::strtoull(argv[6], nullptr, 10);

  engine::DatabaseOptions options;
  options.storage = paged ? engine::StorageMode::kPaged : engine::StorageMode::kMemory;
  options.buffer_pool_pages = buffer_pages;
  engine::Database db(options);

  Timer populate_timer;
  Status populated = engine::PopulatePhotoPrimary(db, rows);
  if (!populated.ok()) {
    std::fprintf(stderr, "populate failed: %s\n", populated.ToString().c_str());
    return 1;
  }
  const double populate_seconds = populate_timer.ElapsedSeconds();

  double index_seconds = 0;
  if (use_index) {
    Timer index_timer;
    Status indexed = db.CreateIndex("photoprimary", "objid");
    if (!indexed.ok()) {
      std::fprintf(stderr, "index failed: %s\n", indexed.ToString().c_str());
      return 1;
    }
    index_seconds = index_timer.ElapsedSeconds();
  }

  engine::ExecutorOptions exec_options;
  exec_options.use_indexes = use_index;
  engine::Executor executor(&db, exec_options);

  // Prime-strided probes cover the key range without materializing the
  // objid list (at tens of millions of rows that list alone would rival
  // the buffer pool).
  Timer query_timer;
  size_t matched = 0;
  for (size_t i = 0; i < queries; ++i) {
    const size_t target = (i * 104729) % rows;
    auto result = executor.ExecuteSql(
        StrFormat("SELECT rowc_g, colc_g FROM photoPrimary WHERE objID = %lld",
                  static_cast<long long>(engine::SyntheticObjId(target))));
    if (!result.ok()) {
      std::fprintf(stderr, "exec failed: %s\n", result.status().ToString().c_str());
      return 1;
    }
    matched += result->row_count();
  }
  const double query_seconds = query_timer.ElapsedSeconds();
  if (matched != queries) {
    std::fprintf(stderr, "expected %zu matches, got %zu\n", queries, matched);
    return 1;
  }

  unsigned long long data_bytes = 0;
  unsigned long long pool_bytes = 0;
  unsigned long long evictions = 0;
  unsigned long long writebacks = 0;
  if (paged) {
    const auto* table =
        static_cast<const engine::PagedTable*>(db.FindTable("photoprimary"));
    data_bytes = table->data_bytes();
  }
  if (db.buffer_pool() != nullptr) {
    pool_bytes = db.buffer_pool()->pool_bytes();
    engine::BufferPool::Stats stats = db.buffer_pool()->stats();
    evictions = stats.evictions;
    writebacks = stats.writebacks;
  }
  std::printf("ooc-child populate_seconds=%.6f index_seconds=%.6f "
              "query_seconds=%.6f queries=%zu matched=%zu data_bytes=%llu "
              "pool_bytes=%llu evictions=%llu writebacks=%llu\n",
              populate_seconds, index_seconds, query_seconds, queries, matched,
              data_bytes, pool_bytes, evictions, writebacks);
  std::printf("rss-child peak_bytes=%zu\n", SelfPeakRssBytes());
  return 0;
}

constexpr double kOocPageSize = static_cast<double>(sqlog::engine::kPageSize);

/// One row of the sweep matrix: configuration plus the child's numbers.
struct OocCell {
  const char* storage;
  const char* access;
  bool skipped = false;
  size_t queries = 0;
  OocResult result;
};

/// Emits the `"out_of_core"` JSON object (no trailing comma/newline).
void WriteOocJson(FILE* out, const std::vector<OocCell>& cells, size_t rows,
                  size_t buffer_pages, double speedup, bool rss_bounded) {
  std::fprintf(out, "  \"out_of_core\": {\n");
  std::fprintf(out, "    \"rows\": %zu,\n    \"buffer_pages\": %zu,\n", rows,
               buffer_pages);
  std::fprintf(out, "    \"index_over_scan_speedup\": %.3f,\n", speedup);
  std::fprintf(out, "    \"peak_rss_bounded\": %s,\n", rss_bounded ? "true" : "false");
  std::fprintf(out, "    \"configs\": [\n");
  for (size_t i = 0; i < cells.size(); ++i) {
    const OocCell& cell = cells[i];
    const char* comma = i + 1 < cells.size() ? "," : "";
    if (cell.skipped) {
      std::fprintf(out,
                   "      {\"storage\": \"%s\", \"access\": \"%s\", "
                   "\"skipped\": true}%s\n",
                   cell.storage, cell.access, comma);
      continue;
    }
    std::fprintf(
        out,
        "      {\"storage\": \"%s\", \"access\": \"%s\", \"skipped\": false,\n"
        "       \"queries\": %zu, \"query_seconds\": %.6f, "
        "\"seconds_per_query\": %.9f,\n"
        "       \"populate_seconds\": %.6f, \"index_seconds\": %.6f,\n"
        "       \"data_bytes\": %llu, \"pool_bytes\": %llu,\n"
        "       \"evictions\": %llu, \"writebacks\": %llu, "
        "\"peak_rss_bytes\": %zu}%s\n",
        cell.storage, cell.access, cell.queries, cell.result.query_seconds,
        cell.result.query_seconds / static_cast<double>(cell.queries),
        cell.result.populate_seconds, cell.result.index_seconds,
        cell.result.data_bytes, cell.result.pool_bytes, cell.result.evictions,
        cell.result.writebacks, cell.result.peak_rss_bytes, comma);
  }
  std::fprintf(out, "    ]\n  }");
}

/// Runs one out-of-core sweep cell in a fresh child process and parses
/// its stats + peak-RSS lines.
bool RunOocChildConfig(const char* exe, const char* storage, const char* access,
                       size_t rows, size_t buffer_pages, size_t queries,
                       OocResult* out) {
  int fds[2];
  if (pipe(fds) != 0) return false;
  const std::string rows_arg = std::to_string(rows);
  const std::string pages_arg = std::to_string(buffer_pages);
  const std::string queries_arg = std::to_string(queries);
  const char* child_argv[] = {exe,      "--ooc-child",     storage,
                              access,   rows_arg.c_str(),  pages_arg.c_str(),
                              queries_arg.c_str(), nullptr};
  pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return false;
  }
  if (pid == 0) {
    close(fds[0]);
    dup2(fds[1], STDOUT_FILENO);
    close(fds[1]);
    execv(exe, const_cast<char**>(child_argv));
    _exit(127);
  }
  close(fds[1]);
  FILE* in = fdopen(fds[0], "r");
  bool got_stats = false;
  bool got_rss = false;
  if (in != nullptr) {
    char line[512];
    while (std::fgets(line, sizeof line, in) != nullptr) {
      if (std::sscanf(line,
                      "ooc-child populate_seconds=%lf index_seconds=%lf "
                      "query_seconds=%lf queries=%zu matched=%zu data_bytes=%llu "
                      "pool_bytes=%llu evictions=%llu writebacks=%llu",
                      &out->populate_seconds, &out->index_seconds,
                      &out->query_seconds, &out->queries, &out->matched,
                      &out->data_bytes, &out->pool_bytes, &out->evictions,
                      &out->writebacks) == 9) {
        got_stats = true;
      }
      if (std::sscanf(line, "rss-child peak_bytes=%zu", &out->peak_rss_bytes) == 1)
        got_rss = true;
    }
    std::fclose(in);
  } else {
    close(fds[0]);
  }
  int status = 0;
  if (waitpid(pid, &status, 0) != pid) return false;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0 && got_stats && got_rss;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sqlog;
  if (argc > 1 && std::string(argv[1]) == "--ooc-child")
    return RunOocChild(argc, argv);
  const size_t ooc_rows = StripUintFlag(&argc, argv, "--rows", 200000);
  const size_t ooc_pages = StripUintFlag(&argc, argv, "--buffer-pages", 4096);
  const bool ooc_only = StripBoolFlag(&argc, argv, "--ooc-only");
  const std::string json_path = bench::StripJsonFlag(&argc, argv);
  bench::Banner("Sec. 6.3 — runtime of original Stifle queries vs rewritten queries",
                "paper Sec. 6.3: 10222 → 254 queries, 29.27x faster");

  // Out-of-core sweep: photoprimary at --rows across the storage x
  // access-path matrix, one fresh child process per cell. Full scans are
  // capped to a handful of queries (each one walks the whole table);
  // index cells run thousands of point probes. The in-memory cells are
  // skipped past 1M rows — the columnar backend would materialize every
  // Value, which is exactly what the paged backend exists to avoid.
  std::printf("Out-of-core sweep: photoprimary rows=%s, buffer pool %s pages (%.1f MiB)\n",
              bench::Thousands(ooc_rows).c_str(), bench::Thousands(ooc_pages).c_str(),
              static_cast<double>(ooc_pages) * kOocPageSize / (1024.0 * 1024.0));
  const size_t scan_queries =
      std::max<size_t>(3, std::min<size_t>(30, 3000000 / std::max<size_t>(ooc_rows, 1)));
  const size_t index_queries = std::min<size_t>(2000, ooc_rows);
  std::printf("  (scan cells run %zu queries, index cells %zu; each cell is a fresh "
              "process)\n", scan_queries, index_queries);
  std::vector<OocCell> ooc_cells(4);
  ooc_cells[0].storage = "memory"; ooc_cells[0].access = "scan";
  ooc_cells[1].storage = "memory"; ooc_cells[1].access = "index";
  ooc_cells[2].storage = "paged";  ooc_cells[2].access = "scan";
  ooc_cells[3].storage = "paged";  ooc_cells[3].access = "index";
  std::printf("  %-16s %14s %14s %16s %14s\n", "configuration", "populate s",
              "s per query", "peak RSS MiB", "evictions");
  for (OocCell& cell : ooc_cells) {
    const bool memory = std::strcmp(cell.storage, "memory") == 0;
    if (memory && ooc_rows > 1000000) {
      cell.skipped = true;
      std::printf("  %-16s skipped: %s rows would be fully materialized in RAM\n",
                  (std::string(cell.storage) + "/" + cell.access).c_str(),
                  bench::Thousands(ooc_rows).c_str());
      continue;
    }
    cell.queries = std::strcmp(cell.access, "index") == 0 ? index_queries : scan_queries;
    if (!RunOocChildConfig(argv[0], cell.storage, cell.access, ooc_rows, ooc_pages,
                           cell.queries, &cell.result)) {
      std::fprintf(stderr, "out-of-core child failed for %s/%s\n", cell.storage,
                   cell.access);
      return 1;
    }
    std::printf("  %-16s %13.2fs %14.6f %16.1f %14llu\n",
                (std::string(cell.storage) + "/" + cell.access).c_str(),
                cell.result.populate_seconds,
                cell.result.query_seconds / static_cast<double>(cell.queries),
                static_cast<double>(cell.result.peak_rss_bytes) / (1024.0 * 1024.0),
                cell.result.evictions);
  }
  const OocCell& paged_scan = ooc_cells[2];
  const OocCell& paged_index = ooc_cells[3];
  const double ooc_speedup = bench::SafeDiv(
      paged_scan.result.query_seconds / static_cast<double>(paged_scan.queries),
      paged_index.result.query_seconds / static_cast<double>(paged_index.queries));
  const unsigned long long ooc_pool_bytes = paged_index.result.pool_bytes;
  const bool ooc_rss_bounded =
      paged_index.result.peak_rss_bytes < ooc_pool_bytes + (512ull << 20) &&
      paged_scan.result.peak_rss_bytes < ooc_pool_bytes + (512ull << 20);
  std::printf("\n  paged table: %.1f MiB data through a %.1f MiB pool "
              "(peak RSS bounded: %s)\n",
              static_cast<double>(paged_index.result.data_bytes) / (1024.0 * 1024.0),
              static_cast<double>(ooc_pool_bytes) / (1024.0 * 1024.0),
              ooc_rss_bounded ? "yes" : "NO");
  std::printf("  index scan over full scan (paged, per query): %.1fx\n\n", ooc_speedup);

  if (ooc_only) {
    if (!json_path.empty()) {
      FILE* out = std::fopen(json_path.c_str(), "w");
      if (out == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
        return 1;
      }
      std::fprintf(out, "{\n  \"benchmark\": \"sec63_runtime\",\n");
      WriteOocJson(out, ooc_cells, ooc_rows, ooc_pages, ooc_speedup, ooc_rss_bounded);
      std::fprintf(out, ",\n  \"peak_rss_bytes\": %zu\n}\n", SelfPeakRssBytes());
      std::fclose(out);
      std::printf("wrote %s\n", json_path.c_str());
    }
    return 0;
  }

  // A database big enough that scans dominate per-query cost.
  engine::Database db;
  Status populated = engine::PopulateSkyServerSample(db, 10000);
  if (!populated.ok()) {
    std::fprintf(stderr, "populate failed: %s\n", populated.ToString().c_str());
    return 1;
  }
  engine::Executor executor(&db);
  std::vector<int64_t> objids = engine::PhotoObjIds(db);

  // Build Stifle slices the way the bots do: runs of 20-60 point lookups.
  Rng rng(20180416);
  size_t target_queries = 5000;
  const char* env = std::getenv("SQLOG_BENCH_QUERIES");
  if (env != nullptr) target_queries = std::strtoull(env, nullptr, 10);

  std::vector<std::vector<std::string>> instances;
  size_t total = 0;
  while (total < target_queries) {
    size_t run = 20 + rng.Uniform(41);
    std::vector<std::string> members;
    for (size_t i = 0; i < run; ++i) {
      members.push_back(StrFormat(
          "SELECT rowc_g, colc_g FROM photoPrimary WHERE objID = %lld",
          static_cast<long long>(objids[rng.Uniform(objids.size())])));
    }
    total += run;
    instances.push_back(std::move(members));
  }

  // Rewrite each instance with the DW solver.
  std::vector<std::string> rewritten;
  for (const auto& members : instances) {
    std::vector<core::ParsedQuery> parsed(members.size());
    std::vector<const core::ParsedQuery*> pointers;
    for (size_t i = 0; i < members.size(); ++i) {
      auto facts = sql::ParseAndAnalyze(members[i]);
      if (!facts.ok()) {
        std::fprintf(stderr, "parse failed: %s\n", facts.status().ToString().c_str());
        return 1;
      }
      parsed[i].facts = std::move(facts.value());
      pointers.push_back(&parsed[i]);
    }
    auto rewrite = core::RewriteDwStifle(pointers);
    if (!rewrite.ok()) {
      std::fprintf(stderr, "rewrite failed: %s\n", rewrite.status().ToString().c_str());
      return 1;
    }
    rewritten.push_back(std::move(rewrite.value()));
  }

  // Run the originals.
  Timer original_timer;
  size_t original_rows = 0;
  for (const auto& members : instances) {
    for (const auto& sql : members) {
      auto result = executor.ExecuteSql(sql);
      if (!result.ok()) {
        std::fprintf(stderr, "exec failed: %s\n", result.status().ToString().c_str());
        return 1;
      }
      original_rows += result->row_count();
    }
  }
  double original_seconds = original_timer.ElapsedSeconds();

  // Run the rewrites.
  Timer rewritten_timer;
  size_t rewritten_rows = 0;
  for (const auto& sql : rewritten) {
    auto result = executor.ExecuteSql(sql);
    if (!result.ok()) {
      std::fprintf(stderr, "exec failed: %s\n", result.status().ToString().c_str());
      return 1;
    }
    rewritten_rows += result->row_count();
  }
  double rewritten_seconds = rewritten_timer.ElapsedSeconds();

  std::printf("%-22s %12s %12s\n", "", "original", "rewritten");
  std::printf("%-22s %12s %12s\n", "statements", bench::Thousands(total).c_str(),
              bench::Thousands(rewritten.size()).c_str());
  std::printf("%-22s %12.2f %12.2f\n", "runtime (s)", original_seconds, rewritten_seconds);
  std::printf("%-22s %12s %12s\n", "result rows", bench::Thousands(original_rows).c_str(),
              bench::Thousands(rewritten_rows).c_str());
  std::printf("\nstatement reduction: %.1fx (paper: 40.2x)\n",
              static_cast<double>(total) / static_cast<double>(rewritten.size()));
  std::printf("speedup:             %.2fx (paper: 29.27x)\n",
              original_seconds / rewritten_seconds);
  std::printf("\nNote: result-row counts can differ slightly because repeated objids\n"
              "inside one instance deduplicate in the IN-list — the rewrite returns\n"
              "each object once, which is the intended semantics.\n");

  if (!json_path.empty()) {
    FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(out, "{\n  \"benchmark\": \"sec63_runtime\",\n");
    std::fprintf(out, "  \"stifle\": {\n");
    std::fprintf(out, "    \"original_statements\": %zu,\n", total);
    std::fprintf(out, "    \"rewritten_statements\": %zu,\n", rewritten.size());
    std::fprintf(out, "    \"original_seconds\": %.6f,\n", original_seconds);
    std::fprintf(out, "    \"rewritten_seconds\": %.6f,\n", rewritten_seconds);
    std::fprintf(out, "    \"speedup\": %.3f\n  },\n",
                 bench::SafeDiv(original_seconds, rewritten_seconds));
    WriteOocJson(out, ooc_cells, ooc_rows, ooc_pages, ooc_speedup, ooc_rss_bounded);
    std::fprintf(out, ",\n  \"peak_rss_bytes\": %zu\n}\n", SelfPeakRssBytes());
    std::fclose(out);
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
}
