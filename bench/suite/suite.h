#ifndef SQLOG_BENCH_SUITE_SUITE_H_
#define SQLOG_BENCH_SUITE_SUITE_H_

// Shared declarations of the sqlog_bench suite: the workload table, the
// metric catalogue, the parent/child line protocol and small measurement
// helpers. The parent process (sqlog_bench.cc) only orchestrates; every
// input generation, timed rep, traced run and oracle runs in a fresh
// child process, so each one's CPU time and peak RSS are its own.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace sqlog::bench::suite {

/// Default `--seed`: the generator's own default (ICDE'18 vintage).
inline constexpr uint64_t kDefaultSeed = 20180416;

/// The entry point a workload drives.
enum class Path {
  kRun,        // LogIo::ReadFile + Pipeline::Run + LogIo::WriteFile
  kStreaming,  // Pipeline::RunStreaming
  kReplay,     // engine::Executor over a paged photoprimary
};

struct Workload {
  const char* name;
  Path path;
  size_t max_threads;  // capped at the host's hardware threads
  size_t batch_size;   // kStreaming only
  bool sqb;            // `.sqb` input and outputs (else CSV)
  bool adhoc;          // synthetic parser stress log instead of the study mix
};

/// The four workloads. Why each exists is recorded in README.md and
/// BENCHMARK.json; in short, W1 and W3 sit at opposite ends of the
/// parse-cache hit rate, W2 bypasses parsing and threading entirely, and
/// W4 exercises only the engine.
inline constexpr Workload kWorkloads[] = {
    {"study-mem-t4", Path::kRun, 4, 0, false, false},
    {"study-sqb-stream-t1", Path::kStreaming, 1, 4096, true, false},
    {"adhoc-stream-t4", Path::kStreaming, 4, 16384, false, true},
    {"stifle-replay-ooc", Path::kReplay, 1, 0, false, false},
};

/// The oracle reference of the `.sqb` workload: W1 runs the same log as
/// CSV, so W2's outputs decoded to CSV must be W1's outputs byte for byte.
inline constexpr const Workload& kSqbReference = kWorkloads[0];

const Workload* FindWorkload(std::string_view name);

/// min(workload.max_threads, hardware threads).
size_t ThreadsFor(const Workload& workload);

/// Input sizes. `--smoke` shrinks every workload so the suite finishes
/// in seconds; it checks correctness, not speed.
struct Sizes {
  size_t study_statements;   // GeneratorConfig::target_statements (W1, W2)
  size_t adhoc_records;      // W3 log length
  size_t stifle_statements;  // W4 original point lookups
  size_t photo_rows;         // W4 photoprimary rows
  size_t buffer_pages;       // W4 buffer pool (8 KiB pages)
  size_t setup_reps;         // fewest set-up repetitions (median reported)
  double setup_seconds;      // W1-W3 repeat set-up until this much has run
};
Sizes SizesFor(bool smoke);

/// Paths inside one workload's scratch directory.
struct Files {
  Files(const std::string& dir, const Workload& workload);

  std::string input_csv;
  std::string input_sqb;
  std::string script;       // W4 statements
  std::string clean;        // rep outputs (.sqb for W2)
  std::string removal;
  std::string ref_clean;    // oracle outputs, always CSV
  std::string ref_removal;
  std::string norm_clean;   // rep outputs decoded to CSV (W2)
  std::string norm_removal;
  std::string events;       // traced child's Chrome trace events
};

/// Deletes `path` if it exists, so the next write creates a fresh file.
/// Every timed write goes to a fresh file, as a run to a new path does:
/// rewriting a file in place truncates it, and ext4 then forces its
/// write-back at close (auto_da_alloc), which adds disk time that
/// depends on the host's disk, not on the program.
void RemoveFile(const std::string& path);

/// Removes a rep's clean and removal outputs (see RemoveFile).
void RemoveOutputs(const Files& files);

/// The input a streaming or in-memory rep reads.
inline const std::string& InputPath(const Files& files, const Workload& workload) {
  return workload.sqb ? files.input_sqb : files.input_csv;
}

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics: measured untraced, one sample per timed rep.
/// Names and units must match BENCHMARK.json (check_results.py checks).
inline constexpr MetricDef kEndToEnd[] = {
    {"records_per_s", "records/s"},
    {"cpu_s_per_mrec", "s/Mrec"},
    {"peak_rss_mb", "MiB"},
    {"setup_s", "s"},
};

/// Per-layer metrics: measured by the traced child, one sample per
/// traced rep. A layer a workload bypasses reports 0.
inline constexpr MetricDef kPerLayer[] = {
    {"log.read_s", "s"},
    {"log.write_s", "s"},
    {"log.bytes_in", "B"},
    {"log.bytes_out", "B"},
    {"core.copy_s", "s"},
    {"core.dedup_s", "s"},
    {"core.dedup.removed", "count"},
    {"core.dedup.rss_mb", "MiB"},
    {"core.parse_s", "s"},
    {"core.parse.batch_ms_p50", "ms"},
    {"core.parse.batch_ms_p90", "ms"},
    {"core.parse.full_parses", "count"},
    {"core.parse.full_parse_ratio", "ratio"},
    {"core.parse.cache_hit_ratio", "ratio"},
    {"core.parse.templates", "count"},
    {"core.parse.cache_mb", "MiB"},
    {"core.parse.rss_mb", "MiB"},
    {"core.mine_s", "s"},
    {"core.mine.patterns", "count"},
    {"core.detect_s", "s"},
    {"core.detect.instances", "count"},
    {"core.detect.solvable", "count"},
    {"core.sws_s", "s"},
    {"core.solve_s", "s"},
    {"core.solve.merged", "count"},
    {"core.solve.rewritten_in_place", "count"},
    {"core.solve.rewrite_failures", "count"},
    {"engine.parse_s", "s"},
    {"engine.exec_s", "s"},
    {"engine.index_scans", "count"},
    {"engine.full_scans", "count"},
    {"engine.point_us_p50", "us"},
    {"engine.point_us_p99", "us"},
    {"engine.inlist_us_p50", "us"},
    {"engine.inlist_us_p99", "us"},
    {"engine.pool.hit_ratio", "ratio"},
    {"engine.pool.misses_per_point", "count"},
    {"engine.pool.misses_per_inlist", "count"},
    {"engine.pool.evictions", "count"},
    {"engine.pool.writebacks", "count"},
    {"engine.populate_s", "s"},
    {"engine.index_build_s", "s"},
    {"trace.wall_s", "s"},
    {"trace.coverage", "ratio"},
    {"trace.overhead", "ratio"},
};

/// The W3 band on core.parse.full_parse_ratio: outside it the ad-hoc log
/// no longer stresses the parser the way the workload claims.
inline constexpr double kAdhocFullParseMin = 0.3;
inline constexpr double kAdhocFullParseMax = 0.7;

// --- child → parent line protocol -------------------------------------
//
// A child writes "m <name> <number>" per metric sample (a name may
// repeat; each line is one sample) and "s <name> <text>" per string,
// such as a digest. Everything else on stdout is ignored.

void EmitMetric(std::string_view name, double value);
void EmitText(std::string_view name, std::string_view text);

/// Arguments every child mode receives.
struct ChildArgs {
  const Workload* workload = nullptr;
  uint64_t seed = kDefaultSeed;
  std::string dir;
  bool smoke = false;
  bool traced = false;  // rep mode: re-compose the run from layer calls
  int trace_pid = 1;    // Chrome trace pid of this workload
};

/// Generates the workload's input files and times its set-up.
int PrepareChild(const ChildArgs& args);
/// One rep of W1-W3 (untraced: the real entry point; traced: the same
/// run re-composed from public layer calls, with spans).
int PipelineRepChild(const ChildArgs& args);
/// W1-W3 reference outputs from a second entry point, plus the rep
/// outputs normalised to CSV for comparison.
int PipelineOracleChild(const ChildArgs& args);
/// One rep of W4 (traced: parse and execute timed apart).
int ReplayRepChild(const ChildArgs& args);
/// W4 semantic check: every rewrite returns the rows of its originals.
int ReplayOracleChild(const ChildArgs& args);

// --- measurement helpers ----------------------------------------------

/// User + system CPU seconds of this process, all threads included.
double CpuSeconds();
/// Current resident set (VmRSS) in bytes; 0 when unavailable.
size_t CurrentRssBytes();
inline double Mib(double bytes) { return bytes / (1024.0 * 1024.0); }
/// Size of a file in bytes; 0 when it cannot be read.
uint64_t FileBytes(const std::string& path);
/// FNV-1a 64 of a file's bytes as 16 hex digits.
Result<std::string> FileDigest(const std::string& path);

/// Median and quartiles as Python's statistics.median and
/// statistics.quantiles(n=4) (exclusive method) compute them, so the
/// suite's numbers and the checking scripts agree.
struct Summary {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  size_t n = 0;
};
Summary Summarize(std::vector<double> samples);

/// The p-th percentile (0-100, nearest rank) of `samples`; 0 when empty.
double Percentile(std::vector<double> samples, double p);

}  // namespace sqlog::bench::suite

#endif  // SQLOG_BENCH_SUITE_SUITE_H_
