// sqlog_bench: end-to-end and per-layer benchmark of the real cleaning
// paths over four named workloads (README.md has the protocol, the
// metric glossary and the layer → end-to-end map).
//
//   sqlog_bench [--workload=NAME] [--seed=N] [--seconds=S]
//               [--phase=e2e|layers|both] [--smoke] [--out=results.json]
//               [--trace=chrome.json] [--git=SHA[+dirty]]
//
// For each workload the parent generates the input once (in a child),
// runs one warm-up rep, then timed reps until `--seconds` have passed
// and at least six reps ran (phase e2e), then untraced/traced rep pairs
// (phase layers). Every rep is a fresh fork/exec child, so its CPU time
// and peak RSS are its own. An oracle child then checks the outputs
// through a second entry point. Without --workload all four run. The last
// stdout line is one JSON object: {"correct", "attempted", "failed",
// "metrics": {name: {value, unit}}}; for a single workload the metrics
// are the end-to-end ones (phase e2e) or the per-layer ones (phase
// layers) as medians over the reps.

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "suite.h"
#include "util/simd.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace sqlog::bench::suite {
namespace {

enum class Phase { kEndToEnd, kLayers, kBoth };

struct Options {
  std::vector<const Workload*> workloads;
  uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool seconds_set = false;
  Phase phase = Phase::kBoth;
  bool smoke = false;
  std::string out;
  std::string trace;
  std::string git = "unknown";
};

/// Fewest timed reps (phase e2e) and untraced/traced pairs (phase
/// layers) per workload, whatever `--seconds` says.
size_t MinTimedReps(const Options& o) { return o.smoke ? 2 : 6; }
size_t MinTracedPairs(const Options& o) { return o.smoke ? 1 : 3; }
/// No rep starts after this many seconds of one phase, which keeps a
/// whole invocation inside three minutes on a slow host.
constexpr double kPhaseCapSeconds = 60.0;
/// How long WarmCpus runs before a workload's first rep.
constexpr double kWarmCpuSeconds = 2.0;

/// Keeps `threads` threads busy for `seconds`. On the 4-vCPU VM the
/// suite was defined on, the threads of a rep that follows half a
/// minute of idle vCPUs stay serialized for minutes (W1: CPU time ÷
/// wall ≈ 1.0, its throughput a third lower), while after any burst of
/// load on every vCPU they run in parallel (≈ 1.4) for as long as reps
/// keep coming. Two seconds of load on the CPUs the workload uses put
/// every run in the second state before anything is timed.
void WarmCpus(size_t threads, double seconds) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::duration<double>(seconds);
  std::vector<std::thread> spinners;
  for (size_t i = 0; i < threads; ++i) {
    spinners.emplace_back([deadline] {
      volatile uint64_t spins = 0;
      while (std::chrono::steady_clock::now() < deadline) {
        for (int j = 0; j < 10000; ++j) spins = spins + 1;
      }
    });
  }
  for (std::thread& spinner : spinners) spinner.join();
}

const char* UnitOf(const std::string& name) {
  for (const MetricDef& def : kEndToEnd) {
    if (name == def.name) return def.unit;
  }
  for (const MetricDef& def : kPerLayer) {
    if (name == def.name) return def.unit;
  }
  return "";
}

// --- children -----------------------------------------------------------

struct ChildResult {
  bool ok = false;
  std::map<std::string, std::vector<double>> metrics;
  std::map<std::string, std::string> texts;

  double Get(const std::string& name) const {
    auto it = metrics.find(name);
    return it == metrics.end() || it->second.empty() ? 0.0 : it->second.front();
  }
  std::string Text(const std::string& name) const {
    auto it = texts.find(name);
    return it == texts.end() ? "" : it->second;
  }
};

/// Re-executes this binary with `args` and collects the child's
/// metric/text lines from a pipe on its stdout (the bench_sec63_runtime
/// child pattern); stderr passes through.
ChildResult RunChild(const std::string& exe, const std::vector<std::string>& args) {
  ChildResult result;
  int fds[2];
  if (pipe(fds) != 0) return result;
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(exe.c_str()));
  for (const std::string& arg : args) argv.push_back(const_cast<char*>(arg.c_str()));
  argv.push_back(nullptr);
  std::fflush(stdout);
  pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return result;
  }
  if (pid == 0) {
    close(fds[0]);
    dup2(fds[1], STDOUT_FILENO);
    close(fds[1]);
    execv(exe.c_str(), argv.data());
    _exit(127);
  }
  close(fds[1]);
  if (FILE* in = fdopen(fds[0], "r"); in != nullptr) {
    char line[1024];
    while (std::fgets(line, sizeof line, in) != nullptr) {
      char kind = 0;
      char name[256];
      char value[512];
      if (std::sscanf(line, "%c %255s %511s", &kind, name, value) != 3) continue;
      if (kind == 'm') result.metrics[name].push_back(std::strtod(value, nullptr));
      if (kind == 's') result.texts[name] = value;
    }
    std::fclose(in);
  } else {
    close(fds[0]);
  }
  int status = 0;
  if (waitpid(pid, &status, 0) != pid) return result;
  result.ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  return result;
}

// --- one workload ---------------------------------------------------------

using Samples = std::map<std::string, std::vector<double>>;

struct WorkloadResult {
  const Workload* workload = nullptr;
  double records = 0;  // per rep: log records in (W4: statements replayed)
  Samples end_to_end;
  Samples layers;
  Samples info;                    // informational, not metrics
  std::set<std::string> digests;   // distinct rep output digests: must be one
  std::string ref_digest;          // oracle's reference outputs (CSV)
  std::string norm_digest;         // rep outputs normalised to CSV
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> errors;
  std::string events;  // last traced rep's Chrome trace events (JSON array)

  bool correct() const { return errors.empty() && failed == 0; }
  void Error(const std::string& error) {
    if (std::find(errors.begin(), errors.end(), error) == errors.end()) errors.push_back(error);
  }
};

class Runner {
 public:
  Runner(std::string exe, const Options& options, std::string run_dir)
      : exe_(std::move(exe)), options_(options), run_dir_(std::move(run_dir)) {}

  WorkloadResult Run(const Workload& workload, int pid) {
    WorkloadResult r;
    r.workload = &workload;
    dir_ = run_dir_ + "/" + workload.name;
    pid_ = pid;
    std::error_code ec;
    if (std::filesystem::create_directories(dir_, ec); ec) {
      r.Error("cannot create " + dir_);
      return r;
    }
    Execute(r);
    std::filesystem::remove_all(dir_, ec);
    return r;
  }

 private:
  bool replay() const { return current_->path == Path::kReplay; }

  std::vector<std::string> Args(const char* mode, bool traced) const {
    std::vector<std::string> args = {StrFormat("--child=%s", mode),
                                     StrFormat("--workload=%s", current_->name),
                                     StrFormat("--seed=%llu", (unsigned long long)options_.seed),
                                     "--dir=" + dir_, StrFormat("--pid=%d", pid_)};
    if (options_.smoke) args.push_back("--smoke");
    if (traced) args.push_back("--traced");
    return args;
  }

  void Execute(WorkloadResult& r) {
    current_ = r.workload;
    ChildResult prepared = RunChild(exe_, Args("prepare", false));
    if (!prepared.ok) {
      r.Error("input generation failed");
      return;
    }
    r.records = prepared.Get("records");
    if (!replay()) {
      r.end_to_end["setup_s"] = prepared.metrics["setup_s"];
      r.info["input_bytes"].push_back(prepared.Get("input_bytes"));
    } else {
      r.info["inlist_statements"].push_back(prepared.Get("inlists"));
    }

    if (!options_.smoke) WarmCpus(ThreadsFor(*current_), kWarmCpuSeconds);
    ChildResult warm;
    if (!Rep(r, false, &warm)) return;  // warm-up: checked, not timed
    if (options_.phase != Phase::kLayers && !TimedReps(r)) return;
    if (options_.phase != Phase::kEndToEnd && !TracedPairs(r)) return;
    Oracle(r);
  }

  /// What one rep attempts: a run (W1-W3) or its statements (W4).
  size_t Operations(const WorkloadResult& r) const {
    return replay() ? static_cast<size_t>(r.records) : 1;
  }

  /// Runs one rep, counts what it attempted and applies the per-rep
  /// checks. Returns false (with the failure recorded) when the rep did
  /// not complete.
  bool Rep(WorkloadResult& r, bool traced, ChildResult* rep) {
    if (!replay()) RemoveOutputs(Files(dir_, *current_));
    *rep = RunChild(exe_, Args(replay() ? "replay" : "rep", traced));
    r.attempted += Operations(r);
    if (!rep->ok) {
      r.failed += Operations(r);
      r.Error(traced ? "traced rep failed" : "rep failed");
      return false;
    }
    std::string digest;
    if (replay()) {
      digest = rep->Text("digest");
      r.failed += static_cast<size_t>(rep->Get("failed"));
      if (rep->Get("full_scans") != 0) r.Error("a replayed statement full-scanned");
    } else {
      const Files files(dir_, *current_);
      auto clean = FileDigest(files.clean);
      auto removal = FileDigest(files.removal);
      if (!clean.ok() || !removal.ok()) {
        r.Error("rep outputs missing");
        return false;
      }
      digest = *clean + "/" + *removal;
      if (current_->adhoc && !traced) {
        const double ratio = rep->Get("full_parse_ratio");
        r.info["full_parse_ratio"].push_back(ratio);
        if (ratio < kAdhocFullParseMin || ratio > kAdhocFullParseMax) {
          r.Error(StrFormat("full-parse ratio %.3f outside [%.1f, %.1f]", ratio,
                            kAdhocFullParseMin, kAdhocFullParseMax));
        }
      }
    }
    r.digests.insert(digest);
    if (r.digests.size() > 1) {
      r.Error(traced ? "traced outputs differ from untraced reps"
                     : "rep outputs differ between reps");
    }
    return true;
  }

  bool TimedReps(WorkloadResult& r) {
    Timer phase;
    size_t reps = 0;
    while ((phase.ElapsedSeconds() < options_.seconds || reps < MinTimedReps(options_)) &&
           phase.ElapsedSeconds() < kPhaseCapSeconds) {
      ChildResult rep;
      if (!Rep(r, false, &rep)) return false;
      ++reps;
      const double records = rep.Get("records");
      r.end_to_end["records_per_s"].push_back(SafeDiv(records, rep.Get("wall_s")));
      r.end_to_end["cpu_s_per_mrec"].push_back(SafeDiv(rep.Get("cpu_s"), records / 1e6));
      r.end_to_end["peak_rss_mb"].push_back(Mib(rep.Get("peak_rss_bytes")));
      if (replay()) {
        r.end_to_end["setup_s"].push_back(rep.Get("setup_s"));
        for (const char* name : {"point_us_p50", "point_us_p99", "inlist_us_p50",
                                 "inlist_us_p99", "original_s", "rewritten_s"}) {
          r.info[name].push_back(rep.Get(name));
        }
        r.info["rewrite_speedup"].push_back(
            SafeDiv(rep.Get("original_s"), rep.Get("rewritten_s")));
      }
    }
    if (reps < MinTimedReps(options_)) r.Error("too few timed reps");
    return true;
  }

  /// Untraced/traced pairs: per-layer numbers come from the traced rep,
  /// trace.overhead compares it with the untraced rep just before it.
  bool TracedPairs(WorkloadResult& r) {
    Timer phase;
    size_t pairs = 0;
    while ((phase.ElapsedSeconds() < options_.seconds || pairs < MinTracedPairs(options_)) &&
           phase.ElapsedSeconds() < kPhaseCapSeconds) {
      ChildResult plain;
      ChildResult traced;
      if (!Rep(r, false, &plain) || !Rep(r, true, &traced)) return false;
      ++pairs;
      for (const MetricDef& def : kPerLayer) {
        const bool overhead = std::strcmp(def.name, "trace.overhead") == 0;
        r.layers[def.name].push_back(
            overhead ? SafeDiv(traced.Get("trace.wall_s"), plain.Get("wall_s")) - 1.0
                     : traced.Get(def.name));
      }
      std::ifstream events(Files(dir_, *current_).events);
      std::stringstream text;
      text << events.rdbuf();
      r.events = text.str();
    }
    if (pairs < MinTracedPairs(options_)) r.Error("too few traced reps");
    return true;
  }

  void Oracle(WorkloadResult& r) {
    ChildResult oracle = RunChild(exe_, Args(replay() ? "replay-oracle" : "oracle", false));
    if (!oracle.ok) {
      r.Error("oracle failed");
      return;
    }
    if (replay()) {
      if (oracle.Get("mismatched_runs") != 0) {
        r.Error(StrFormat("%.0f rewrites return other rows than their originals",
                          oracle.Get("mismatched_runs")));
      }
      return;
    }
    r.ref_digest = oracle.Text("ref_clean") + "/" + oracle.Text("ref_removal");
    r.norm_digest = oracle.Text("norm_clean") + "/" + oracle.Text("norm_removal");
    if (r.ref_digest != r.norm_digest) {
      r.Error(current_->sqb ? StrFormat("decoded outputs differ from %s's CSV outputs",
                                        kSqbReference.name)
                            : std::string("outputs differ from the reference entry point"));
    }
  }

  std::string exe_;
  const Options& options_;
  std::string run_dir_;
  std::string dir_;
  int pid_ = 1;
  const Workload* current_ = nullptr;
};

// --- output ---------------------------------------------------------------

std::string Num(double v) {
  return std::isfinite(v) ? StrFormat("%.17g", v) : "0";
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) {
      out += StrFormat("\\u%04x", c);
      continue;
    }
    out.push_back(c);
  }
  return out + "\"";
}

std::string SummaryJson(const std::string& name, const std::vector<double>& samples) {
  const Summary s = Summarize(samples);
  std::string out = StrFormat("%s: {\"unit\": %s, \"median\": %s, \"q1\": %s, \"q3\": %s, "
                              "\"n\": %zu, \"samples\": [",
                              Quote(name).c_str(), Quote(UnitOf(name)).c_str(),
                              Num(s.median).c_str(), Num(s.q1).c_str(), Num(s.q3).c_str(), s.n);
  for (size_t i = 0; i < samples.size(); ++i) {
    out += (i > 0 ? ", " : "") + Num(samples[i]);
  }
  return out + "]}";
}

std::string SamplesJson(const Samples& samples, const char* indent) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, values] : samples) {
    out += (first ? "\n" : ",\n") + std::string(indent) + "  " + SummaryJson(name, values);
    first = false;
  }
  return out + "\n" + indent + "}";
}

std::string Compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

std::string PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kEndToEnd: return "e2e";
    case Phase::kLayers: return "layers";
    case Phase::kBoth: return "both";
  }
  return "both";
}

Status WriteResults(const Options& o, const std::vector<WorkloadResult>& results) {
  const bool dirty = o.git.size() > 6 && o.git.compare(o.git.size() - 6, 6, "+dirty") == 0;
  std::string doc = "{\n  \"suite\": \"sqlog_bench\",\n  \"provenance\": {";
  doc += StrFormat(
      "\"git_sha\": %s, \"git_dirty\": %s, \"nproc\": %u, \"compiler\": %s, "
      "\"build_type\": %s, \"simd_level\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"phase\": %s, \"smoke\": %s},\n  \"workloads\": {",
      Quote(dirty ? o.git.substr(0, o.git.size() - 6) : o.git).c_str(),
      dirty ? "true" : "false", std::thread::hardware_concurrency(),
      Quote(Compiler()).c_str(), Quote(SQLOG_BENCH_BUILD_TYPE).c_str(),
      Quote(simd::LevelName(simd::ActiveLevel())).c_str(), (unsigned long long)o.seed,
      Num(o.seconds).c_str(), Quote(PhaseName(o.phase)).c_str(), o.smoke ? "true" : "false");
  for (size_t i = 0; i < results.size(); ++i) {
    const WorkloadResult& r = results[i];
    const Workload& w = *r.workload;
    std::string errors = "[";
    for (size_t e = 0; e < r.errors.size(); ++e) errors += (e > 0 ? ", " : "") + Quote(r.errors[e]);
    std::string digests = "[";
    for (const std::string& d : r.digests) digests += (digests.size() > 1 ? ", " : "") + Quote(d);
    doc += StrFormat(
        "%s\n    %s: {\n      \"params\": {\"threads\": %zu, \"batch_size\": %zu, "
        "\"format\": %s, \"records\": %s},\n"
        "      \"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"errors\": %s],\n"
        "      \"digests\": {\"reps\": %s], \"reference\": %s, \"normalized\": %s},\n",
        i > 0 ? "," : "", Quote(w.name).c_str(), ThreadsFor(w), w.batch_size,
        Quote(w.sqb ? "sqb" : "csv").c_str(), Num(r.records).c_str(),
        r.correct() ? "true" : "false", r.attempted, r.failed, errors.c_str(),
        digests.c_str(), Quote(r.ref_digest).c_str(), Quote(r.norm_digest).c_str());
    doc += "      \"end_to_end\": " + SamplesJson(r.end_to_end, "      ") + ",\n";
    doc += "      \"per_layer\": " + SamplesJson(r.layers, "      ") + ",\n";
    doc += "      \"info\": " + SamplesJson(r.info, "      ") + "\n    }";
  }
  doc += "\n  }\n}\n";
  std::ofstream out(o.out);
  out << doc;
  out.close();
  return out ? Status::OK() : Status::IoError("cannot write " + o.out);
}

Status WriteTrace(const std::string& path, const std::vector<WorkloadResult>& results) {
  std::string doc = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  for (size_t i = 0; i < results.size(); ++i) {
    const int pid = static_cast<int>(i) + 1;
    doc += StrFormat("%s{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": %d, "
                     "\"args\": {\"name\": %s}}",
                     first ? "" : ",\n", pid, Quote(results[i].workload->name).c_str());
    first = false;
    // The child wrote a JSON array; splice its elements in.
    const std::string& events = results[i].events;
    size_t open = events.find('[');
    size_t close = events.rfind(']');
    if (open == std::string::npos || close == std::string::npos || close <= open) continue;
    std::string body = events.substr(open + 1, close - open - 1);
    if (body.find('{') != std::string::npos) doc += ",\n" + body;
  }
  doc += "\n]}\n";
  std::ofstream out(path);
  out << doc;
  out.close();
  return out ? Status::OK() : Status::IoError("cannot write " + path);
}

double Median(const std::vector<double>& samples) { return Summarize(samples).median; }

void PrintSummary(const WorkloadResult& r) {
  std::printf("\n%s  (%s, %zu attempted, %zu failed)\n", r.workload->name,
              r.correct() ? "correct" : "INCORRECT", r.attempted, r.failed);
  for (const std::string& error : r.errors) std::printf("  error: %s\n", error.c_str());
  for (const Samples* samples : {&r.end_to_end, &r.layers, &r.info}) {
    for (const auto& [name, values] : *samples) {
      const Summary s = Summarize(values);
      std::printf("  %-32s %14.6g %-9s [%.6g, %.6g] n=%zu\n", name.c_str(), s.median,
                  UnitOf(name), s.q1, s.q3, s.n);
    }
  }
}

/// The result line: correctness over every workload run and, for a
/// single workload, the medians of the phase's metrics. A run of all
/// four leaves `metrics` empty; the summary and --out carry them.
std::string ResultLine(const Options& o, const std::vector<WorkloadResult>& results) {
  bool correct = !results.empty();
  size_t attempted = 0;
  size_t failed = 0;
  for (const WorkloadResult& r : results) {
    correct = correct && r.correct();
    attempted += r.attempted;
    failed += r.failed;
  }
  std::string metrics;
  auto add = [&](const char* name, const char* unit, const Samples& samples) {
    auto it = samples.find(name);
    const double value = it == samples.end() ? 0.0 : Median(it->second);
    metrics += StrFormat("%s%s: {\"value\": %s, \"unit\": %s}", metrics.empty() ? "" : ", ",
                         Quote(name).c_str(), Num(value).c_str(), Quote(unit).c_str());
  };
  if (results.size() == 1) {
    const WorkloadResult& r = results.front();
    if (o.phase != Phase::kLayers) {
      for (const MetricDef& def : kEndToEnd) add(def.name, def.unit, r.end_to_end);
    }
    if (o.phase != Phase::kEndToEnd) {
      for (const MetricDef& def : kPerLayer) add(def.name, def.unit, r.layers);
    }
  }
  return StrFormat("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {%s}}",
                   correct ? "true" : "false", attempted, failed, metrics.c_str());
}

// --- flags ------------------------------------------------------------------

bool Flag(const char* arg, const char* name, std::string* value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: sqlog_bench [--workload=NAME] [--seed=N] [--seconds=S]\n"
               "                   [--phase=e2e|layers|both] [--smoke] [--out=FILE]\n"
               "                   [--trace=FILE] [--git=SHA[+dirty]]\n"
               "workloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

int ChildMain(int argc, char** argv) {
  ChildArgs args;
  std::string mode;
  std::string value;
  for (int i = 1; i < argc; ++i) {
    if (Flag(argv[i], "--child", &mode)) continue;
    if (Flag(argv[i], "--workload", &value)) {
      args.workload = FindWorkload(value);
    } else if (Flag(argv[i], "--seed", &value)) {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (Flag(argv[i], "--dir", &value)) {
      args.dir = value;
    } else if (Flag(argv[i], "--pid", &value)) {
      args.trace_pid = std::atoi(value.c_str());
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      args.smoke = true;
    } else if (std::strcmp(argv[i], "--traced") == 0) {
      args.traced = true;
    }
  }
  if (args.workload == nullptr || args.dir.empty()) return 2;
  if (mode == "prepare") return PrepareChild(args);
  if (mode == "rep") return PipelineRepChild(args);
  if (mode == "oracle") return PipelineOracleChild(args);
  if (mode == "replay") return ReplayRepChild(args);
  if (mode == "replay-oracle") return ReplayOracleChild(args);
  return 2;
}

int Main(int argc, char** argv) {
  if (argc > 1 && std::strncmp(argv[1], "--child=", 8) == 0) return ChildMain(argc, argv);
  Options o;
  std::string value;
  for (int i = 1; i < argc; ++i) {
    if (Flag(argv[i], "--workload", &value)) {
      const Workload* workload = FindWorkload(value);
      if (workload == nullptr) {
        std::fprintf(stderr, "unknown workload '%s'\n", value.c_str());
        return Usage();
      }
      o.workloads = {workload};
    } else if (Flag(argv[i], "--seed", &value)) {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (Flag(argv[i], "--seconds", &value)) {
      o.seconds = std::strtod(value.c_str(), nullptr);
      o.seconds_set = true;
    } else if (Flag(argv[i], "--phase", &value)) {
      if (value == "e2e") {
        o.phase = Phase::kEndToEnd;
      } else if (value == "layers") {
        o.phase = Phase::kLayers;
      } else if (value == "both") {
        o.phase = Phase::kBoth;
      } else {
        return Usage();
      }
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      o.smoke = true;
    } else if (Flag(argv[i], "--out", &o.out) || Flag(argv[i], "--trace", &o.trace) ||
               Flag(argv[i], "--git", &o.git)) {
      continue;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", argv[i]);
      return Usage();
    }
  }
  if (o.workloads.empty()) {
    for (const Workload& workload : kWorkloads) o.workloads.push_back(&workload);
  }
  if (o.smoke && !o.seconds_set) o.seconds = 0.0;

  // Every file the suite writes (inputs, outputs, page files, temp
  // files of the engine) lives under one run directory in the working
  // directory, removed at exit.
  const std::string work_dir = "sqlog_bench-work";
  const std::string run_dir = StrFormat("%s/run-%d", work_dir.c_str(), getpid());
  std::error_code ec;
  std::filesystem::create_directories(run_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", run_dir.c_str(), ec.message().c_str());
    return 1;
  }
  setenv("TMPDIR", run_dir.c_str(), 1);

  std::printf("sqlog_bench: seed %llu, %s phase, %.0f s per phase, %u hardware threads%s\n",
              (unsigned long long)o.seed, PhaseName(o.phase).c_str(), o.seconds,
              std::thread::hardware_concurrency(), o.smoke ? ", smoke sizes" : "");
  Runner runner(argv[0], o, run_dir);
  std::vector<WorkloadResult> results;
  for (size_t i = 0; i < o.workloads.size(); ++i) {
    results.push_back(runner.Run(*o.workloads[i], static_cast<int>(i) + 1));
    PrintSummary(results.back());
  }
  std::filesystem::remove_all(run_dir, ec);
  std::filesystem::remove(work_dir, ec);  // only when empty

  int code = 0;
  if (!o.out.empty() && !WriteResults(o, results).ok()) code = 1;
  if (!o.trace.empty() && !WriteTrace(o.trace, results).ok()) code = 1;
  std::string line = ResultLine(o, results);
  for (const WorkloadResult& r : results) {
    if (!r.correct()) code = 1;
  }
  std::printf("%s\n", line.c_str());
  return code;
}

}  // namespace
}  // namespace sqlog::bench::suite

int main(int argc, char** argv) { return sqlog::bench::suite::Main(argc, argv); }
