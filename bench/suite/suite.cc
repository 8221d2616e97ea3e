#include "suite.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "util/hash.h"
#include "util/string_util.h"

namespace sqlog::bench::suite {

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& workload : kWorkloads) {
    if (name == workload.name) return &workload;
  }
  return nullptr;
}

size_t ThreadsFor(const Workload& workload) {
  size_t hardware = std::max<size_t>(1, std::thread::hardware_concurrency());
  return std::min(workload.max_threads, hardware);
}

Sizes SizesFor(bool smoke) {
  if (smoke) return Sizes{5000, 20000, 5000, 20000, 64, 2, 0.0};
  // Full sizes keep one rep of each workload between ~1 and ~3 s, so a
  // 20 s run holds enough reps for a stable median. W4's table is 223
  // MiB behind a 4 MiB pool: every probe runs out of cache. One set-up
  // of W1-W3 takes 0.03-0.3 s, too short for a steady median of a few,
  // so it repeats for at least 2 s (30-60 repetitions of W1 and W3, 9 of
  // W2).
  return Sizes{100000, 100000, 100000, 1000000, 512, 9, 2.0};
}

Files::Files(const std::string& dir, const Workload& workload)
    : input_csv(dir + "/input.csv"),
      input_sqb(dir + "/input.sqb"),
      script(dir + "/script.txt"),
      clean(dir + (workload.sqb ? "/out.clean.sqb" : "/out.clean.csv")),
      removal(dir + (workload.sqb ? "/out.removal.sqb" : "/out.removal.csv")),
      ref_clean(dir + "/ref.clean.csv"),
      ref_removal(dir + "/ref.removal.csv"),
      norm_clean(dir + "/norm.clean.csv"),
      norm_removal(dir + "/norm.removal.csv"),
      events(dir + "/events.json") {}

void RemoveFile(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

void RemoveOutputs(const Files& files) {
  RemoveFile(files.clean);
  RemoveFile(files.removal);
}

void EmitMetric(std::string_view name, double value) {
  std::printf("m %.*s %.17g\n", static_cast<int>(name.size()), name.data(), value);
}

void EmitText(std::string_view name, std::string_view text) {
  std::printf("s %.*s %.*s\n", static_cast<int>(name.size()), name.data(),
              static_cast<int>(text.size()), text.data());
}

double CpuSeconds() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

size_t CurrentRssBytes() {
  FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0;
  char line[256];
  size_t kb = 0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::sscanf(line, "VmRSS: %zu kB", &kb) == 1) break;
  }
  std::fclose(status);
  return kb * 1024;
}

uint64_t FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return 0;
  return static_cast<uint64_t>(in.tellg());
}

Result<std::string> FileDigest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open for digest: " + path);
  std::vector<char> buffer(1 << 20);
  uint64_t hash = 0xcbf29ce484222325ULL;
  while (in) {
    in.read(buffer.data(), static_cast<std::streamsize>(buffer.size()));
    hash = Fnv1a64(std::string_view(buffer.data(), static_cast<size_t>(in.gcount())), hash);
  }
  if (in.bad()) return Status::IoError("read failed during digest: " + path);
  return StrFormat("%016llx", static_cast<unsigned long long>(hash));
}

Summary Summarize(std::vector<double> samples) {
  Summary summary;
  summary.n = samples.size();
  if (samples.empty()) return summary;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  summary.median = n % 2 == 1 ? samples[n / 2] : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
  if (n == 1) {
    summary.q1 = summary.q3 = samples[0];
    return summary;
  }
  // statistics.quantiles(method="exclusive"): m = n + 1, cut points at
  // i*m/4 with the index clamped to [1, n-1] and linear interpolation.
  auto cut = [&](size_t i) {
    const size_t m = n + 1;
    size_t j = std::clamp<size_t>(i * m / 4, 1, n - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (samples[j - 1] * (4.0 - delta) + samples[j] * delta) / 4.0;
  };
  summary.q1 = cut(1);
  summary.q3 = cut(3);
  return summary;
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  double rank = std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

}  // namespace sqlog::bench::suite
