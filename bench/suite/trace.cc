#include "trace.h"

#include <cstdio>

#include "util/string_util.h"

namespace sqlog::bench::suite {

void Tracer::Layer(const std::string& layer, Clock::time_point start,
                   Clock::time_point end, const std::string& args) {
  busy_[layer] += Seconds(start, end);
  Mark(layer, start, end, args);
}

void Tracer::Mark(const std::string& name, Clock::time_point start, Clock::time_point end,
                  const std::string& args) {
  events_.push_back({'X', name, Us(start), Us(end) - Us(start), args});
}

void Tracer::Counter(const std::string& name, Clock::time_point at,
                     const std::string& args) {
  events_.push_back({'C', name, Us(at), 0.0, args});
}

double Tracer::busy(const std::string& layer) const {
  auto it = busy_.find(layer);
  return it == busy_.end() ? 0.0 : it->second;
}

double Tracer::covered() const {
  double total = 0.0;
  for (const auto& [layer, seconds] : busy_) total += seconds;
  return total;
}

Status Tracer::WriteEvents(const std::string& path) const {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return Status::IoError("cannot write trace events: " + path);
  std::fputs("[\n", out);
  for (size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    // Names are layer ids from this file set ([a-z0-9._]), never user
    // text, so they need no JSON escaping.
    std::string line = StrFormat(R"({"name": "%s", "ph": "%c", "pid": %d, "tid": 1, "ts": %.3f)",
                                 e.name.c_str(), e.phase, pid_, e.ts_us);
    if (e.phase == 'X') line += StrFormat(", \"dur\": %.3f", e.dur_us);
    if (!e.args.empty()) line += ", \"args\": {" + e.args + "}";
    line += i + 1 < events_.size() ? "},\n" : "}\n";
    std::fputs(line.c_str(), out);
  }
  std::fputs("]\n", out);
  return std::fclose(out) == 0 ? Status::OK()
                               : Status::IoError("cannot finish trace events: " + path);
}

}  // namespace sqlog::bench::suite
