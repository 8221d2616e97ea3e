#ifndef SQLOG_BENCH_SUITE_TRACE_H_
#define SQLOG_BENCH_SUITE_TRACE_H_

#include <chrono>
#include <map>
#include <string>
#include <vector>

#include "util/status.h"

namespace sqlog::bench::suite {

/// Span and counter recorder for the traced child. Spans are timed in
/// the bench's own files around calls into each layer's public API;
/// nothing inside the program is instrumented. Events stay in memory
/// and are written once, after the measured window, as Chrome
/// trace-event JSON (the array form), so Perfetto opens the file as is.
///
/// Each layer's busy time is the sum of its top-level spans plus the
/// per-record slices added with Accumulate (streaming reads and dedup
/// decisions are too fine-grained for one event each).
class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Tracer(int pid) : pid_(pid), origin_(Clock::now()) {}

  static Clock::time_point Now() { return Clock::now(); }
  static double Seconds(Clock::time_point start, Clock::time_point end) {
    return std::chrono::duration<double>(end - start).count();
  }

  /// A top-level span of `layer`: recorded as an event and added to the
  /// layer's busy time. `args` is a JSON object body ("" for none).
  void Layer(const std::string& layer, Clock::time_point start, Clock::time_point end,
             const std::string& args = "");

  /// An event only (e.g. one streaming batch); no layer time.
  void Mark(const std::string& name, Clock::time_point start, Clock::time_point end,
            const std::string& args = "");

  /// Adds busy time to `layer` without an event.
  void Accumulate(const std::string& layer, double seconds) { busy_[layer] += seconds; }

  /// A "C" counter event: `args` holds the series values.
  void Counter(const std::string& name, Clock::time_point at, const std::string& args);

  double busy(const std::string& layer) const;
  /// Sum of every layer's busy time (the numerator of trace.coverage).
  double covered() const;

  /// Writes the events as a JSON array of trace-event objects.
  Status WriteEvents(const std::string& path) const;

 private:
  struct Event {
    char phase;
    std::string name;
    double ts_us;
    double dur_us;
    std::string args;
  };

  double Us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  int pid_;
  Clock::time_point origin_;
  std::vector<Event> events_;
  std::map<std::string, double> busy_;
};

/// Times a scope as one top-level span of `layer`.
class ScopedLayer {
 public:
  ScopedLayer(Tracer& tracer, std::string layer)
      : tracer_(tracer), layer_(std::move(layer)), start_(Tracer::Now()) {}
  ~ScopedLayer() { tracer_.Layer(layer_, start_, Tracer::Now()); }

  ScopedLayer(const ScopedLayer&) = delete;
  ScopedLayer& operator=(const ScopedLayer&) = delete;

 private:
  Tracer& tracer_;
  std::string layer_;
  Tracer::Clock::time_point start_;
};

}  // namespace sqlog::bench::suite

#endif  // SQLOG_BENCH_SUITE_TRACE_H_
