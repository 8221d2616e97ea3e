#ifndef SQLOG_CORE_DETECTOR_H_
#define SQLOG_CORE_DETECTOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/template_store.h"
#include "util/status.h"

namespace sqlog::catalog {
class Schema;
}  // namespace sqlog::catalog

namespace sqlog::core {

/// One concrete occurrence: the member queries in log order.
struct AntipatternInstance {
  /// Index into the DetectorSet the report was produced with — the
  /// instance's only class discriminator.
  uint32_t detector = 0;
  std::vector<size_t> query_indices;  // indices into ParsedLog.queries
  /// Optional per-instance annotations a detector may attach (e.g. the
  /// offending column names). Not part of any golden output.
  std::vector<std::string> detail;
};

/// Empty: a custom rule is a Detector subclass registered with
/// DetectorRegistry::Register and selected by id. The name remains only
/// so that code naming DetectorOptions::custom_rules or
/// SolveAntipatterns' ignored parameter compiles.
struct CustomRule {};

/// Detector tuning.
struct DetectorOptions {
  /// Enforce Def. 11 axiom 3 (the filter column must be a key attribute,
  /// looked up in the schema catalog). Disabling it measures the
  /// false-positive cost the paper discusses.
  bool require_key_attribute = true;
  /// Queries of one instance must follow each other within this gap.
  int64_t max_gap_ms = 10 * 60 * 1000;
  /// Distinct candidates of min-support-filtered detectors (CTH) below
  /// this instance count are dropped (one-off organic coincidences).
  uint64_t cth_min_support = 3;
  /// Registry ids of the detectors to run, in evaluation order. Empty
  /// selects the paper's default set (DefaultDetectorIds()).
  std::vector<std::string> detector_ids;
  /// Must be empty: DetectorSet::Resolve rejects any entry.
  std::vector<CustomRule> custom_rules;
};

/// Whether a detector evaluates queries one at a time or scans ordered
/// per-user segments for multi-query sequences.
enum class DetectorScope {
  kPerQuery,   // MatchQuery on every parsed query
  kSequence,   // ScanAt over gap-bounded per-user segments
};

/// Static metadata every registered detector must declare. A detector
/// cannot exist without a display name and a solvability declaration —
/// the registry rejects empty ids/names at registration time. The
/// display name also labels the detector's Table 5 row pair.
struct DetectorInfo {
  /// Stable registry id ("dw-stifle", "select-star", ...).
  std::string id;
  /// Human-readable name used in statistics and reports ("DW-Stifle").
  std::string display_name;
  /// One-line description for `sqlog report` and docs.
  std::string description;
  DetectorScope scope = DetectorScope::kPerQuery;
  /// True when the detector ships a deterministic rewrite.
  bool solvable = false;
  /// Sequence detectors sharing a scan_group run in one pass over each
  /// segment, tried in set order at every position with first-match-wins
  /// — the DW/DS/DF stifles share "stifle" to reproduce the paper's
  /// coupled classification. Empty = a pass of its own.
  std::string scan_group;
  /// True when distinct groups below DetectorOptions::cth_min_support
  /// are dropped (the CTH support filter).
  bool min_support_filtered = false;
};

/// Read-only context handed to detector hooks.
struct DetectorContext {
  const ParsedLog& parsed;
  const catalog::Schema* schema = nullptr;  // may be null
  const DetectorOptions& options;
};

/// One gap-bounded slice of one user's time-ordered stream.
class SegmentView {
 public:
  SegmentView(const ParsedLog& parsed, const std::vector<size_t>& indices)
      : parsed_(parsed), indices_(indices) {}

  size_t size() const { return indices_.size(); }
  /// The parsed query at segment position `pos`.
  const ParsedQuery& at(size_t pos) const { return parsed_.queries[indices_[pos]]; }
  /// The ParsedLog.queries index at segment position `pos`.
  size_t query_index(size_t pos) const { return indices_[pos]; }

 private:
  const ParsedLog& parsed_;
  const std::vector<size_t>& indices_;
};

/// The plugin interface of the detection layer, and the library's one
/// detection API (the Sec. 5.4 extension point). Implementations declare
/// their metadata via info() and override the hook matching their scope;
/// solvable detectors also override Rewrite(). Hooks read the parsed
/// facts, never an AST. Built-in subclasses register from
/// RegisterBuiltinDetectors (sqlog-lint R6 flags Detector subclasses
/// defined elsewhere under src/); application code registers its own
/// with DetectorRegistry::Global().Register and selects them by id.
class Detector {
 public:
  virtual ~Detector() = default;

  virtual const DetectorInfo& info() const = 0;

  /// Per-query hook: returns true when `query` is a hit. The driver has
  /// pre-filled `instance` (detector index, the single query index);
  /// the hook may attach detail entries.
  virtual bool MatchQuery(const ParsedQuery& query, const DetectorContext& ctx,
                          AntipatternInstance* instance) const {
    (void)query;
    (void)ctx;
    (void)instance;
    return false;
  }

  /// Sequence hook: attempts to start an instance at segment position
  /// `pos`; fills `instance->query_indices` and returns the number of
  /// positions consumed (0 = no instance, scan advances by one).
  virtual size_t ScanAt(const SegmentView& segment, size_t pos, const DetectorContext& ctx,
                        AntipatternInstance* instance) const {
    (void)segment;
    (void)pos;
    (void)ctx;
    (void)instance;
    return 0;
  }

  /// Produces the replacement statement for a solvable instance.
  /// `members` lists the member queries in instance order, each with the
  /// AST the solver re-parsed for it. Default: Unsupported (detect-only).
  virtual Result<std::string> Rewrite(const AntipatternInstance& instance,
                                      const std::vector<const ParsedQuery*>& members) const {
    (void)instance;
    (void)members;
    return Status::Unsupported("detector has no solving rule");
  }
};

/// Process-wide id → detector table. Registration validates the metadata
/// contract (non-empty id and display_name, unique id).
class DetectorRegistry {
 public:
  /// The global registry, with the built-in detectors registered on
  /// first use (lazily — safe with static-archive linking, which drops
  /// TUs that are only reachable through static initializers).
  static DetectorRegistry& Global();

  /// Registers a detector. Must have a non-empty id and display_name and
  /// an id not already taken.
  Status Register(std::shared_ptr<const Detector> detector);

  /// Looks up a detector by id; nullptr when absent.
  std::shared_ptr<const Detector> Find(const std::string& id) const;

  /// All registered ids, in registration order.
  std::vector<std::string> Ids() const;

 private:
  std::vector<std::shared_ptr<const Detector>> order_;
  std::unordered_map<std::string, size_t> by_id_;
};

/// The paper's default detector set, in evaluation order.
const std::vector<std::string>& DefaultDetectorIds();

/// The resolved detector set of one pipeline run. Instances reference
/// detectors by index into this set; the report keeps the set alive so
/// metadata lookups never dangle.
class DetectorSet {
 public:
  /// Resolves `options.detector_ids` (empty → DefaultDetectorIds())
  /// against the global registry. Unknown or duplicate ids, and a
  /// non-empty `options.custom_rules`, are InvalidArgument.
  static Result<std::shared_ptr<const DetectorSet>> Resolve(const DetectorOptions& options);

  size_t size() const { return detectors_.size(); }
  const Detector& at(size_t index) const { return *detectors_[index]; }
  const DetectorInfo& info(size_t index) const { return detectors_[index]->info(); }

  /// Set index of the detector with this id, or -1.
  int IndexOf(const std::string& id) const;

  /// Always false: no detector reads ASTs during detection. Kept for the
  /// benchmark suite, which still calls it.
  bool AnyNeedsAst() const { return false; }

  /// Solvability of the instance's producing detector.
  bool Solvable(const AntipatternInstance& instance) const {
    return info(instance.detector).solvable;
  }

  /// Dispatches Rewrite to the instance's producing detector.
  Result<std::string> Rewrite(const AntipatternInstance& instance,
                              const std::vector<const ParsedQuery*>& members) const {
    return at(instance.detector).Rewrite(instance, members);
  }

 private:
  std::vector<std::shared_ptr<const Detector>> detectors_;
};

/// Registers the built-in detectors (the paper's five plus the
/// SQLCheck-derived additions) into `registry`. Called by
/// DetectorRegistry::Global(); exposed for tests building private
/// registries.
void RegisterBuiltinDetectors(DetectorRegistry& registry);

}  // namespace sqlog::core

#endif  // SQLOG_CORE_DETECTOR_H_
