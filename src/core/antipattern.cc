#include "core/antipattern.h"

#include <algorithm>
#include <unordered_map>

#include "util/hash.h"

namespace sqlog::core {

namespace {

/// Set index of the detector `id` in the report's set, or -1.
int IndexIn(const AntipatternReport& report, const std::string& id) {
  return report.detectors == nullptr ? -1 : report.detectors->IndexOf(id);
}

}  // namespace

uint64_t AntipatternReport::InstancesOf(const std::string& id) const {
  const int detector = IndexIn(*this, id);
  uint64_t n = 0;
  for (const auto& instance : instances) {
    if (static_cast<int>(instance.detector) == detector) ++n;
  }
  return n;
}

uint64_t AntipatternReport::QueriesOf(const std::string& id) const {
  const int detector = IndexIn(*this, id);
  uint64_t n = 0;
  for (const auto& instance : instances) {
    if (static_cast<int>(instance.detector) == detector) n += instance.query_indices.size();
  }
  return n;
}

uint64_t AntipatternReport::DistinctOf(const std::string& id) const {
  const int detector = IndexIn(*this, id);
  uint64_t n = 0;
  for (const auto& d : distinct) {
    if (static_cast<int>(d.detector) == detector) ++n;
  }
  return n;
}

bool StifleEligible(const ParsedQuery& query, const catalog::Schema* schema,
                    bool require_key_attribute) {
  const sql::TemplateFacts& facts = *query.facts.shared;
  if (!facts.where_conjunctive) return false;
  if (facts.predicate_count() != 1) return false;
  const sql::Predicate& pred = facts.predicates[0];
  if (pred.op != sql::PredicateOp::kEq) return false;
  if (!pred.constant_comparison) return false;
  if (pred.compares_to_null_literal) return false;  // that is the SNC case
  if (require_key_attribute && schema != nullptr) {
    if (!schema->IsKeyColumn(pred.column, facts.tables)) return false;
  }
  return true;
}

namespace {

/// Builds the distinct-template signature of an instance.
std::vector<uint64_t> SignatureOf(const ParsedLog& parsed,
                                  const AntipatternInstance& instance) {
  std::vector<uint64_t> signature;
  for (size_t idx : instance.query_indices) {
    uint64_t id = parsed.queries[idx].template_id;
    if (std::find(signature.begin(), signature.end(), id) == signature.end()) {
      signature.push_back(id);
    }
  }
  return signature;
}

/// A distinct-antipattern group: the producing detector plus the
/// instance's signature. Groups compare by value; the hash only buckets.
struct SignatureKey {
  uint32_t detector = 0;
  std::vector<uint64_t> template_ids;

  bool operator==(const SignatureKey&) const = default;
};

struct SignatureKeyHash {
  size_t operator()(const SignatureKey& key) const {
    uint64_t h = 0x517cc1b727220a95ULL + static_cast<uint64_t>(key.detector);
    for (uint64_t id : key.template_ids) h = HashCombine(h, id + 1);
    return static_cast<size_t>(h);
  }
};

/// Evaluation order of one resolved detector set: sequence detectors
/// grouped into passes (shared scan_group = one pass, tried in set order
/// at every position with first-match-wins; empty group = a pass of its
/// own), then per-query detectors in set order. The default set yields
/// passes [dw, ds, df] and [cth] followed by per-query snc — exactly the
/// pre-registry scanner's stifle pass, CTH pass, and per-query loop.
struct ScanPlan {
  std::vector<std::vector<uint32_t>> sequence_passes;  // detector set indices
  std::vector<uint32_t> per_query;                     // detector set indices
};

ScanPlan BuildScanPlan(const DetectorSet& set) {
  ScanPlan plan;
  std::unordered_map<std::string, size_t> group_pass;
  for (uint32_t d = 0; d < set.size(); ++d) {
    const DetectorInfo& info = set.info(d);
    if (info.scope == DetectorScope::kPerQuery) {
      plan.per_query.push_back(d);
      continue;
    }
    if (info.scan_group.empty()) {
      plan.sequence_passes.push_back({d});
      continue;
    }
    auto [it, inserted] = group_pass.try_emplace(info.scan_group, plan.sequence_passes.size());
    if (inserted) plan.sequence_passes.push_back({});
    plan.sequence_passes[it->second].push_back(d);
  }
  return plan;
}

/// Runs the scan plan over one gap-bounded segment of one user's stream.
void ScanSegment(const std::vector<size_t>& segment, const DetectorSet& set,
                 const ScanPlan& plan, const DetectorContext& ctx,
                 std::vector<AntipatternInstance>& out) {
  SegmentView view(ctx.parsed, segment);
  // Independent passes: a query may belong to both a CTH candidate and
  // a Stifle (paper Table 2) — the solver later prefers the solvable
  // instance, which reproduces Table 3.
  for (const auto& pass : plan.sequence_passes) {
    size_t i = 0;
    while (i < segment.size()) {
      size_t advanced = 0;
      for (uint32_t d : pass) {
        AntipatternInstance instance;
        instance.detector = d;
        advanced = set.at(d).ScanAt(view, i, ctx, &instance);
        if (advanced != 0) {
          out.push_back(std::move(instance));
          break;
        }
      }
      i += advanced == 0 ? 1 : advanced;
    }
  }
  for (size_t pos = 0; pos < segment.size(); ++pos) {
    for (uint32_t d : plan.per_query) {
      AntipatternInstance instance;
      instance.detector = d;
      instance.query_indices = {segment[pos]};
      if (set.at(d).MatchQuery(view.at(pos), ctx, &instance)) {
        out.push_back(std::move(instance));
      }
    }
  }
}

/// Scans the streams of users [user_begin, user_end) into `out`,
/// emitting instances in the serial order (users ascending, per-user
/// segment order).
void ScanUserRange(const ParsedLog& parsed, const DetectorSet& set, const ScanPlan& plan,
                   const DetectorContext& ctx, uint32_t user_begin, uint32_t user_end,
                   std::vector<AntipatternInstance>& out) {
  for (uint32_t user_id = user_begin; user_id < user_end; ++user_id) {
    const auto& stream = parsed.user_streams[user_id];
    if (stream.empty()) continue;

    std::vector<size_t> segment;
    int64_t prev_time = 0;
    for (size_t idx : stream) {
      const ParsedQuery& query = parsed.queries[idx];
      if (!segment.empty() && query.timestamp_ms - prev_time > ctx.options.max_gap_ms) {
        ScanSegment(segment, set, plan, ctx, out);
        segment.clear();
      }
      segment.push_back(idx);
      prev_time = query.timestamp_ms;
    }
    ScanSegment(segment, set, plan, ctx, out);
  }
}

}  // namespace

AntipatternReport DetectAntipatterns(const ParsedLog& parsed, const TemplateStore& store,
                                     const catalog::Schema* schema,
                                     const DetectorOptions& options,
                                     std::shared_ptr<const DetectorSet> detectors,
                                     util::ThreadPool* pool) {
  (void)store;
  AntipatternReport report;
  report.detectors = std::move(detectors);
  const DetectorSet& set = *report.detectors;
  const ScanPlan plan = BuildScanPlan(set);
  const DetectorContext ctx{parsed, schema, options};

  const size_t user_count = parsed.user_streams.size();
  size_t num_shards = 1;
  if (pool != nullptr && pool->size() > 0) {
    num_shards = std::min(user_count, pool->size() + 1);
    if (num_shards == 0) num_shards = 1;
  }
  if (num_shards <= 1) {
    ScanUserRange(parsed, set, plan, ctx, 0, static_cast<uint32_t>(user_count),
                  report.instances);
  } else {
    // Map over contiguous user ranges, then concatenate in shard order:
    // instances come out in exactly the order the serial loop emits.
    using InstanceList = std::vector<AntipatternInstance>;
    std::vector<InstanceList> shards = util::MapShards<InstanceList>(
        pool, user_count, num_shards, [&](size_t, size_t begin, size_t end) {
          InstanceList local;
          ScanUserRange(parsed, set, plan, ctx, static_cast<uint32_t>(begin),
                        static_cast<uint32_t>(end), local);
          return local;
        });
    for (InstanceList& shard : shards) {
      report.instances.insert(report.instances.end(),
                              std::make_move_iterator(shard.begin()),
                              std::make_move_iterator(shard.end()));
    }
  }

  // Deterministic log order: by first member query's record index.
  std::stable_sort(report.instances.begin(), report.instances.end(),
                   [&](const AntipatternInstance& a, const AntipatternInstance& b) {
                     return parsed.queries[a.query_indices.front()].record_index <
                            parsed.queries[b.query_indices.front()].record_index;
                   });

  // Drop weakly-supported candidates of min-support-filtered detectors
  // (CTH: one-off organic coincidences).
  std::unordered_map<SignatureKey, uint64_t, SignatureKeyHash> support;
  for (const auto& instance : report.instances) {
    if (!set.info(instance.detector).min_support_filtered) continue;
    ++support[SignatureKey{instance.detector, SignatureOf(parsed, instance)}];
  }

  std::unordered_map<SignatureKey, size_t, SignatureKeyHash> distinct_index;
  std::vector<AntipatternInstance> kept;
  kept.reserve(report.instances.size());
  for (auto& instance : report.instances) {
    SignatureKey key{instance.detector, SignatureOf(parsed, instance)};
    if (set.info(instance.detector).min_support_filtered &&
        support[key] < options.cth_min_support) {
      continue;
    }
    auto [it, inserted] = distinct_index.try_emplace(key, report.distinct.size());
    if (inserted) {
      DistinctAntipattern d;
      d.detector = instance.detector;
      d.template_ids = std::move(key.template_ids);
      d.sample_query = instance.query_indices.front();
      report.distinct.push_back(std::move(d));
    }
    DistinctAntipattern& d = report.distinct[it->second];
    ++d.instance_count;
    d.query_count += instance.query_indices.size();
    for (size_t idx : instance.query_indices) {
      d.users.push_back(parsed.queries[idx].user_id);
    }
    kept.push_back(std::move(instance));
  }
  report.instances = std::move(kept);
  for (DistinctAntipattern& d : report.distinct) {
    std::sort(d.users.begin(), d.users.end());
    d.users.erase(std::unique(d.users.begin(), d.users.end()), d.users.end());
  }

  // query → instance map. Solvable instances claim their queries first
  // (Sec. 5.5: when types overlap, the solvable rewrite proceeds);
  // detect-only instances annotate queries nothing else claimed.
  report.instance_of_query.assign(parsed.queries.size(), 0);
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t k = 0; k < report.instances.size(); ++k) {
      const AntipatternInstance& instance = report.instances[k];
      bool solvable = set.Solvable(instance);
      if ((pass == 0) != solvable) continue;
      for (size_t idx : instance.query_indices) {
        if (report.instance_of_query[idx] == 0) {
          report.instance_of_query[idx] = static_cast<uint32_t>(k + 1);
        }
      }
    }
  }
  return report;
}

}  // namespace sqlog::core
