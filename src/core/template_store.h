#ifndef SQLOG_CORE_TEMPLATE_STORE_H_
#define SQLOG_CORE_TEMPLATE_STORE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/parse_cache.h"
#include "log/record.h"
#include "sql/skeleton.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace sqlog::core {

/// Interned query template with usage statistics (Defs. 9-10).
struct TemplateInfo {
  uint64_t id = 0;
  sql::QueryTemplate tmpl;
  uint64_t frequency = 0;                 // occurrences in the parsed log
  std::unordered_set<uint32_t> users;     // interned user ids
  size_t first_query = 0;                 // index of first ParsedQuery

  size_t user_popularity() const { return users.size(); }
};

/// One successfully parsed SELECT of the log.
struct ParsedQuery {
  size_t record_index = 0;   // index into the pre-clean log
  int64_t timestamp_ms = 0;
  uint32_t user_id = 0;      // interned; 0 is the anonymous user
  int64_t row_count = -1;
  sql::QueryFacts facts;
  uint64_t template_id = 0;
};

/// One per-record parse failure, kept as a diagnostic instead of being
/// silently dropped. `record_index`/`record_seq` locate the offending
/// statement in the (deduplicated) input log.
struct ParseDiagnostic {
  size_t record_index = 0;
  uint64_t record_seq = 0;
  std::string message;  // the parser's Status message
};

/// Parse-step outcome (paper Sec. 5.3): parsed SELECTs with assigned
/// templates, plus counts of what was dropped.
struct ParsedLog {
  std::vector<ParsedQuery> queries;
  size_t non_select_count = 0;
  size_t syntax_error_count = 0;

  /// The first `max_diagnostics` parse failures in record order
  /// (`syntax_error_count` still counts them all).
  std::vector<ParseDiagnostic> diagnostics;

  /// Per-user streams: indices into `queries`, time-ordered. Stream 0 is
  /// the anonymous user (empty user field).
  std::vector<std::vector<size_t>> user_streams;
  std::vector<std::string> user_names;  // user_names[user_id]

  /// Parse-avoidance counters. Hit/miss splits depend on sharding, so
  /// these are reported separately and never enter the golden-compared
  /// statistics table; the queries/diagnostics above are byte-identical
  /// with the cache on, off, or absent.
  ParseStats parse_stats;
};

/// Configures the template fingerprint cache used by ParseLog /
/// StreamingParser. Results are byte-identical with the cache on or off;
/// only the work done per statement changes.
struct ParseCacheOptions {
  bool enabled = true;
  /// Test seam forwarded to every cache this parse creates (forces
  /// fingerprint collisions; see ParseCache::set_fingerprint_for_test).
  ParseCache::FingerprintFn fingerprint_for_test;
};

/// Interns templates and users and tracks per-template statistics.
class TemplateStore {
 public:
  TemplateStore();

  /// Interns a template, returning its id (stable for equal templates).
  uint64_t Intern(const sql::QueryTemplate& tmpl, size_t query_index);

  /// Records one occurrence by `user_id` for template `id`.
  void RecordUse(uint64_t id, uint32_t user_id);

  /// Merge hook for the sharded parse: folds `frequency` occurrences and
  /// a shard's local user-id set (translated through `user_map`) into
  /// template `id` — the same aggregate per-query RecordUse calls would
  /// have built serially.
  void MergeUses(uint64_t id, uint64_t frequency,
                 const std::unordered_set<uint32_t>& local_users,
                 const std::vector<uint32_t>& user_map);

  const TemplateInfo& Get(uint64_t id) const { return templates_[id]; }
  size_t size() const { return templates_.size(); }
  const std::vector<TemplateInfo>& templates() const { return templates_; }

  /// Interns a user name; empty names map to user id 0.
  uint32_t InternUser(const std::string& user);
  const std::vector<std::string>& user_names() const { return user_names_; }

 private:
  std::vector<TemplateInfo> templates_ SQLOG_SHARD_LOCAL;
  std::unordered_map<uint64_t, std::vector<uint64_t>> by_fingerprint_ SQLOG_SHARD_LOCAL;
  std::vector<std::string> user_names_ SQLOG_SHARD_LOCAL;
  std::unordered_map<std::string, uint32_t> user_ids_ SQLOG_SHARD_LOCAL;
};

/// Runs the parse step over a (deduplicated) log: one FeedBatch of a
/// StreamingParser that keeps every AST it builds (see there for the
/// sharding and the template fingerprint cache), then Finish().
ParsedLog ParseLog(const log::QueryLog& log, TemplateStore& store,
                   util::ThreadPool* pool = nullptr, size_t max_diagnostics = 0,
                   const ParseCacheOptions& cache_options = {});

/// The parse step (paper Sec. 5.3), fed the deduplicated records batch
/// by batch in pre-clean order, then Finish(): classifies statements,
/// drops non-SELECTs (counting syntax errors as diagnostics, capped at
/// `max_diagnostics`), analyzes the rest, interns templates, and builds
/// per-user time-ordered streams — the same at any batch size and
/// thread count.
///
/// With a non-null `pool`, each batch is sharded over contiguous record
/// ranges into per-shard TemplateStores, merged into `store` in shard
/// order (exactly the serial visit order). With `cache_options.enabled`,
/// statements whose normalized token stream was seen before skip the
/// parser and render their facts from the cached template's recipes;
/// only `parse_stats` differs.
///
/// `keep_asts` keeps the `facts.ast` each full parse builds (cache hits
/// never build one) for detectors that read ASTs
/// (DetectorSet::AnyNeedsAst). The default releases them after each
/// batch, bounding memory by the batch: the miner and the built-in
/// detectors read only the retained clause facts, and the solver
/// re-parses the few statements it rewrites.
class StreamingParser {
 public:
  /// The parse cache persists across batches: shards read it
  /// concurrently (it is frozen while they run) and the templates they
  /// discover are merged back in deterministic shard order after each
  /// batch.
  StreamingParser(TemplateStore& store, size_t max_diagnostics = 0,
                  util::ThreadPool* pool = nullptr,
                  const ParseCacheOptions& cache_options = {}, bool keep_asts = false);

  /// Seeds the persistent cache with pre-built entries (deserialized
  /// from a `.sqb` dictionary) before the first batch. Entries whose key
  /// is already cached are dropped; each kept entry is stamped with this
  /// cache's fingerprint function. No-op when the cache is disabled.
  /// Records whose templates are all seeded then parse with zero full
  /// parses — hits and failure short-circuits only.
  ///
  /// The list's order is remembered as the dictionary-ordinal table for
  /// the zero-lex fast path: position i (null entries included) answers
  /// for RecordShape::template_ordinal == i in shaped FeedBatch calls.
  void SeedCache(std::vector<std::unique_ptr<ParseCacheEntry>> entries);

  /// Parses one batch of records appended at the current pre-clean
  /// position.
  ///
  /// `shapes` (optional) holds one log::RecordShape per record (a longer
  /// pooled vector is fine; the tail is ignored), as produced by
  /// BinLogReader::last_shape(). A record whose shape names
  /// a seeded, cacheable dictionary ordinal skips lexing and
  /// fingerprinting entirely — its facts render straight from the
  /// constant spans (DeriveSlotTexts), and a seeded parse *failure*
  /// short-circuits to a syntax-error count once the diagnostics quota
  /// is exhausted. Everything else (verbatim records, unseeded or
  /// uncacheable templates, open diagnostics quota) falls through to the
  /// regular cached path, so results are byte-identical with or without
  /// shapes at any thread count.
  void FeedBatch(const std::vector<log::LogRecord>& records,
                 const std::vector<log::RecordShape>* shapes = nullptr);

  /// Capacity hint: reserve for `n` total queries up front. Readers that
  /// know the record count (`.sqb` carries it in the footer) use this to
  /// spare the accumulated-query vector its geometric realloc moves —
  /// ParsedQuery is a fat object, so those moves are measurable.
  void ReserveQueries(size_t n);

  /// Builds the per-user streams and returns the accumulated log. The
  /// parser must not be fed afterwards.
  ParsedLog Finish();

 private:
  TemplateStore& store_ SQLOG_SHARD_LOCAL;
  size_t max_diagnostics_ SQLOG_CONST_AFTER_INIT;
  util::ThreadPool* pool_ SQLOG_CONST_AFTER_INIT;
  ParseCacheOptions cache_options_ SQLOG_CONST_AFTER_INIT;
  bool keep_asts_ SQLOG_CONST_AFTER_INIT;
  /// Persistent across batches: frozen (const reads only) while shards
  /// are in flight, mutated between batches on the feeding thread.
  ParseCache cache_ SQLOG_SHARD_LOCAL;
  /// Dictionary ordinal → seeded cache entry (null: parse that one).
  /// Built by SeedCache, read concurrently by shards like cache_.
  std::vector<const ParseCacheEntry*> seed_by_ordinal_ SQLOG_SHARD_LOCAL;
  ParsedLog parsed_ SQLOG_SHARD_LOCAL;
  size_t records_fed_ SQLOG_SHARD_LOCAL = 0;
};

}  // namespace sqlog::core

#endif  // SQLOG_CORE_TEMPLATE_STORE_H_
