#ifndef SQLOG_CORE_TEMPLATE_STORE_H_
#define SQLOG_CORE_TEMPLATE_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/parse_cache.h"
#include "log/record.h"
#include "sql/skeleton.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace sqlog::core {

/// Interned query template with usage statistics (Defs. 9-10). `facts`
/// is the constant half its first query holds (`facts->tmpl` is the
/// template), shared, not copied. StreamingParser::Finish counts
/// `frequency` and `users` from the user streams.
struct TemplateInfo {
  uint64_t id = 0;
  std::shared_ptr<const sql::TemplateFacts> facts;
  uint64_t frequency = 0;        // occurrences in the parsed log
  std::vector<uint32_t> users;   // distinct interned user ids, ascending
  size_t first_query = 0;        // index of first ParsedQuery

  size_t user_popularity() const { return users.size(); }
};

/// One successfully parsed SELECT of the log. Its facts own only what
/// varies per statement (clause texts, predicate values); what its
/// template fixes is the shared `facts.shared` (see StreamingParser).
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

  /// Per-user streams: indices into `queries`, time-ordered, indexed by
  /// interned user id (TemplateStore::user_names). Stream 0 is the
  /// anonymous user (empty user field).
  std::vector<std::vector<size_t>> user_streams;

  /// Parse-avoidance counters. Hit/miss splits depend on sharding, so
  /// these are reported separately and never enter the golden-compared
  /// statistics table; the queries/diagnostics above are byte-identical
  /// with the cache on, off, or absent.
  ParseStats parse_stats;
};

/// Configures the parse cache (core/parse_cache.h) used by ParseLog /
/// StreamingParser. Results are byte-identical with the cache on or off;
/// only the work done per statement changes.
struct ParseCacheOptions {
  bool enabled = true;
};

/// Interns templates and users and holds per-template statistics.
class TemplateStore {
 public:
  TemplateStore();

  /// Interns the template `facts->tmpl`, returning its id (stable for
  /// equal templates). A new template keeps `facts` and `query_index`.
  uint64_t Intern(const std::shared_ptr<const sql::TemplateFacts>& facts,
                  size_t query_index);

  /// Sets every template's frequency and users from `parsed`'s user
  /// streams. Streams are visited in ascending user id, so a template
  /// appends a user only when its last appended user differs, and each
  /// list comes out ascending without a set.
  void CountUses(const ParsedLog& parsed);

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
/// StreamingParser (see there for the sharding, the parse cache and the
/// AST release), then Finish(). No pipeline calls it: it serves tests
/// and the benchmark suite.
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
/// No returned query holds an AST (`facts.ast` is null). Cache hits
/// never build one, and each full parse drops its AST inside its shard
/// as soon as the cache entry's recipes have been built from it, so the
/// ASTs alive at once are bounded by the shard count, not the batch.
/// The miner and the detectors read only the clause facts; the solver
/// re-parses the few statements it rewrites.
///
/// With the cache on, the miss that built an entry, its later hits and
/// every `.sqb` zero-lex render point at the entry's one
/// sql::TemplateFacts; the returned log keeps those objects alive after
/// the parser and its cache are gone. With the cache off, each query
/// owns a private one.
class StreamingParser {
 public:
  /// The parse cache persists across batches: shards read it
  /// concurrently (it is frozen while they run) and the templates they
  /// discover are merged back in deterministic shard order after each
  /// batch.
  StreamingParser(TemplateStore& store, size_t max_diagnostics = 0,
                  util::ThreadPool* pool = nullptr,
                  const ParseCacheOptions& cache_options = {});

  /// Seeds the persistent cache with pre-built entries (deserialized
  /// from a `.sqb` dictionary) before the first batch. Entries whose key
  /// is already cached are dropped. No-op when the cache is disabled.
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
  /// a seeded, cacheable dictionary ordinal skips lexing and the key
  /// lookup entirely — its facts render straight from the
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
  /// spare the accumulated-query vector its geometric regrowth, which
  /// moves every query so far and briefly holds both buffers.
  void ReserveQueries(size_t n);

  /// Builds the per-user streams, counts every template's frequency and
  /// users from them (TemplateStore::CountUses), and returns the
  /// accumulated log. The parser must not be fed afterwards.
  ParsedLog Finish();

 private:
  TemplateStore& store_ SQLOG_SHARD_LOCAL;
  size_t max_diagnostics_ SQLOG_CONST_AFTER_INIT;
  util::ThreadPool* pool_ SQLOG_CONST_AFTER_INIT;
  ParseCacheOptions cache_options_ SQLOG_CONST_AFTER_INIT;
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
