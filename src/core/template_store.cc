#include "core/template_store.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sql/ast.h"
#include "sql/fingerprint.h"
#include "sql/lexer.h"
#include "sql/parser.h"

namespace sqlog::core {

TemplateStore::TemplateStore() {
  // User id 0 is the anonymous user (records without user metadata).
  user_names_.push_back("");
  user_ids_[""] = 0;
}

uint64_t TemplateStore::Intern(const sql::QueryTemplate& tmpl, size_t query_index) {
  auto& bucket = by_fingerprint_[tmpl.fingerprint];
  for (uint64_t id : bucket) {
    if (templates_[id].tmpl == tmpl) return id;
  }
  uint64_t id = templates_.size();
  TemplateInfo info;
  info.id = id;
  info.tmpl = tmpl;
  info.first_query = query_index;
  templates_.push_back(std::move(info));
  bucket.push_back(id);
  return id;
}

void TemplateStore::RecordUse(uint64_t id, uint32_t user_id) {
  TemplateInfo& info = templates_[id];
  ++info.frequency;
  info.users.insert(user_id);
}

uint32_t TemplateStore::InternUser(const std::string& user) {
  auto it = user_ids_.find(user);
  if (it != user_ids_.end()) return it->second;
  uint32_t id = static_cast<uint32_t>(user_names_.size());
  user_names_.push_back(user);
  user_ids_[user] = id;
  return id;
}

void TemplateStore::MergeUses(uint64_t id, uint64_t frequency,
                              const std::unordered_set<uint32_t>& local_users,
                              const std::vector<uint32_t>& user_map) {
  TemplateInfo& info = templates_[id];
  info.frequency += frequency;
  // sqlog-lint: deterministic-merge(set-into-set union; the result is the same for any visit order)
  for (uint32_t local : local_users) info.users.insert(user_map[local]);
}

namespace {

/// Parse output of one contiguous record shard, with template ids and
/// user ids local to the shard's store; MergeShards translates both to
/// global ids in shard order, which reproduces the serial assignment.
struct ParseShard {
  TemplateStore store;
  std::vector<ParsedQuery> queries;
  size_t non_select_count = 0;
  size_t syntax_error_count = 0;
  std::vector<ParseDiagnostic> diagnostics;
  ParseCache cache;  // templates discovered by this shard
  ParseStats stats;
};

constexpr uint64_t kUnmapped = ~uint64_t{0};

/// Classifies + parses the records at [begin, end) of `records` into a
/// shard; record_index values are shard-relative — FeedBatch rebases
/// them by the batch's position in the whole pre-clean log.
///
/// With `cache_options.enabled`, statements are lexed and their
/// normalized key looked up first; repeats of a known template skip the
/// parser and have their facts rendered from the cached recipes. `shared_cache` is the
/// parser's persistent cache — read-only here, it is frozen while shards
/// run. Every outcome (queries, counts, diagnostics) is byte-identical to
/// the uncached path.
///
/// `shapes` (nullable) enables the `.sqb` zero-lex path: shapes[i] is
/// records[i]'s on-disk encoding and `seed_table` maps its dictionary
/// ordinal to the seeded cache entry. A shaped record with a cacheable
/// seeded entry renders its facts from the constant spans — no lex, no
/// key. The writer-side canonical-span contract
/// (binlog.cc RawSpanIsCanonical) makes the derived slot texts
/// byte-equal to the lexed ones, so every observable outcome still
/// matches the unshaped path; anything the contract does not cover
/// falls through to it.
ParseShard ParseShardRange(const log::LogRecord* records, size_t begin, size_t end,
                           size_t max_diagnostics,
                           const ParseCacheOptions& cache_options,
                           const ParseCache& shared_cache,
                           const log::RecordShape* shapes,
                           const std::vector<const ParseCacheEntry*>& seed_table) {
  ParseShard shard;
  shard.queries.reserve(end - begin);
  // Local template ids already assigned to hit entries, so repeated hits
  // skip the store's skeleton-equality probe too.
  std::unordered_map<const ParseCacheEntry*, uint64_t> entry_template_id;
  std::string key;                      // reused normalized-key buffer
  std::vector<std::string> slot_texts;  // reused fast-path slot buffer
  // Fast-path memo: dictionary ordinal → local template id. An indexed
  // vector, not a hash probe — this runs once per record.
  std::vector<uint64_t> ordinal_template_id(shapes != nullptr ? seed_table.size() : 0,
                                            kUnmapped);

  auto record_failure = [&](size_t i, const log::LogRecord& record, std::string message) {
    ++shard.syntax_error_count;
    if (shard.diagnostics.size() < max_diagnostics) {
      ParseDiagnostic diagnostic;
      diagnostic.record_index = i;
      diagnostic.record_seq = record.seq;
      diagnostic.message = std::move(message);
      shard.diagnostics.push_back(std::move(diagnostic));
    }
  };
  // Every full parse ends here, after BuildRecipes (on a miss) has read
  // its AST: the AST is dropped at once, so none outlives its shard.
  auto push_query = [&](size_t i, const log::LogRecord& record, sql::QueryFacts facts) {
    facts.ast.reset();
    ParsedQuery query;
    query.record_index = i;
    query.timestamp_ms = record.timestamp_ms;
    query.row_count = record.row_count;
    query.facts = std::move(facts);
    size_t local_index = shard.queries.size();
    query.template_id = shard.store.Intern(query.facts.tmpl, local_index);
    query.user_id = shard.store.InternUser(record.user);
    shard.store.RecordUse(query.template_id, query.user_id);
    shard.queries.push_back(std::move(query));
  };

  for (size_t i = begin; i < end; ++i) {
    const log::LogRecord& record = records[i];

    // Zero-lex fast path: the record's `.sqb` shape hands us the seeded
    // template entry and the literal spans directly. The entry's key is
    // the statement's normalized key by construction (the writer interns
    // by key and splice-verifies), so classification and lexing are
    // already answered.
    if (shapes != nullptr && shapes[i].template_ordinal != log::RecordShape::kVerbatim &&
        shapes[i].template_ordinal < seed_table.size()) {
      const log::RecordShape& shape = shapes[i];
      const ParseCacheEntry* entry = seed_table[shape.template_ordinal];
      if (entry != nullptr) {
        if (!entry->parse_ok) {
          // Seeded failure: short-circuit exactly like a failure hit —
          // unless the diagnostics quota is open, where the slow path
          // re-parses for the record-specific message.
          if (shard.diagnostics.size() >= max_diagnostics) {
            ++shard.syntax_error_count;
            ++shard.stats.failure_hits;
            continue;
          }
        } else if (entry->cacheable && entry->slots.size() == shape.constants.size() &&
                   DeriveSlotTexts(*entry, record.statement, shape.constants,
                                   &slot_texts)) {
          ++shard.stats.cache_hits;
          ParsedQuery query;
          query.record_index = i;
          query.timestamp_ms = record.timestamp_ms;
          query.row_count = record.row_count;
          query.facts = RenderFactsFromSlotTexts(*entry, slot_texts);
          size_t local_index = shard.queries.size();
          uint64_t& memo_id = ordinal_template_id[shape.template_ordinal];
          if (memo_id == kUnmapped) {
            memo_id = shard.store.Intern(query.facts.tmpl, local_index);
          }
          query.template_id = memo_id;
          query.user_id = shard.store.InternUser(record.user);
          shard.store.RecordUse(query.template_id, query.user_id);
          shard.queries.push_back(std::move(query));
          continue;
        }
        // Uncacheable entry, slot-count mismatch, non-canonical span, or
        // an open diagnostics quota: the regular path below handles it.
      }
    }

    if (sql::ClassifyStatement(record.statement) != sql::StatementKind::kSelect) {
      ++shard.non_select_count;
      continue;
    }

    if (!cache_options.enabled) {
      ++shard.stats.full_parses;
      auto facts = sql::ParseAndAnalyze(record.statement);
      if (!facts.ok()) {
        record_failure(i, record, facts.status().message());
        continue;
      }
      push_query(i, record, std::move(facts.value()));
      continue;
    }

    // Cached path: lex once, look the normalized token stream up by its
    // key, and only parse when the template has not been seen before.
    auto lexed = sql::Lex(record.statement);
    if (!lexed.ok()) {
      // ParseAndAnalyze == Lex + parse, so a lex error carries exactly
      // the message the uncached path would report.
      ++shard.stats.full_parses;
      record_failure(i, record, lexed.status().message());
      continue;
    }
    const sql::TokenStream& tokens = lexed.value();
    key.clear();
    sql::AppendNormalizedKey(tokens, &key);
    const ParseCacheEntry* entry = shared_cache.Find(key);
    if (entry == nullptr) entry = shard.cache.Find(key);

    if (entry == nullptr) {
      // Miss: full parse, then cache what it taught us for the next
      // statement with this key.
      ++shard.stats.cache_misses;
      ++shard.stats.full_parses;
      std::vector<const sql::Expr*> value_exprs;
      auto facts = sql::ParseAndAnalyzeTokens(tokens, &value_exprs);
      auto fresh = std::make_unique<ParseCacheEntry>();
      fresh->key = key;
      if (!facts.ok()) {
        record_failure(i, record, facts.status().message());
        shard.cache.Insert(std::move(fresh));  // parse_ok stays false
        continue;
      }
      fresh->parse_ok = true;
      BuildRecipes(tokens, facts.value(), value_exprs, *fresh);
      shard.cache.Insert(std::move(fresh));
      push_query(i, record, std::move(facts.value()));
      continue;
    }

    if (!entry->parse_ok) {
      // Cached failure. Equal keys ⇒ the parse fails the same way (the
      // parser never branches on placeholdered literal text); only the
      // diagnostic message is record-specific (it embeds offsets and
      // nearby text), so re-parse solely while the quota is open.
      if (shard.diagnostics.size() >= max_diagnostics) {
        ++shard.syntax_error_count;
        ++shard.stats.failure_hits;
        continue;
      }
      ++shard.stats.full_parses;
      auto facts = sql::ParseAndAnalyzeTokens(tokens);
      if (!facts.ok()) {
        record_failure(i, record, facts.status().message());
        continue;
      }
      // Unreachable if the key invariant holds; keep the parse rather
      // than miscount it.
      push_query(i, record, std::move(facts.value()));
      continue;
    }

    if (!entry->cacheable) {
      // Known template whose recipes did not validate: pay the parse.
      ++shard.stats.uncacheable_hits;
      ++shard.stats.full_parses;
      auto facts = sql::ParseAndAnalyzeTokens(tokens);
      if (!facts.ok()) {
        record_failure(i, record, facts.status().message());
        continue;
      }
      push_query(i, record, std::move(facts.value()));
      continue;
    }

    // Hit: facts come from the entry's recipes plus this statement's own
    // tokens — no AST is built (consumers re-parse on demand).
    ++shard.stats.cache_hits;
    ParsedQuery query;
    query.record_index = i;
    query.timestamp_ms = record.timestamp_ms;
    query.row_count = record.row_count;
    query.facts = RenderFacts(*entry, tokens);
    size_t local_index = shard.queries.size();
    auto memo = entry_template_id.find(entry);
    if (memo == entry_template_id.end()) {
      memo = entry_template_id
                 .emplace(entry, shard.store.Intern(query.facts.tmpl, local_index))
                 .first;
    }
    query.template_id = memo->second;
    query.user_id = shard.store.InternUser(record.user);
    shard.store.RecordUse(query.template_id, query.user_id);
    shard.queries.push_back(std::move(query));
  }
  return shard;
}

/// Merges parse shards into `store`/`parsed` in shard order. Shards are
/// contiguous record ranges, so shard order visits queries in exactly
/// the serial order — global template ids, user ids, first_query
/// indices, and per-template statistics come out byte-identical to the
/// serial path.
///
/// The join runs in two phases so the per-query work scales with the
/// pool (a serial merge of every query would not):
///  1. Serial id assignment over each shard's *distinct* templates and
///     users only. Within a shard, local ids are dense in first-use
///     order, so walking local ids ascending inside an in-order shard
///     walk replays the exact serial intern sequence — template ids,
///     user ids, and first_query indices match the serial path. The
///     per-template frequency/user aggregates fold in here too
///     (order-independent).
///  2. Parallel remap + placement: every query's template_id/user_id is
///     translated through its shard's id maps and the query is moved
///     into its precomputed slot in `parsed.queries`. Shards own
///     disjoint slot ranges, so the phase is data-race-free.
void MergeShards(std::vector<ParseShard>& shards, TemplateStore& store,
                 size_t max_diagnostics, ParsedLog& parsed,
                 util::ThreadPool* pool) {
  const size_t base = parsed.queries.size();
  std::vector<size_t> offsets(shards.size(), 0);
  std::vector<std::vector<uint64_t>> template_maps(shards.size());
  std::vector<std::vector<uint32_t>> user_maps(shards.size());

  // Phase 1: counters, diagnostics, and id assignment (serial; touches
  // only distinct templates/users, not every query).
  size_t total = 0;
  for (size_t s = 0; s < shards.size(); ++s) {
    ParseShard& shard = shards[s];
    offsets[s] = base + total;
    total += shard.queries.size();
    parsed.non_select_count += shard.non_select_count;
    parsed.syntax_error_count += shard.syntax_error_count;
    parsed.parse_stats.Merge(shard.stats);
    for (ParseDiagnostic& diagnostic : shard.diagnostics) {
      if (parsed.diagnostics.size() < max_diagnostics) {
        parsed.diagnostics.push_back(std::move(diagnostic));
      }
    }

    // Users: local ids are dense in first-appearance order (id 0 is the
    // anonymous user, pre-interned in both stores).
    std::vector<uint32_t>& user_map = user_maps[s];
    const std::vector<std::string>& local_users = shard.store.user_names();
    user_map.resize(local_users.size());
    for (size_t u = 0; u < local_users.size(); ++u) {
      user_map[u] = store.InternUser(local_users[u]);
    }

    // Templates: local ids are dense in first-use order; a local
    // first_query is shard-relative, so rebasing by the shard's slot
    // offset yields the global index of the template's first use.
    std::vector<uint64_t>& template_map = template_maps[s];
    const std::vector<TemplateInfo>& locals = shard.store.templates();
    template_map.resize(locals.size());
    for (uint64_t local_id = 0; local_id < locals.size(); ++local_id) {
      const TemplateInfo& local = locals[local_id];
      uint64_t global_id = store.Intern(local.tmpl, offsets[s] + local.first_query);
      template_map[local_id] = global_id;
      store.MergeUses(global_id, local.frequency, local.users, user_map);
    }
  }

  // Phase 2: remap + place every query (parallel; shards write disjoint
  // slot ranges of the preallocated tail).
  parsed.queries.resize(base + total);
  auto place_shard = [&](size_t s) {
    ParseShard& shard = shards[s];
    const std::vector<uint64_t>& template_map = template_maps[s];
    const std::vector<uint32_t>& user_map = user_maps[s];
    for (size_t k = 0; k < shard.queries.size(); ++k) {
      ParsedQuery& query = shard.queries[k];
      query.template_id = template_map[query.template_id];
      query.user_id = user_map[query.user_id];
      parsed.queries[offsets[s] + k] = std::move(query);
    }
  };
  if (pool != nullptr && shards.size() > 1) {
    pool->ParallelFor(0, shards.size(), 1, [&](size_t first, size_t last) {
      for (size_t s = first; s < last; ++s) place_shard(s);
    });
  } else {
    for (size_t s = 0; s < shards.size(); ++s) place_shard(s);
  }
}

/// Builds the per-user time-ordered streams from the merged queries.
/// The bucketing pass is serial (stream membership follows query order);
/// the per-stream sorts are independent and run on the pool. The
/// comparator is a strict total order (record_index is unique), so the
/// sorted streams are identical regardless of scheduling.
void BuildUserStreams(const TemplateStore& store, ParsedLog& parsed,
                      util::ThreadPool* pool) {
  parsed.user_names = store.user_names();
  parsed.user_streams.assign(store.user_names().size(), {});
  for (size_t i = 0; i < parsed.queries.size(); ++i) {
    parsed.user_streams[parsed.queries[i].user_id].push_back(i);
  }
  auto sort_streams = [&](size_t first, size_t last) {
    for (size_t s = first; s < last; ++s) {
      std::vector<size_t>& stream = parsed.user_streams[s];
      std::stable_sort(stream.begin(), stream.end(), [&](size_t a, size_t b) {
        const ParsedQuery& qa = parsed.queries[a];
        const ParsedQuery& qb = parsed.queries[b];
        if (qa.timestamp_ms != qb.timestamp_ms) return qa.timestamp_ms < qb.timestamp_ms;
        return qa.record_index < qb.record_index;
      });
    }
  };
  if (pool != nullptr && parsed.user_streams.size() > 1) {
    pool->ParallelFor(0, parsed.user_streams.size(), 1, sort_streams);
  } else {
    sort_streams(0, parsed.user_streams.size());
  }
}

/// Shard count for parsing `count` records on `pool`.
size_t ParseShardCount(util::ThreadPool* pool, size_t count) {
  size_t num_shards = 1;
  if (pool != nullptr && pool->size() > 0) {
    num_shards = std::min(count, 4 * (pool->size() + 1));
    if (num_shards == 0) num_shards = 1;
  }
  return num_shards;
}

}  // namespace

ParsedLog ParseLog(const log::QueryLog& log, TemplateStore& store,
                   util::ThreadPool* pool, size_t max_diagnostics,
                   const ParseCacheOptions& cache_options) {
  StreamingParser parser(store, max_diagnostics, pool, cache_options);
  parser.ReserveQueries(log.size());
  parser.FeedBatch(log.records());
  return parser.Finish();
}

StreamingParser::StreamingParser(TemplateStore& store, size_t max_diagnostics,
                                 util::ThreadPool* pool,
                                 const ParseCacheOptions& cache_options)
    : store_(store),
      max_diagnostics_(max_diagnostics),
      pool_(pool),
      cache_options_(cache_options) {}

void StreamingParser::SeedCache(std::vector<std::unique_ptr<ParseCacheEntry>> entries) {
  if (!cache_options_.enabled) return;
  seed_by_ordinal_.reserve(seed_by_ordinal_.size() + entries.size());
  for (std::unique_ptr<ParseCacheEntry>& entry : entries) {
    if (entry == nullptr) {
      seed_by_ordinal_.push_back(nullptr);
      continue;
    }
    const ParseCacheEntry* existing = cache_.Find(entry->key);
    if (existing == nullptr) existing = cache_.Insert(std::move(entry));
    seed_by_ordinal_.push_back(existing);
  }
}

void StreamingParser::ReserveQueries(size_t n) { parsed_.queries.reserve(n); }

void StreamingParser::FeedBatch(const std::vector<log::LogRecord>& records,
                                const std::vector<log::RecordShape>* shapes) {
  // Callers keep a reusable pool, so the vector may run longer than the
  // batch; only the first records.size() shapes are consulted.
  assert(shapes == nullptr || shapes->size() >= records.size());
  if (records.empty()) return;
  const size_t index_base = records_fed_;
  const log::LogRecord* data = records.data();
  size_t num_shards = ParseShardCount(pool_, records.size());

  // The persistent cache and its ordinal table are frozen (read-only)
  // while shards are in flight; templates discovered this batch land in
  // the shard-local caches and are promoted below, after the shards join.
  // Shapes ride only with a seeded dictionary (SeedCache is a no-op with
  // the cache off).
  const log::RecordShape* shape_data =
      shapes != nullptr && !seed_by_ordinal_.empty() ? shapes->data() : nullptr;
  std::vector<ParseShard> shards = util::MapShards<ParseShard>(
      num_shards > 1 ? pool_ : nullptr, records.size(), num_shards,
      [&](size_t, size_t begin, size_t end) {
        ParseShard shard = ParseShardRange(data, begin, end, max_diagnostics_,
                                           cache_options_, cache_, shape_data,
                                           seed_by_ordinal_);
        // Shard-local record indices → global pre-clean positions.
        for (ParsedQuery& query : shard.queries) query.record_index += index_base;
        for (ParseDiagnostic& diagnostic : shard.diagnostics) {
          diagnostic.record_index += index_base;
        }
        return shard;
      });

  MergeShards(shards, store_, max_diagnostics_, parsed_, pool_);

  // Promote shard-discovered templates into the persistent cache in
  // shard order (insertion order within a shard), skipping keys an
  // earlier shard of this batch already promoted. Entry contents are a
  // pure function of the key, so which shard wins does not matter.
  if (cache_options_.enabled) {
    for (ParseShard& shard : shards) {
      for (auto& entry : shard.cache.TakeEntries()) {
        if (cache_.Find(entry->key) == nullptr) {
          cache_.Insert(std::move(entry));
        }
      }
    }
  }

  records_fed_ += records.size();
}

ParsedLog StreamingParser::Finish() {
  parsed_.parse_stats.templates_cached = cache_.size();
  parsed_.parse_stats.cache_bytes = cache_.bytes();
  BuildUserStreams(store_, parsed_, pool_);
  return std::move(parsed_);
}

}  // namespace sqlog::core
