#include "core/parse_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "core/template_store.h"
#include "log/log_io.h"
#include "log/record.h"
#include "util/thread_pool.h"

namespace sqlog::core {
namespace {

log::QueryLog MakeLog(const std::vector<std::string>& statements) {
  log::QueryLog log;
  int64_t clock_ms = 1000000;
  for (size_t i = 0; i < statements.size(); ++i) {
    log::LogRecord record;
    record.seq = i;
    record.user = (i % 2 == 0) ? "alice" : "bob";
    record.timestamp_ms = (clock_ms += 2000);
    record.statement = statements[i];
    log.Append(std::move(record));
  }
  return log;
}

struct ParseRun {
  TemplateStore store;
  ParsedLog parsed;
};

ParseRun Parse(const log::QueryLog& log, const ParseCacheOptions& options,
          size_t max_diagnostics = 8, util::ThreadPool* pool = nullptr) {
  ParseRun run;
  run.parsed = ParseLog(log, run.store, pool, max_diagnostics, options);
  return run;
}

ParseCacheOptions CacheOff() {
  ParseCacheOptions options;
  options.enabled = false;
  return options;
}

/// Asserts the cached run observable-for-observable equal to the
/// uncached reference (neither keeps an AST).
void ExpectSameOutput(const ParseRun& want, const ParseRun& got) {
  ASSERT_EQ(want.parsed.queries.size(), got.parsed.queries.size());
  for (size_t i = 0; i < want.parsed.queries.size(); ++i) {
    const ParsedQuery& a = want.parsed.queries[i];
    const ParsedQuery& b = got.parsed.queries[i];
    EXPECT_EQ(a.record_index, b.record_index) << i;
    EXPECT_EQ(a.template_id, b.template_id) << i;
    EXPECT_EQ(a.user_id, b.user_id) << i;
    EXPECT_EQ(a.facts.sc, b.facts.sc) << i;
    EXPECT_EQ(a.facts.fc, b.facts.fc) << i;
    EXPECT_EQ(a.facts.wc, b.facts.wc) << i;
    const sql::TemplateFacts& x = *a.facts.shared;
    const sql::TemplateFacts& y = *b.facts.shared;
    EXPECT_TRUE(x.tmpl == y.tmpl) << i;
    EXPECT_EQ(x.selects_star, y.selects_star) << i;
    EXPECT_EQ(x.selected_columns, y.selected_columns) << i;
    EXPECT_EQ(x.tables, y.tables) << i;
    EXPECT_EQ(x.table_functions, y.table_functions) << i;
    EXPECT_EQ(x.where_conjunctive, y.where_conjunctive) << i;
    EXPECT_EQ(x.from_item_count, y.from_item_count) << i;
    ASSERT_EQ(x.predicates.size(), y.predicates.size()) << i;
    for (size_t p = 0; p < x.predicates.size(); ++p) {
      // Every field, the value range included.
      EXPECT_TRUE(x.predicates[p] == y.predicates[p]) << i << "/" << p;
      EXPECT_TRUE(std::ranges::equal(a.facts.values(p), b.facts.values(p))) << i << "/" << p;
    }
  }
  EXPECT_EQ(want.parsed.non_select_count, got.parsed.non_select_count);
  EXPECT_EQ(want.parsed.syntax_error_count, got.parsed.syntax_error_count);
  ASSERT_EQ(want.parsed.diagnostics.size(), got.parsed.diagnostics.size());
  for (size_t i = 0; i < want.parsed.diagnostics.size(); ++i) {
    EXPECT_EQ(want.parsed.diagnostics[i].record_index,
              got.parsed.diagnostics[i].record_index);
    EXPECT_EQ(want.parsed.diagnostics[i].message, got.parsed.diagnostics[i].message);
  }
  EXPECT_EQ(want.parsed.user_streams, got.parsed.user_streams);
  EXPECT_EQ(want.store.user_names(), got.store.user_names());
  ASSERT_EQ(want.store.size(), got.store.size());
  for (size_t id = 0; id < want.store.size(); ++id) {
    const TemplateInfo& a = want.store.Get(id);
    const TemplateInfo& b = got.store.Get(id);
    EXPECT_TRUE(a.facts->tmpl == b.facts->tmpl) << id;
    EXPECT_EQ(a.frequency, b.frequency) << id;
    EXPECT_EQ(a.users, b.users) << id;
    EXPECT_EQ(a.first_query, b.first_query) << id;
  }
}

TEST(ParseCacheTest, RepeatedTemplateHitsAndRendersIdenticalFacts) {
  auto log = MakeLog({
      "SELECT a FROM t WHERE x = 1",
      "select A from T where x = 2",  // same key: identifiers case-fold
      "SELECT a FROM t WHERE x = 3",
  });
  ParseRun reference = Parse(log, CacheOff());
  ParseRun cached = Parse(log, ParseCacheOptions{});
  ExpectSameOutput(reference, cached);

  EXPECT_EQ(cached.parsed.parse_stats.cache_misses, 1u);
  EXPECT_EQ(cached.parsed.parse_stats.cache_hits, 2u);
  EXPECT_EQ(cached.parsed.parse_stats.full_parses, 1u);
  EXPECT_EQ(cached.parsed.parse_stats.parses_avoided(), 2u);
  EXPECT_EQ(cached.parsed.parse_stats.templates_cached, 1u);
  EXPECT_GT(cached.parsed.parse_stats.cache_bytes, 0u);
  // The uncached run parses everything and touches no cache.
  EXPECT_EQ(reference.parsed.parse_stats.full_parses, 3u);
  EXPECT_EQ(reference.parsed.parse_stats.cache_hits, 0u);

  // Hits never build an AST, and the miss that built the entry dropped
  // its AST once the recipes were read from it.
  EXPECT_EQ(cached.parsed.queries[0].facts.ast, nullptr);
  EXPECT_EQ(cached.parsed.queries[1].facts.ast, nullptr);
  // The rendered facts carry the statement's own literals.
  EXPECT_EQ(cached.parsed.queries[1].facts.wc, "where x = 2");
  EXPECT_EQ(cached.parsed.queries[1].facts.predicate_values, std::vector<std::string>{"2"});
}

TEST(ParseCacheTest, StringEscapesNegativeNumbersAndVariablesRenderExactly) {
  auto log = MakeLog({
      "SELECT a FROM t WHERE s = 'it''s' AND n = -5 AND v = @x",
      "SELECT a FROM t WHERE s = 'plain' AND n = -7.5 AND v = @x",
      "SELECT a FROM t WHERE s = '' AND n = -12 AND v = @x",
  });
  ParseRun reference = Parse(log, CacheOff());
  ParseRun cached = Parse(log, ParseCacheOptions{});
  ExpectSameOutput(reference, cached);
  EXPECT_EQ(cached.parsed.parse_stats.cache_hits, 2u);
  // Quote doubling must survive the round trip through the recipe.
  EXPECT_NE(cached.parsed.queries[0].facts.wc.find("'it''s'"), std::string::npos);
}

TEST(ParseCacheTest, TopCountIsStructuralAndSplitsTemplates) {
  auto log = MakeLog({
      "SELECT TOP 5 a FROM t WHERE x = 1",
      "SELECT TOP 7 a FROM t WHERE x = 1",  // different TOP ⇒ different key
      "SELECT TOP 5 a FROM t WHERE x = 9",  // same TOP ⇒ hit
  });
  ParseRun reference = Parse(log, CacheOff());
  ParseRun cached = Parse(log, ParseCacheOptions{});
  ExpectSameOutput(reference, cached);
  EXPECT_EQ(cached.parsed.parse_stats.cache_misses, 2u);
  EXPECT_EQ(cached.parsed.parse_stats.cache_hits, 1u);
  EXPECT_NE(cached.parsed.queries[0].template_id, cached.parsed.queries[1].template_id);
  EXPECT_EQ(cached.parsed.queries[0].template_id, cached.parsed.queries[2].template_id);
}

TEST(ParseCacheTest, DistinctKeysKeepDistinctEntries) {
  // Interleaved templates: each distinct key gets its own entry, and
  // each repeat hits the entry of its own key, not a neighbour's.
  auto log = MakeLog({
      "SELECT a FROM t WHERE x = 1",
      "SELECT b FROM u WHERE y = 2",
      "SELECT a FROM t WHERE x = 3",
      "SELECT b FROM u WHERE y = 4",
      "SELECT c, d FROM v",
  });
  ParseRun reference = Parse(log, CacheOff());
  ParseRun cached = Parse(log, ParseCacheOptions{});
  ExpectSameOutput(reference, cached);
  EXPECT_EQ(cached.parsed.parse_stats.templates_cached, 3u);
  EXPECT_EQ(cached.parsed.parse_stats.cache_misses, 3u);
  EXPECT_EQ(cached.parsed.parse_stats.cache_hits, 2u);
}

TEST(ParseCacheTest, LiteralSubjectCaseIsUncacheableButCorrect) {
  // Simple-form CASE with a literal subject: normalization to searched
  // form clones the subject into every branch, so the printed clause has
  // more literal slots than the source has literal tokens — recipe
  // validation rejects the entry and every repeat takes the full parser.
  const std::string simple_case =
      "SELECT CASE 3 WHEN 1 THEN 'a' WHEN 2 THEN 'b' END FROM t";
  auto log = MakeLog({simple_case, simple_case, simple_case});
  ParseRun reference = Parse(log, CacheOff());
  ASSERT_EQ(reference.parsed.queries.size(), 3u) << "simple CASE must parse";
  ParseRun cached = Parse(log, ParseCacheOptions{});
  ExpectSameOutput(reference, cached);
  EXPECT_EQ(cached.parsed.parse_stats.uncacheable_hits, 2u);
  EXPECT_EQ(cached.parsed.parse_stats.cache_hits, 0u);
  EXPECT_EQ(cached.parsed.parse_stats.full_parses, 3u);
}

TEST(ParseCacheTest, ParseFailuresAreCachedWithoutLosingDiagnostics) {
  auto log = MakeLog({
      "SELECT FROM WHERE",
      "SELECT FROM WHERE",
      "SELECT FROM WHERE",
  });
  // Diagnostics requested: every failure hit re-parses for its message,
  // so the messages are byte-identical to the uncached run.
  ParseRun reference = Parse(log, CacheOff(), /*max_diagnostics=*/8);
  ParseRun cached = Parse(log, ParseCacheOptions{}, /*max_diagnostics=*/8);
  ExpectSameOutput(reference, cached);
  EXPECT_EQ(cached.parsed.syntax_error_count, 3u);
  EXPECT_EQ(cached.parsed.diagnostics.size(), 3u);

  // No diagnostics requested: repeats short-circuit on the cached
  // failure entry and skip the parser entirely.
  ParseRun quiet = Parse(log, ParseCacheOptions{}, /*max_diagnostics=*/0);
  EXPECT_EQ(quiet.parsed.syntax_error_count, 3u);
  EXPECT_EQ(quiet.parsed.parse_stats.failure_hits, 2u);
  EXPECT_EQ(quiet.parsed.parse_stats.full_parses, 1u);
}

TEST(ParseCacheTest, ShardedParseMatchesSerialWithCacheOn) {
  std::vector<std::string> statements;
  for (int i = 0; i < 200; ++i) {
    statements.push_back("SELECT a FROM t WHERE x = " + std::to_string(i % 7));
    statements.push_back("SELECT b, c FROM u WHERE y LIKE 'p" + std::to_string(i % 3) +
                         "%'");
  }
  auto log = MakeLog(statements);
  ParseRun reference = Parse(log, CacheOff());
  util::ThreadPool pool(8);
  ParseRun sharded = Parse(log, ParseCacheOptions{}, /*max_diagnostics=*/8, &pool);
  ExpectSameOutput(reference, sharded);
  EXPECT_GT(sharded.parsed.parse_stats.cache_hits, 0u);
}

TEST(ParseCacheTest, StreamingParserKeepsItsCacheAcrossBatches) {
  std::vector<std::string> statements;
  for (int i = 0; i < 40; ++i) {
    statements.push_back("SELECT a FROM t WHERE x = " + std::to_string(i));
  }
  auto log = MakeLog(statements);

  ParseRun reference = Parse(log, CacheOff());

  TemplateStore store;
  StreamingParser parser(store, /*max_diagnostics=*/8, nullptr, ParseCacheOptions{});
  std::vector<log::LogRecord> batch;
  for (size_t i = 0; i < log.size(); ++i) {
    batch.push_back(log.records()[i]);
    if (batch.size() == 10) {
      parser.FeedBatch(batch);
      batch.clear();
    }
  }
  if (!batch.empty()) parser.FeedBatch(batch);
  ParseRun streamed;
  streamed.parsed = parser.Finish();

  // One miss in the first batch; every later batch hits the persistent
  // cache (the template survives batch boundaries).
  EXPECT_EQ(streamed.parsed.parse_stats.cache_misses, 1u);
  EXPECT_EQ(streamed.parsed.parse_stats.cache_hits, 39u);
  EXPECT_EQ(streamed.parsed.parse_stats.templates_cached, 1u);

  // The streaming path drops ASTs wholesale, so compare the rest against
  // the in-memory reference through the store.
  ASSERT_EQ(streamed.parsed.queries.size(), reference.parsed.queries.size());
  for (size_t i = 0; i < reference.parsed.queries.size(); ++i) {
    EXPECT_EQ(streamed.parsed.queries[i].template_id,
              reference.parsed.queries[i].template_id);
    EXPECT_EQ(streamed.parsed.queries[i].facts.wc, reference.parsed.queries[i].facts.wc);
  }
  ASSERT_EQ(store.size(), reference.store.size());
  for (size_t id = 0; id < store.size(); ++id) {
    EXPECT_TRUE(store.Get(id).facts->tmpl == reference.store.Get(id).facts->tmpl);
    EXPECT_EQ(store.Get(id).frequency, reference.store.Get(id).frequency);
  }
}

TEST(ParseCacheTest, QueriesOfOneTemplateShareOneTemplateFacts) {
  // Three templates, interleaved and repeated across batches of one
  // record each: the miss that built an entry and every later hit of its
  // key hold the same TemplateFacts object, from the CSV (lex + lookup)
  // and from the `.sqb` (seeded zero-lex) input alike.
  std::vector<std::string> statements;
  for (int i = 0; i < 12; ++i) {
    statements.push_back("SELECT a FROM t WHERE x = " + std::to_string(i));
    statements.push_back("SELECT b, c FROM u WHERE y BETWEEN " + std::to_string(i) +
                         " AND " + std::to_string(i + 5));
    if (i % 3 == 0) statements.push_back("SELECT * FROM v");
  }
  const log::QueryLog raw = MakeLog(statements);
  const std::string dir = ::testing::TempDir();
  const std::string csv_input = dir + "/parse_cache_share_input.csv";
  const std::string sqb_input = dir + "/parse_cache_share_input.sqb";
  const std::string clean = dir + "/parse_cache_share_clean.csv";
  const std::string removal = dir + "/parse_cache_share_removal.csv";
  ASSERT_TRUE(log::LogIo::WriteFile(raw, csv_input).ok());
  ASSERT_TRUE(
      log::LogIo::WriteFile(raw, sqb_input, log::LogFormat::kSqb, BuildStatementRecipe).ok());

  for (bool parse_cache : {true, false}) {
    for (const std::string& input : {csv_input, sqb_input}) {
      SCOPED_TRACE(input + (parse_cache ? " cache on" : " cache off"));
      PipelineOptions options;
      options.num_threads = 1;
      options.batch_size = 1;
      options.parse_cache = parse_cache;
      auto run = Pipeline(options).RunStreaming(input, clean, removal);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      const std::vector<ParsedQuery>& queries = run->parsed.queries;
      ASSERT_EQ(queries.size(), statements.size());
      ASSERT_EQ(run->templates.size(), 3u);

      std::set<const sql::TemplateFacts*> distinct;
      std::vector<const sql::TemplateFacts*> of_template(3, nullptr);
      for (const ParsedQuery& query : queries) {
        ASSERT_NE(query.facts.shared, nullptr);
        distinct.insert(query.facts.shared.get());
        const sql::TemplateFacts*& first = of_template[query.template_id];
        if (first == nullptr) first = query.facts.shared.get();
        if (parse_cache) {
          EXPECT_EQ(query.facts.shared.get(), first);
        }
      }
      // With the cache off each query owns a private TemplateFacts.
      EXPECT_EQ(distinct.size(), parse_cache ? 3u : queries.size());
    }
  }
  for (const std::string& path : {csv_input, sqb_input, clean, removal}) {
    std::remove(path.c_str());
  }
}

std::unique_ptr<ParseCacheEntry> EntryWithKey(std::string key) {
  auto entry = std::make_unique<ParseCacheEntry>();
  entry->key = std::move(key);
  return entry;
}

TEST(ParseCacheTest, FindInsertAndTakeEntriesKeyByNormalizedKey) {
  ParseCache cache;
  EXPECT_EQ(cache.Find(""), nullptr);
  EXPECT_EQ(cache.Find("anything"), nullptr);

  // A key longer than any small-string buffer, and one short enough to
  // live inside the entry object itself: the map's view must point into
  // the heap-held entry either way.
  const std::string long_key(200, 'k');
  const std::string short_key = "ab";
  const ParseCacheEntry* long_entry = cache.Insert(EntryWithKey(long_key));
  const ParseCacheEntry* short_entry = cache.Insert(EntryWithKey(short_key));
  const ParseCacheEntry* empty_entry = cache.Insert(EntryWithKey(""));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_GT(cache.bytes(), 0u);
  const char* entry_begin = reinterpret_cast<const char*>(short_entry);
  EXPECT_TRUE(short_entry->key.data() >= entry_begin &&
              short_entry->key.data() < entry_begin + sizeof(ParseCacheEntry))
      << "the short key should sit in the entry's small-string buffer";

  // Lookups by an equal key held in a different buffer.
  std::string probe = long_key;
  EXPECT_EQ(cache.Find(probe), long_entry);
  probe = short_key;
  EXPECT_EQ(cache.Find(probe), short_entry);
  EXPECT_EQ(cache.Find(std::string_view("abc", 2)), short_entry);
  EXPECT_EQ(cache.Find(std::string()), empty_entry);
  EXPECT_EQ(cache.Find("a"), nullptr);
  EXPECT_EQ(cache.Find(long_key + "k"), nullptr);

  // Moving the cache moves only the owning pointers: the views stay valid.
  ParseCache moved = std::move(cache);
  EXPECT_EQ(moved.Find(short_key), short_entry);

  // TakeEntries hands the entries back in insertion order and leaves the
  // cache empty.
  std::vector<std::unique_ptr<ParseCacheEntry>> taken = moved.TakeEntries();
  ASSERT_EQ(taken.size(), 3u);
  EXPECT_EQ(taken[0].get(), long_entry);
  EXPECT_EQ(taken[1].get(), short_entry);
  EXPECT_EQ(taken[2].get(), empty_entry);
  EXPECT_EQ(moved.size(), 0u);
  EXPECT_EQ(moved.bytes(), 0u);
  EXPECT_EQ(moved.Find(long_key), nullptr);
  EXPECT_EQ(moved.Find(short_key), nullptr);

  // Promotion (the streaming parser's post-batch merge): re-inserted
  // entries keep their addresses and stay findable in the new cache.
  ParseCache persistent;
  for (auto& entry : taken) persistent.Insert(std::move(entry));
  EXPECT_EQ(persistent.size(), 3u);
  EXPECT_EQ(persistent.Find(long_key), long_entry);
  EXPECT_EQ(persistent.Find(short_key), short_entry);
  EXPECT_EQ(persistent.Find(""), empty_entry);
  EXPECT_EQ(moved.Find(short_key), nullptr);
}

TEST(ParseCacheEntryTest, BytesAccountsForKeyAndRecipes) {
  ParseCacheEntry entry;
  size_t empty_bytes = entry.bytes();
  entry.key = std::string(100, 'k');
  entry.sc.pieces.push_back(std::string(50, 'p'));
  EXPECT_GE(entry.bytes(), empty_bytes + 150);
}

TEST(ParseCacheEntryTest, BytesCountOnlyStringsHeldOnTheHeap) {
  // An entry whose strings all fit inside their std::string objects
  // weighs what the same entry with empty strings weighs.
  auto entry_of = [](const std::string& text) {
    auto facts = std::make_shared<sql::TemplateFacts>();
    facts->tmpl.ssc = text;
    facts->tables = {text};
    sql::Predicate pred;
    pred.column = text;
    facts->predicates.push_back(pred);
    ParseCacheEntry entry;
    entry.key = text;
    entry.facts = std::move(facts);
    entry.sc.pieces = {text, text};
    entry.values.resize(1);
    entry.values[0].fixed = text;
    return entry;
  };
  EXPECT_EQ(entry_of("ab").bytes(), entry_of("").bytes());

  // A long string counts its heap block: capacity plus the terminator.
  ParseCacheEntry entry;
  const size_t empty_bytes = entry.bytes();
  entry.key = std::string(100, 'k');
  EXPECT_EQ(entry.bytes(), empty_bytes + entry.key.capacity() + 1);
}

}  // namespace
}  // namespace sqlog::core
