// Parse-cache-vs-full-parse equivalence at scale: a 100k-record
// generator workload parsed with the parse cache (keyed by normalized
// key) must be observably identical to the uncached parse — serial and
// sharded, and through the batch-incremental streaming parser at
// several batch sizes. (The per-input flavour of this oracle also runs over every
// fuzz corpus entry; see tests/oracles and fuzz_corpus_replay_test.)

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/template_store.h"
#include "log/generator.h"
#include "log/record.h"
#include "util/thread_pool.h"

namespace sqlog {
namespace {

log::QueryLog WorkloadLog() {
  log::GeneratorConfig config;
  config.seed = 63020411;
  config.target_statements = 100000;
  config.human_users = 80;
  return log::GenerateLog(config);
}

/// Serializes every cache-observable field of a parse run — any
/// divergence between cached and uncached runs lands in this string.
std::string Digest(const core::TemplateStore& store, const core::ParsedLog& parsed) {
  std::string out;
  out.reserve(parsed.queries.size() * 128);
  auto add = [&out](const std::string& s) {
    out += s;
    out.push_back('\x1f');
  };
  auto add_n = [&add](uint64_t n) { add(std::to_string(n)); };
  for (const auto& query : parsed.queries) {
    add_n(query.record_index);
    add_n(query.template_id);
    add_n(query.user_id);
    add(query.facts.sc);
    add(query.facts.fc);
    add(query.facts.wc);
    const sql::TemplateFacts& shared = *query.facts.shared;
    add(shared.tmpl.ssc);
    add(shared.tmpl.sfc);
    add(shared.tmpl.swc);
    add(shared.tmpl.tail);
    add_n(shared.tmpl.fingerprint);
    add(shared.selects_star ? "*" : "-");
    add(shared.where_conjunctive ? "&" : "|");
    add_n(static_cast<uint64_t>(shared.from_item_count));
    for (const auto& column : shared.selected_columns) add(column);
    for (const auto& table : shared.tables) add(table);
    for (const auto& fn : shared.table_functions) add(fn);
    for (size_t p = 0; p < shared.predicates.size(); ++p) {
      const sql::Predicate& pred = shared.predicates[p];
      add(sql::PredicateOpName(pred.op));
      add(pred.qualifier);
      add(pred.column);
      add_n(pred.value_begin);
      add_n(pred.value_count);
      for (const auto& value : query.facts.values(p)) add(value);
      add(pred.constant_comparison ? "c" : "-");
      add(pred.compares_to_null_literal ? "n" : "-");
      add(pred.lhs_computed ? "l" : "-");
      add(sql::PredicateOpName(pred.computed_op));
      add(pred.computed_fn);
      add(pred.column_equijoin ? "j" : "-");
    }
    out.push_back('\n');
  }
  add_n(parsed.non_select_count);
  add_n(parsed.syntax_error_count);
  for (const auto& diag : parsed.diagnostics) {
    add_n(diag.record_index);
    add_n(diag.record_seq);
    add(diag.message);
  }
  for (const auto& stream : parsed.user_streams) {
    for (size_t index : stream) add_n(index);
    out.push_back(';');
  }
  for (const auto& name : store.user_names()) add(name);
  for (const auto& info : store.templates()) {
    add_n(info.id);
    add_n(info.frequency);
    add_n(info.first_query);
    add(info.facts->tmpl.ssc);
    add(info.facts->tmpl.sfc);
    add(info.facts->tmpl.swc);
    add(info.facts->tmpl.tail);
    for (uint32_t user : info.users) add_n(user);
    out.push_back('\n');
  }
  return out;
}

TEST(FingerprintOracleTest, CachedParseIsObservablyIdenticalAtScale) {
  const log::QueryLog raw = WorkloadLog();

  core::ParseCacheOptions off;
  off.enabled = false;
  core::TemplateStore reference_store;
  core::ParsedLog reference =
      core::ParseLog(raw, reference_store, nullptr, /*max_diagnostics=*/16, off);
  const std::string want = Digest(reference_store, reference);
  ASSERT_FALSE(reference.queries.empty());

  {
    core::TemplateStore store;
    core::ParsedLog cached =
        core::ParseLog(raw, store, nullptr, /*max_diagnostics=*/16, {});
    EXPECT_EQ(Digest(store, cached), want) << "serial cached parse diverged";
    // The generator workload is template-heavy: the cache must be doing
    // real work, not vacuously passing because nothing hit.
    EXPECT_GT(cached.parse_stats.parses_avoided(), cached.queries.size() / 2)
        << "cache hit rate collapsed";
    EXPECT_LT(cached.parse_stats.full_parses, reference.parse_stats.full_parses);
  }
  {
    util::ThreadPool pool(8);
    core::TemplateStore store;
    core::ParsedLog cached =
        core::ParseLog(raw, store, &pool, /*max_diagnostics=*/16, {});
    EXPECT_EQ(Digest(store, cached), want) << "8-thread cached parse diverged";
    EXPECT_GT(cached.parse_stats.parses_avoided(), 0u);
  }
}

TEST(FingerprintOracleTest, StreamingCachedParseMatchesAtAnyBatchSize) {
  log::GeneratorConfig config;
  config.seed = 63020412;
  config.target_statements = 4000;
  const log::QueryLog raw = log::GenerateLog(config);

  core::ParseCacheOptions off;
  off.enabled = false;
  core::TemplateStore reference_store;
  core::ParsedLog reference =
      core::ParseLog(raw, reference_store, nullptr, /*max_diagnostics=*/16, off);
  // The streaming parser releases ASTs and therefore compares through
  // the same AST-free digest.
  const std::string want = Digest(reference_store, reference);

  util::ThreadPool pool(8);
  for (size_t batch_size : {size_t{1}, size_t{4096}, raw.size()}) {
    for (util::ThreadPool* shards : {static_cast<util::ThreadPool*>(nullptr), &pool}) {
      SCOPED_TRACE("batch=" + std::to_string(batch_size) +
                   " pool=" + (shards ? "8" : "none"));
      core::TemplateStore store;
      core::StreamingParser parser(store, /*max_diagnostics=*/16, shards, {});
      std::vector<log::LogRecord> batch;
      for (size_t i = 0; i < raw.size(); ++i) {
        batch.push_back(raw.records()[i]);
        if (batch.size() == batch_size) {
          parser.FeedBatch(batch);
          batch.clear();
        }
      }
      if (!batch.empty()) parser.FeedBatch(batch);
      core::ParsedLog streamed = parser.Finish();
      EXPECT_EQ(Digest(store, streamed), want);
      if (batch_size > 1) {
        EXPECT_GT(streamed.parse_stats.parses_avoided(), 0u);
      }
    }
  }
}

}  // namespace
}  // namespace sqlog
