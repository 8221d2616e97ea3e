#include "analysis/recommender.h"

#include <gtest/gtest.h>

#include "util/string_util.h"

namespace sqlog::analysis {
namespace {

struct Entry {
  const char* user;
  int64_t time_ms;
  std::string sql;
};

core::ParsedLog BuildParsedLog(const std::vector<Entry>& entries,
                               core::TemplateStore& store) {
  log::QueryLog log;
  for (const auto& entry : entries) {
    log::LogRecord record;
    record.user = entry.user;
    record.timestamp_ms = entry.time_ms;
    record.statement = entry.sql;
    log.Append(record);
  }
  log.Renumber();
  return core::ParseLog(log, store);
}

uint64_t FingerprintOf(const std::string& sql) {
  auto facts = sqlog::sql::ParseAndAnalyze(sql);
  EXPECT_TRUE(facts.ok()) << sql;
  return facts->shared->tmpl.fingerprint;
}

TEST(RecommenderTest, LearnsDominantTransition) {
  core::TemplateStore store;
  std::vector<Entry> entries;
  int64_t t = 0;
  for (int i = 0; i < 10; ++i) {
    entries.push_back({"u", t += 1000, StrFormat("SELECT a FROM t WHERE id = %d", i)});
    entries.push_back({"u", t += 1000, StrFormat("SELECT b FROM t WHERE id = %d", i)});
  }
  core::ParsedLog parsed = BuildParsedLog(entries, store);

  Recommender model;
  model.Train(parsed);
  uint64_t a = FingerprintOf("SELECT a FROM t WHERE id = 1");
  uint64_t b = FingerprintOf("SELECT b FROM t WHERE id = 1");
  auto top = model.Recommend(a, 1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0], b);
}

TEST(RecommenderTest, UnknownSourceYieldsNothing) {
  Recommender model;
  EXPECT_TRUE(model.Recommend(12345, 3).empty());
}

TEST(RecommenderTest, TopKOrdersByFrequency) {
  core::TemplateStore store;
  std::vector<Entry> entries;
  int64_t t = 0;
  // a→b three times, a→c once.
  for (int i = 0; i < 3; ++i) {
    entries.push_back({"u", t += 1000, "SELECT a FROM t WHERE id = 1"});
    entries.push_back({"u", t += 1000, "SELECT b FROM t WHERE id = 1"});
  }
  entries.push_back({"u", t += 1000, "SELECT a FROM t WHERE id = 1"});
  entries.push_back({"u", t += 1000, "SELECT c FROM t WHERE id = 1"});
  core::ParsedLog parsed = BuildParsedLog(entries, store);

  Recommender model;
  model.Train(parsed);
  auto top = model.Recommend(FingerprintOf("SELECT a FROM t WHERE id = 9"), 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0], FingerprintOf("SELECT b FROM t WHERE id = 9"));
  EXPECT_EQ(top[1], FingerprintOf("SELECT c FROM t WHERE id = 9"));
}

TEST(RecommenderTest, GapBoundsTransitions) {
  core::TemplateStore store;
  std::vector<Entry> entries = {
      {"u", 0, "SELECT a FROM t WHERE id = 1"},
      {"u", 100000000, "SELECT b FROM t WHERE id = 1"},  // different session
  };
  core::ParsedLog parsed = BuildParsedLog(entries, store);
  Recommender model;
  model.Train(parsed);
  EXPECT_EQ(model.transition_count(), 0u);
}

TEST(RecommenderTest, UsersDoNotLeakTransitions) {
  core::TemplateStore store;
  std::vector<Entry> entries = {
      {"a", 0, "SELECT a FROM t WHERE id = 1"},
      {"b", 1000, "SELECT b FROM t WHERE id = 1"},
  };
  core::ParsedLog parsed = BuildParsedLog(entries, store);
  Recommender model;
  model.Train(parsed);
  EXPECT_EQ(model.transition_count(), 0u);
}

TEST(RecommenderTest, HitRatePerfectOnTrainingDistribution) {
  core::TemplateStore store;
  std::vector<Entry> entries;
  int64_t t = 0;
  for (int i = 0; i < 5; ++i) {
    entries.push_back({"u", t += 1000, StrFormat("SELECT a FROM t WHERE id = %d", i)});
    entries.push_back({"u", t += 1000, StrFormat("SELECT b FROM t WHERE id = %d", i)});
    // A pause so only a→b transitions are counted (no b→a seam).
    t += 100000000;
  }
  core::ParsedLog parsed = BuildParsedLog(entries, store);
  Recommender model;
  model.Train(parsed);
  EXPECT_DOUBLE_EQ(model.HitRate(parsed, 1), 1.0);
}

TEST(RecommenderTest, FlaggedRecommendationRate) {
  core::TemplateStore store;
  std::vector<Entry> entries;
  int64_t t = 0;
  for (int i = 0; i < 4; ++i) {
    entries.push_back({"u", t += 1000, StrFormat("SELECT a FROM t WHERE id = %d", i)});
    entries.push_back({"u", t += 1000, StrFormat("SELECT b FROM t WHERE id = %d", i)});
    t += 100000000;
  }
  core::ParsedLog parsed = BuildParsedLog(entries, store);
  Recommender model;
  model.Train(parsed);

  std::unordered_set<uint64_t> flagged = {FingerprintOf("SELECT b FROM t WHERE id = 0")};
  EXPECT_DOUBLE_EQ(model.FlaggedRecommendationRate(parsed, flagged), 1.0);
  EXPECT_DOUBLE_EQ(model.FlaggedRecommendationRate(parsed, {}), 0.0);
}

TEST(RecommenderTest, EmptyEvalIsZero) {
  Recommender model;
  core::TemplateStore store;
  core::ParsedLog parsed = BuildParsedLog({}, store);
  EXPECT_DOUBLE_EQ(model.HitRate(parsed, 3), 0.0);
}

}  // namespace
}  // namespace sqlog::analysis
