#include "core/template_store.h"

#include <gtest/gtest.h>

namespace sqlog::core {
namespace {

log::LogRecord Make(int64_t t, const char* user, const char* sql) {
  log::LogRecord record;
  record.timestamp_ms = t;
  record.user = user;
  record.statement = sql;
  return record;
}

TEST(TemplateStoreTest, InternReturnsSameIdForEqualTemplates) {
  TemplateStore store;
  auto a = sql::ParseAndAnalyze("SELECT x FROM t WHERE id = 1");
  auto b = sql::ParseAndAnalyze("SELECT x FROM t WHERE id = 999");
  ASSERT_TRUE(a.ok() && b.ok());
  uint64_t id_a = store.Intern(a->shared, 0);
  uint64_t id_b = store.Intern(b->shared, 1);
  EXPECT_EQ(id_a, id_b);
  EXPECT_EQ(store.size(), 1u);
}

TEST(TemplateStoreTest, DifferentTemplatesGetDifferentIds) {
  TemplateStore store;
  auto a = sql::ParseAndAnalyze("SELECT x FROM t WHERE id = 1");
  auto b = sql::ParseAndAnalyze("SELECT y FROM t WHERE id = 1");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(store.Intern(a->shared, 0), store.Intern(b->shared, 1));
  EXPECT_EQ(store.size(), 2u);
}

TEST(TemplateStoreTest, RecordUseTracksFrequencyAndUsers) {
  // Three uses of one template by two users, counted by ParseLog from
  // the user streams.
  TemplateStore store;
  log::QueryLog log;
  log.Append(Make(1000, "alice", "SELECT x FROM t WHERE id = 1"));
  log.Append(Make(2000, "alice", "SELECT x FROM t WHERE id = 2"));
  log.Append(Make(3000, "bob", "SELECT x FROM t WHERE id = 3"));
  ParsedLog parsed = ParseLog(log, store);
  ASSERT_EQ(store.size(), 1u);
  uint64_t id = parsed.queries[0].template_id;
  EXPECT_EQ(store.Get(id).frequency, 3u);
  EXPECT_EQ(store.Get(id).user_popularity(), 2u);
}

TEST(TemplateStoreTest, EmptyUserIsAnonymousIdZero) {
  TemplateStore store;
  EXPECT_EQ(store.InternUser(""), 0u);
  EXPECT_EQ(store.InternUser("someone"), 1u);
  EXPECT_EQ(store.InternUser("someone"), 1u);
}

TEST(ParseLogTest, ClassifiesAndCounts) {
  TemplateStore store;
  log::QueryLog log;
  log.Append(Make(1000, "u", "SELECT x FROM t WHERE id = 1"));
  log.Append(Make(2000, "u", "INSERT INTO t VALUES (1)"));
  log.Append(Make(3000, "u", "SELECT broken FROM"));
  log.Append(Make(4000, "u", "SELECT x FROM t WHERE id = 2"));
  ParsedLog parsed = ParseLog(log, store);
  EXPECT_EQ(parsed.queries.size(), 2u);
  EXPECT_EQ(parsed.non_select_count, 1u);
  EXPECT_EQ(parsed.syntax_error_count, 1u);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.Get(parsed.queries[0].template_id).frequency, 2u);
}

TEST(ParseLogTest, UserStreamsAreTimeOrdered) {
  TemplateStore store;
  log::QueryLog log;
  log.Append(Make(3000, "a", "SELECT x FROM t WHERE id = 3"));
  log.Append(Make(1000, "a", "SELECT x FROM t WHERE id = 1"));
  log.Append(Make(2000, "b", "SELECT x FROM t WHERE id = 2"));
  ParsedLog parsed = ParseLog(log, store);
  // Streams indexed by interned user id; user "a" interned first.
  uint32_t a_id = 0;
  for (size_t i = 0; i < store.user_names().size(); ++i) {
    if (store.user_names()[i] == "a") a_id = static_cast<uint32_t>(i);
  }
  const auto& stream = parsed.user_streams[a_id];
  ASSERT_EQ(stream.size(), 2u);
  EXPECT_LT(parsed.queries[stream[0]].timestamp_ms, parsed.queries[stream[1]].timestamp_ms);
}

TEST(ParseLogTest, RecordIndexPointsIntoInputLog) {
  TemplateStore store;
  log::QueryLog log;
  log.Append(Make(1000, "u", "CREATE TABLE x (a int)"));
  log.Append(Make(2000, "u", "SELECT x FROM t WHERE id = 1"));
  log.Renumber();
  ParsedLog parsed = ParseLog(log, store);
  ASSERT_EQ(parsed.queries.size(), 1u);
  EXPECT_EQ(parsed.queries[0].record_index, 1u);
}

TEST(ParseLogTest, RowCountIsCarried) {
  TemplateStore store;
  log::QueryLog log;
  log::LogRecord record = Make(1000, "u", "SELECT x FROM t WHERE id = 1");
  record.row_count = 7;
  log.Append(record);
  ParsedLog parsed = ParseLog(log, store);
  ASSERT_EQ(parsed.queries.size(), 1u);
  EXPECT_EQ(parsed.queries[0].row_count, 7);
}

TEST(ParseLogTest, AnonymousLogHasSingleStream) {
  TemplateStore store;
  log::QueryLog log;
  log.Append(Make(1000, "", "SELECT x FROM t WHERE id = 1"));
  log.Append(Make(2000, "", "SELECT y FROM t WHERE id = 2"));
  ParsedLog parsed = ParseLog(log, store);
  ASSERT_EQ(parsed.user_streams.size(), 1u);
  EXPECT_EQ(parsed.user_streams[0].size(), 2u);
}

}  // namespace
}  // namespace sqlog::core
