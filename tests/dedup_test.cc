#include "core/dedup.h"

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

TEST(DedupTest, RemovesRepeatWithinThreshold) {
  log::QueryLog log;
  log.Append(Make(1000, "u", "SELECT 1"));
  log.Append(Make(1400, "u", "SELECT 1"));
  DedupStats stats;
  log::QueryLog out = RemoveDuplicates(log, DedupOptions{}, &stats);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(stats.removed_count, 1u);
  EXPECT_EQ(stats.input_count, 2u);
  EXPECT_EQ(stats.output_count, 1u);
}

TEST(DedupTest, KeepsRepeatBeyondThreshold) {
  log::QueryLog log;
  log.Append(Make(1000, "u", "SELECT 1"));
  log.Append(Make(3000, "u", "SELECT 1"));
  log::QueryLog out = RemoveDuplicates(log, DedupOptions{}, nullptr);
  EXPECT_EQ(out.size(), 2u);
}

TEST(DedupTest, DifferentUsersAreNotDuplicates) {
  log::QueryLog log;
  log.Append(Make(1000, "a", "SELECT 1"));
  log.Append(Make(1100, "b", "SELECT 1"));
  EXPECT_EQ(RemoveDuplicates(log, DedupOptions{}, nullptr).size(), 2u);
}

TEST(DedupTest, DifferentStatementsAreNotDuplicates) {
  log::QueryLog log;
  log.Append(Make(1000, "u", "SELECT 1"));
  log.Append(Make(1100, "u", "SELECT 2"));
  EXPECT_EQ(RemoveDuplicates(log, DedupOptions{}, nullptr).size(), 2u);
}

TEST(DedupTest, BurstCollapsesByChaining) {
  // 5 reloads 800ms apart: each is within the window of its predecessor,
  // so all but the first disappear even though the last is 3.2s after
  // the first.
  log::QueryLog log;
  for (int i = 0; i < 5; ++i) log.Append(Make(1000 + i * 800, "u", "SELECT 1"));
  log::QueryLog out = RemoveDuplicates(log, DedupOptions{}, nullptr);
  EXPECT_EQ(out.size(), 1u);
}

TEST(DedupTest, UnrestrictedRemovesAllRepeats) {
  log::QueryLog log;
  log.Append(Make(1000, "u", "SELECT 1"));
  log.Append(Make(9000000, "u", "SELECT 1"));
  DedupOptions options;
  options.unrestricted = true;
  EXPECT_EQ(RemoveDuplicates(log, options, nullptr).size(), 1u);
}

TEST(DedupTest, ThresholdSweepIsMonotone) {
  // Larger thresholds can only remove more (Table 4's shape).
  log::QueryLog log;
  const char* sqls[] = {"SELECT 1", "SELECT 2"};
  int64_t t = 0;
  for (int round = 0; round < 50; ++round) {
    for (const char* sql : sqls) {
      log.Append(Make(t, "u", sql));
      t += 700 * (1 + round % 7);
    }
  }
  size_t prev = log.size();
  size_t previous_out = prev + 1;
  for (int64_t threshold : {1000, 2000, 5000, 10000}) {
    DedupOptions options;
    options.threshold_ms = threshold;
    size_t out = RemoveDuplicates(log, options, nullptr).size();
    EXPECT_LE(out, previous_out) << threshold;
    previous_out = out;
  }
  DedupOptions unrestricted;
  unrestricted.unrestricted = true;
  EXPECT_LE(RemoveDuplicates(log, unrestricted, nullptr).size(), previous_out);
}

TEST(DedupTest, SortsUnorderedInput) {
  log::QueryLog log;
  log.Append(Make(5000, "u", "SELECT 1"));
  log.Append(Make(1000, "u", "SELECT 1"));
  log.Append(Make(1300, "u", "SELECT 1"));
  // Sorted order: 1000, 1300 (dup), 5000 (kept, gap 3.7s).
  log::QueryLog out = RemoveDuplicates(log, DedupOptions{}, nullptr);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out.records()[0].timestamp_ms, 1000);
  EXPECT_EQ(out.records()[1].timestamp_ms, 5000);
}

TEST(DedupTest, OutputIsRenumbered) {
  log::QueryLog log;
  log.Append(Make(1000, "u", "SELECT 1"));
  log.Append(Make(1100, "u", "SELECT 1"));
  log.Append(Make(9000, "u", "SELECT 2"));
  log::QueryLog out = RemoveDuplicates(log, DedupOptions{}, nullptr);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out.records()[0].seq, 0u);
  EXPECT_EQ(out.records()[1].seq, 1u);
}

TEST(DedupTest, EmptyLog) {
  log::QueryLog log;
  DedupStats stats;
  EXPECT_EQ(RemoveDuplicates(log, DedupOptions{}, &stats).size(), 0u);
  EXPECT_EQ(stats.removed_count, 0u);
}

TEST(DedupTest, AnonymousUsersShareOneIdentity) {
  // Without user metadata, identical queries from "different people"
  // within the window collapse — the Sec. 6.8 degradation.
  log::QueryLog log;
  log.Append(Make(1000, "", "SELECT 1"));
  log.Append(Make(1200, "", "SELECT 1"));
  EXPECT_EQ(RemoveDuplicates(log, DedupOptions{}, nullptr).size(), 1u);
}

TEST(DedupTest, InterleavedDistinctKeysAreNotDuplicates) {
  // Two different (user, statement) pairs interleaved inside the window:
  // each repeat chains on its own key only, so the second pair is never
  // taken for a repeat of the first.
  log::QueryLog log;
  log.Append(Make(1000, "alice", "SELECT 1"));
  log.Append(Make(1100, "bob", "SELECT 2"));
  log.Append(Make(1200, "alice", "SELECT 1"));  // true duplicate of record 0
  log.Append(Make(1300, "bob", "SELECT 2"));    // true duplicate of record 1
  DedupStats stats;
  log::QueryLog out = RemoveDuplicates(log, DedupOptions{}, &stats);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out.records()[0].user, "alice");
  EXPECT_EQ(out.records()[1].user, "bob");
  EXPECT_EQ(stats.removed_count, 2u);
}

TEST(DedupTest, InterleavedBurstsChainPerKey) {
  // Interleaved bursts of two distinct keys chain per key: every repeat
  // is within its own key's window.
  log::QueryLog log;
  for (int i = 0; i < 4; ++i) {
    log.Append(Make(1000 + i * 800, "u", "SELECT 1"));
    log.Append(Make(1400 + i * 800, "v", "SELECT 2"));
  }
  log::QueryLog out = RemoveDuplicates(log, DedupOptions{}, nullptr);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out.records()[0].statement, "SELECT 1");
  EXPECT_EQ(out.records()[1].statement, "SELECT 2");
}

TEST(StreamingDeduperTest, MatchesRemoveDuplicatesOnSortedInput) {
  // A mixed workload: bursts, repeats beyond the window, several users —
  // fed in time order, the streaming deduper must flag exactly the
  // records RemoveDuplicates drops.
  log::QueryLog log;
  int64_t t = 0;
  const char* users[] = {"a", "b", ""};
  const char* sqls[] = {"SELECT 1", "SELECT 2", "SELECT 3 FROM t"};
  for (int i = 0; i < 120; ++i) {
    t += (i % 5) * 400;  // gaps 0..1600ms: some inside the window, some out
    log.Append(Make(t, users[i % 3], sqls[(i / 2) % 3]));
  }
  log.SortByTime();
  log.Renumber();

  DedupOptions options;
  DedupStats stats;
  log::QueryLog batch_out = RemoveDuplicates(log, options, &stats);

  StreamingDeduper deduper(options);
  log::QueryLog stream_out;
  for (const auto& record : log.records()) {
    if (!deduper.IsDuplicate(record)) stream_out.Append(record);
  }
  stream_out.Renumber();

  ASSERT_EQ(stream_out.size(), batch_out.size());
  for (size_t i = 0; i < batch_out.size(); ++i) {
    EXPECT_EQ(stream_out.records()[i].statement, batch_out.records()[i].statement);
    EXPECT_EQ(stream_out.records()[i].timestamp_ms, batch_out.records()[i].timestamp_ms);
    EXPECT_EQ(stream_out.records()[i].user, batch_out.records()[i].user);
  }
  EXPECT_EQ(deduper.duplicates_seen(), stats.removed_count);
  EXPECT_EQ(deduper.records_seen(), log.size());
}

TEST(StreamingDeduperTest, CountsDistinctKeysOnce) {
  StreamingDeduper deduper(DedupOptions{});
  EXPECT_FALSE(deduper.IsDuplicate(Make(1000, "u", "SELECT 1")));
  EXPECT_TRUE(deduper.IsDuplicate(Make(1100, "u", "SELECT 1")));
  EXPECT_FALSE(deduper.IsDuplicate(Make(1200, "v", "SELECT 1")));
  EXPECT_EQ(deduper.distinct_keys(), 2u);
  EXPECT_EQ(deduper.records_seen(), 3u);
  EXPECT_EQ(deduper.duplicates_seen(), 1u);
}

}  // namespace
}  // namespace sqlog::core
