#include "core/pattern_miner.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "log/generator.h"
#include "util/random.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace sqlog::core {
namespace {

/// Builds a ParsedLog from (user, time, statement) triples.
struct Entry {
  const char* user;
  int64_t time_ms;
  std::string sql;
};

ParsedLog BuildParsedLog(const std::vector<Entry>& entries, TemplateStore& store) {
  log::QueryLog log;
  for (const auto& entry : entries) {
    log::LogRecord record;
    record.user = entry.user;
    record.timestamp_ms = entry.time_ms;
    record.statement = entry.sql;
    log.Append(record);
  }
  log.Renumber();
  return ParseLog(log, store);
}

/// Builds a ParsedLog straight from per-user template-id streams (user
/// id = stream index), so a test can choose the ids. `times` gives each
/// query's timestamp; empty means one query per second.
ParsedLog FromStreams(const std::vector<std::vector<uint64_t>>& streams,
                      const std::vector<std::vector<int64_t>>& times = {}) {
  ParsedLog parsed;
  parsed.user_streams.resize(streams.size());
  for (uint32_t user = 0; user < streams.size(); ++user) {
    for (size_t k = 0; k < streams[user].size(); ++k) {
      ParsedQuery query;
      query.record_index = parsed.queries.size();
      query.timestamp_ms = times.empty() ? static_cast<int64_t>(k) * 1000 : times[user][k];
      query.user_id = user;
      query.template_id = streams[user][k];
      parsed.user_streams[user].push_back(parsed.queries.size());
      parsed.queries.push_back(std::move(query));
    }
  }
  return parsed;
}

MinerOptions LowSupport() {
  MinerOptions options;
  options.min_support = 1;
  return options;
}

const Pattern* FindByLength(const std::vector<Pattern>& patterns, size_t length,
                            uint64_t frequency) {
  for (const auto& p : patterns) {
    if (p.length() == length && p.frequency == frequency) return &p;
  }
  return nullptr;
}

TEST(PatternMinerTest, SingleTemplateFrequencyIsOccurrenceCount) {
  TemplateStore store;
  std::vector<Entry> entries;
  for (int i = 0; i < 5; ++i) {
    entries.push_back({"u", 1000 + i * 1000,
                       StrFormat("SELECT x FROM t WHERE id = %d", i)});
  }
  ParsedLog parsed = BuildParsedLog(entries, store);
  auto patterns = MinePatterns(parsed, LowSupport());
  ASSERT_EQ(patterns.size(), 1u);  // (A,A) self-repetitions are subsumed
  EXPECT_EQ(patterns[0].length(), 1u);
  EXPECT_EQ(patterns[0].frequency, 5u);
  EXPECT_EQ(patterns[0].user_popularity(), 1u);
}

TEST(PatternMinerTest, AlternatingPairMinedOnce) {
  TemplateStore store;
  std::vector<Entry> entries;
  for (int i = 0; i < 4; ++i) {
    entries.push_back({"u", 1000 + i * 2000,
                       StrFormat("SELECT a FROM t WHERE id = %d", i)});
    entries.push_back({"u", 2000 + i * 2000,
                       StrFormat("SELECT b FROM t WHERE id = %d", i)});
  }
  ParsedLog parsed = BuildParsedLog(entries, store);
  auto patterns = MinePatterns(parsed, LowSupport());
  // Non-overlapping (A,B) instances: 4. The (B,A) seam windows: 3.
  const Pattern* ab = FindByLength(patterns, 2, 4);
  ASSERT_NE(ab, nullptr);
  // Self-repetition windows like (A,B,A,B) are subsumed and absent.
  for (const auto& p : patterns) {
    EXPECT_LE(p.length(), 3u);
  }
}

TEST(PatternMinerTest, GapSplitsInstances) {
  TemplateStore store;
  std::vector<Entry> entries = {
      {"u", 0, "SELECT a FROM t WHERE id = 1"},
      {"u", 1000, "SELECT b FROM t WHERE id = 1"},
      // 2 hours later — a different segment.
      {"u", 7200000, "SELECT a FROM t WHERE id = 2"},
      {"u", 7201000, "SELECT b FROM t WHERE id = 2"},
  };
  ParsedLog parsed = BuildParsedLog(entries, store);
  MinerOptions options = LowSupport();
  options.max_gap_ms = 60000;
  auto patterns = MinePatterns(parsed, options);
  const Pattern* ab = FindByLength(patterns, 2, 2);
  ASSERT_NE(ab, nullptr);  // two instances, one per segment
}

TEST(PatternMinerTest, UsersDoNotMixStreams) {
  TemplateStore store;
  std::vector<Entry> entries = {
      {"a", 0, "SELECT a FROM t WHERE id = 1"},
      {"b", 100, "SELECT b FROM t WHERE id = 1"},
      {"a", 200, "SELECT b FROM t WHERE id = 2"},
  };
  ParsedLog parsed = BuildParsedLog(entries, store);
  auto patterns = MinePatterns(parsed, LowSupport());
  // The pair (A,B) exists only inside user a's stream.
  const Pattern* ab = FindByLength(patterns, 2, 1);
  ASSERT_NE(ab, nullptr);
  EXPECT_EQ(ab->user_popularity(), 1u);
}

TEST(PatternMinerTest, UserPopularityCountsDistinctUsers) {
  TemplateStore store;
  std::vector<Entry> entries;
  for (int u = 0; u < 3; ++u) {
    entries.push_back({u == 0 ? "a" : (u == 1 ? "b" : "c"), u * 10000,
                       StrFormat("SELECT x FROM t WHERE id = %d", u)});
  }
  ParsedLog parsed = BuildParsedLog(entries, store);
  auto patterns = MinePatterns(parsed, LowSupport());
  ASSERT_EQ(patterns.size(), 1u);
  EXPECT_EQ(patterns[0].frequency, 3u);
  EXPECT_EQ(patterns[0].user_popularity(), 3u);
}

TEST(PatternMinerTest, MinSupportFilters) {
  TemplateStore store;
  std::vector<Entry> entries = {
      {"u", 0, "SELECT rare FROM t WHERE id = 1"},
      {"u", 100000000, "SELECT common FROM t WHERE id = 1"},
      {"u", 200000000, "SELECT common FROM t WHERE id = 2"},
  };
  ParsedLog parsed = BuildParsedLog(entries, store);
  MinerOptions options;
  options.min_support = 2;
  auto patterns = MinePatterns(parsed, options);
  ASSERT_EQ(patterns.size(), 1u);
  EXPECT_EQ(patterns[0].frequency, 2u);
}

TEST(PatternMinerTest, MaxLengthBoundsWindow) {
  TemplateStore store;
  std::vector<Entry> entries;
  for (int i = 0; i < 4; ++i) {
    entries.push_back({"u", i * 1000,
                       StrFormat("SELECT c%d FROM t WHERE id = 1", i)});
  }
  ParsedLog parsed = BuildParsedLog(entries, store);
  MinerOptions options = LowSupport();
  options.max_length = 2;
  auto patterns = MinePatterns(parsed, options);
  for (const auto& p : patterns) {
    EXPECT_LE(p.length(), 2u);
  }
}

TEST(PatternMinerTest, SortByFrequencyIsDeterministic) {
  TemplateStore store;
  std::vector<Entry> entries = {
      {"u", 0, "SELECT a FROM t WHERE id = 1"},
      {"u", 100000000, "SELECT b FROM t WHERE id = 1"},
      {"u", 200000000, "SELECT a FROM t WHERE id = 2"},
  };
  ParsedLog parsed = BuildParsedLog(entries, store);
  auto patterns = MinePatterns(parsed, LowSupport());
  SortByFrequency(patterns);
  for (size_t i = 1; i < patterns.size(); ++i) {
    EXPECT_GE(patterns[i - 1].frequency, patterns[i].frequency);
  }
  // Ties broken by length then ids — re-sorting yields the same order.
  auto copy = patterns;
  SortByFrequency(copy);
  for (size_t i = 0; i < patterns.size(); ++i) {
    EXPECT_EQ(copy[i].template_ids, patterns[i].template_ids);
  }
}

TEST(PatternMinerTest, EmptyLogYieldsNoPatterns) {
  TemplateStore store;
  ParsedLog parsed = BuildParsedLog({}, store);
  EXPECT_TRUE(MinePatterns(parsed, LowSupport()).empty());
}

TEST(PatternMinerTest, DistinctSequencesNeverCountTogether) {
  // (1057, 0) and (895, 1451) collide under a length-seeded HashCombine
  // chain: a miner that identifies n-grams by that hash alone reports
  // (1057, 0) with frequency 2 and two users.
  ParsedLog parsed = FromStreams({{1057, 0}, {895, 1451}});
  for (const auto& p : MinePatterns(parsed, MinerOptions())) {
    EXPECT_NE(p.length(), 2u) << "phantom pattern with frequency " << p.frequency;
  }
  auto patterns = MinePatterns(parsed, LowSupport());
  size_t pairs = 0;
  for (const auto& p : patterns) {
    if (p.length() != 2) continue;
    ++pairs;
    EXPECT_EQ(p.frequency, 1u);
    EXPECT_EQ(p.user_popularity(), 1u);
  }
  EXPECT_EQ(pairs, 2u);
}

/// Defs. 7-10 taken literally, as the reference for MinePatterns: split
/// every user's stream at gaps above max_gap_ms, take every window of at
/// most max_length queries that is not a repetition of a shorter period,
/// key it by its template ids, and count the windows of one key greedily
/// left to right without overlap inside a segment.
std::vector<Pattern> NaiveMine(const ParsedLog& parsed, const MinerOptions& options) {
  struct Acc {
    uint64_t frequency = 0;
    std::set<uint32_t> users;
    size_t sample_query = 0;
    size_t segment = 0;   // serial of the segment holding the last counted window
    size_t end = 0;       // end of the last counted window in that segment
  };
  std::map<std::vector<uint64_t>, Acc> accs;
  size_t segment_serial = 0;
  for (uint32_t user = 0; user < parsed.user_streams.size(); ++user) {
    std::vector<std::vector<size_t>> segments;
    const auto& stream = parsed.user_streams[user];
    for (size_t k = 0; k < stream.size(); ++k) {
      if (k == 0 || parsed.queries[stream[k]].timestamp_ms -
                            parsed.queries[stream[k - 1]].timestamp_ms >
                        options.max_gap_ms) {
        segments.emplace_back();
      }
      segments.back().push_back(stream[k]);
    }
    for (const auto& segment : segments) {
      ++segment_serial;
      for (size_t len = 1; len <= options.max_length && len <= segment.size(); ++len) {
        for (size_t begin = 0; begin + len <= segment.size(); ++begin) {
          std::vector<uint64_t> ids;
          for (size_t i = begin; i < begin + len; ++i) {
            ids.push_back(parsed.queries[segment[i]].template_id);
          }
          bool periodic = false;
          for (size_t period = 1; period < len && !periodic; ++period) {
            if (len % period != 0) continue;
            periodic = true;
            for (size_t i = 0; i < len; ++i) periodic = periodic && ids[i] == ids[i % period];
          }
          if (periodic) continue;
          auto [it, inserted] = accs.try_emplace(ids);
          Acc& acc = it->second;
          if (inserted) acc.sample_query = segment[begin];
          if (acc.segment == segment_serial && begin < acc.end) continue;
          ++acc.frequency;
          acc.users.insert(user);
          acc.segment = segment_serial;
          acc.end = begin + len;
        }
      }
    }
  }
  std::vector<Pattern> patterns;
  for (auto& [ids, acc] : accs) {
    if (acc.frequency < options.min_support) continue;
    Pattern pattern;
    pattern.template_ids = ids;
    pattern.frequency = acc.frequency;
    pattern.users.assign(acc.users.begin(), acc.users.end());
    pattern.sample_query = acc.sample_query;
    patterns.push_back(std::move(pattern));
  }
  SortByFrequency(patterns);
  return patterns;
}

/// A Zipf-skewed many-template log: ~40 k queries over 2,000 users'
/// streams, with repeats (AA, ABAB) and zero, short and long gaps.
ParsedLog ZipfLog() {
  Rng rng(90210);
  std::vector<std::vector<uint64_t>> streams(2000);
  std::vector<std::vector<int64_t>> times(streams.size());
  for (size_t user = 0; user < streams.size(); ++user) {
    const size_t length = 1 + rng.Uniform(39);
    int64_t now = static_cast<int64_t>(rng.Uniform(1000000));
    auto& ids = streams[user];
    for (size_t k = 0; k < length; ++k) {
      if (k >= 2 && rng.Chance(0.15)) {
        ids.push_back(ids[k - 2]);
      } else if (k >= 1 && rng.Chance(0.1)) {
        ids.push_back(ids[k - 1]);
      } else {
        ids.push_back(rng.Zipf(40000, 1.1));
      }
      const double gap = rng.NextDouble();
      now += gap < 0.2 ? 0 : gap < 0.9 ? static_cast<int64_t>(rng.Uniform(300000))
                                       : 1200000 + static_cast<int64_t>(rng.Uniform(3600000));
      times[user].push_back(now);
    }
  }
  return FromStreams(streams, times);
}

/// The golden study log (pipeline_golden_test's generator settings).
ParsedLog StudyLog(TemplateStore& store) {
  log::GeneratorConfig config;
  config.seed = 20180416;
  config.target_statements = 6000;
  config.human_users = 60;
  config.sws_families = 8;
  config.cth_families = 8;
  return ParseLog(log::GenerateLog(config), store);
}

void ExpectMatchesReference(const ParsedLog& parsed, const char* log_name) {
  util::ThreadPool workers(3);
  for (size_t max_length : {1, 2, 4, 6}) {
    for (int64_t max_gap_ms : {int64_t{0}, MinerOptions().max_gap_ms}) {
      MinerOptions options;
      options.max_length = max_length;
      options.max_gap_ms = max_gap_ms;
      options.min_support = 1;
      const std::vector<Pattern> all = NaiveMine(parsed, options);
      for (uint64_t min_support : {1, 2, 3}) {
        options.min_support = min_support;
        // `all` is sorted by descending frequency: the expected report is a prefix.
        size_t expected = 0;
        while (expected < all.size() && all[expected].frequency >= min_support) ++expected;
        for (util::ThreadPool* pool : {static_cast<util::ThreadPool*>(nullptr), &workers}) {
          SCOPED_TRACE(StrFormat("%s max_length=%zu max_gap_ms=%lld min_support=%llu pool=%s",
                                 log_name, max_length, static_cast<long long>(max_gap_ms),
                                 static_cast<unsigned long long>(min_support),
                                 pool == nullptr ? "none" : "3"));
          std::vector<Pattern> got = MinePatterns(parsed, options, pool);
          SortByFrequency(got);
          ASSERT_EQ(got.size(), expected);
          for (size_t i = 0; i < got.size(); ++i) {
            const Pattern& want = all[i];
            if (got[i].template_ids == want.template_ids && got[i].frequency == want.frequency &&
                got[i].users == want.users && got[i].sample_query == want.sample_query) {
              continue;
            }
            FAIL() << "rank " << i << ": got frequency " << got[i].frequency << ", "
                   << got[i].user_popularity() << " users, sample " << got[i].sample_query
                   << "; want frequency " << want.frequency << ", " << want.user_popularity()
                   << " users, sample " << want.sample_query
                   << (got[i].template_ids == want.template_ids ? "" : " (ids differ)");
          }
        }
      }
    }
  }
}

TEST(PatternMinerTest, MatchesNaiveReferenceOnStudyLog) {
  TemplateStore store;
  ExpectMatchesReference(StudyLog(store), "study");
}

TEST(PatternMinerTest, MatchesNaiveReferenceOnZipfLog) {
  ExpectMatchesReference(ZipfLog(), "zipf");
}

TEST(PatternMinerTest, CoveredStatements) {
  Pattern pattern;
  pattern.template_ids = {1, 2};
  pattern.frequency = 10;
  EXPECT_EQ(pattern.covered_statements(), 20u);
}

}  // namespace
}  // namespace sqlog::core
