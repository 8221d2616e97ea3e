#include "core/solver.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "core/antipattern.h"
#include "util/string_util.h"

namespace sqlog::core {
namespace {

std::vector<ParsedQuery> ParseAll(const std::vector<std::string>& sqls) {
  std::vector<ParsedQuery> parsed(sqls.size());
  for (size_t i = 0; i < sqls.size(); ++i) {
    auto facts = sql::ParseAndAnalyze(sqls[i]);
    EXPECT_TRUE(facts.ok()) << sqls[i];
    parsed[i].facts = std::move(facts.value());
  }
  return parsed;
}

std::vector<const ParsedQuery*> Pointers(const std::vector<ParsedQuery>& parsed) {
  std::vector<const ParsedQuery*> out;
  for (const auto& query : parsed) out.push_back(&query);
  return out;
}

TEST(SolverTest, DwRewriteMatchesExample10) {
  auto parsed = ParseAll({
      "SELECT name FROM Employee WHERE empId = 8",
      "SELECT name FROM Employee WHERE empId = 1",
  });
  auto rewritten = RewriteDwStifle(Pointers(parsed));
  ASSERT_TRUE(rewritten.ok()) << rewritten.status().ToString();
  EXPECT_EQ(rewritten.value(), "select empid, name from employee where empid in (8, 1)");
}

TEST(SolverTest, DwRewriteDoesNotDuplicateExposedColumn) {
  auto parsed = ParseAll({
      "SELECT empId, name FROM Employee WHERE empId = 8",
      "SELECT empId, name FROM Employee WHERE empId = 1",
  });
  auto rewritten = RewriteDwStifle(Pointers(parsed));
  ASSERT_TRUE(rewritten.ok());
  EXPECT_EQ(rewritten.value(), "select empid, name from employee where empid in (8, 1)");
}

TEST(SolverTest, DwRewriteDeduplicatesValues) {
  auto parsed = ParseAll({
      "SELECT name FROM Employee WHERE empId = 8",
      "SELECT name FROM Employee WHERE empId = 1",
      "SELECT name FROM Employee WHERE empId = 8",
  });
  auto rewritten = RewriteDwStifle(Pointers(parsed));
  ASSERT_TRUE(rewritten.ok());
  EXPECT_EQ(rewritten.value(), "select empid, name from employee where empid in (8, 1)");
}

TEST(SolverTest, DwRewriteWithStringConstants) {
  auto parsed = ParseAll({
      "SELECT rank FROM DBObjects WHERE name = 'Galaxy'",
      "SELECT rank FROM DBObjects WHERE name = 'Star'",
  });
  auto rewritten = RewriteDwStifle(Pointers(parsed));
  ASSERT_TRUE(rewritten.ok());
  EXPECT_EQ(rewritten.value(),
            "select name, rank from dbobjects where name in ('Galaxy', 'Star')");
}

TEST(SolverTest, DwRewritePreservesQualifier) {
  auto parsed = ParseAll({
      "SELECT E.name FROM Employee E WHERE E.empId = 8",
      "SELECT E.name FROM Employee E WHERE E.empId = 1",
  });
  auto rewritten = RewriteDwStifle(Pointers(parsed));
  ASSERT_TRUE(rewritten.ok());
  EXPECT_EQ(rewritten.value(),
            "select e.empid, e.name from employee as e where e.empid in (8, 1)");
}

TEST(SolverTest, DwRewriteNeedsTwoQueries) {
  auto parsed = ParseAll({"SELECT name FROM Employee WHERE empId = 8"});
  EXPECT_FALSE(RewriteDwStifle(Pointers(parsed)).ok());
}

TEST(SolverTest, DsRewriteMatchesExample12) {
  auto parsed = ParseAll({
      "SELECT name FROM Employee WHERE empId = 8",
      "SELECT address, phone FROM Employee WHERE empId = 8",
  });
  auto rewritten = RewriteDsStifle(Pointers(parsed));
  ASSERT_TRUE(rewritten.ok());
  EXPECT_EQ(rewritten.value(),
            "select name, address, phone from employee where empid = 8");
}

TEST(SolverTest, DsRewriteDeduplicatesSelectItems) {
  auto parsed = ParseAll({
      "SELECT name, phone FROM Employee WHERE empId = 8",
      "SELECT phone, address FROM Employee WHERE empId = 8",
  });
  auto rewritten = RewriteDsStifle(Pointers(parsed));
  ASSERT_TRUE(rewritten.ok());
  EXPECT_EQ(rewritten.value(),
            "select name, phone, address from employee where empid = 8");
}

TEST(SolverTest, DfRewriteMatchesExample14) {
  auto parsed = ParseAll({
      "SELECT name FROM Employee WHERE empId = 8",
      "SELECT address FROM EmployeeInfo WHERE empId = 8",
  });
  auto rewritten = RewriteDfStifle(Pointers(parsed));
  ASSERT_TRUE(rewritten.ok()) << rewritten.status().ToString();
  EXPECT_EQ(rewritten.value(),
            "select employee.name, employeeinfo.address from employee as employee "
            "inner join employeeinfo as employeeinfo "
            "on employee.empid = employeeinfo.empid where employee.empid = 8");
}

TEST(SolverTest, DfRewriteKeepsExistingAliases) {
  auto parsed = ParseAll({
      "SELECT E.name FROM Employee E WHERE E.empId = 8",
      "SELECT EI.address FROM EmployeeInfo EI WHERE EI.empId = 8",
  });
  auto rewritten = RewriteDfStifle(Pointers(parsed));
  ASSERT_TRUE(rewritten.ok());
  EXPECT_EQ(rewritten.value(),
            "select e.name, ei.address from employee as e inner join employeeinfo as ei "
            "on e.empid = ei.empid where e.empid = 8");
}

TEST(SolverTest, DfRewriteRejectsJoinMembers) {
  auto parsed = ParseAll({
      "SELECT a.name FROM Employee a JOIN EmployeeInfo b ON a.empId = b.empId "
      "WHERE a.empId = 8",
      "SELECT address FROM EmployeeInfo WHERE empId = 8",
  });
  auto rewritten = RewriteDfStifle(Pointers(parsed));
  EXPECT_FALSE(rewritten.ok());
  EXPECT_EQ(rewritten.status().code(), StatusCode::kUnsupported);
}

TEST(SolverTest, SncRewriteEquality) {
  auto parsed = ParseAll({"SELECT * FROM Bugs WHERE assigned_to = NULL"});
  auto rewritten = RewriteSnc(parsed[0]);
  ASSERT_TRUE(rewritten.ok());
  EXPECT_EQ(rewritten.value(), "select * from bugs where assigned_to is null");
}

TEST(SolverTest, SncRewriteInequality) {
  auto parsed = ParseAll({"SELECT * FROM Bugs WHERE assigned_to <> NULL"});
  auto rewritten = RewriteSnc(parsed[0]);
  ASSERT_TRUE(rewritten.ok());
  EXPECT_EQ(rewritten.value(), "select * from bugs where assigned_to is not null");
}

TEST(SolverTest, SncRewriteInsideConjunction) {
  auto parsed = ParseAll({
      "SELECT * FROM Bugs WHERE status = 'open' AND assigned_to = NULL"});
  auto rewritten = RewriteSnc(parsed[0]);
  ASSERT_TRUE(rewritten.ok());
  EXPECT_EQ(rewritten.value(),
            "select * from bugs where status = 'open' and assigned_to is null");
}

TEST(SolverTest, SncRewriteNullOnLeft) {
  auto parsed = ParseAll({"SELECT * FROM Bugs WHERE NULL = assigned_to"});
  auto rewritten = RewriteSnc(parsed[0]);
  ASSERT_TRUE(rewritten.ok());
  EXPECT_EQ(rewritten.value(), "select * from bugs where assigned_to is null");
}

// --- end-to-end solving over a small log -----------------------------------

class SolveLogTest : public ::testing::Test {
 protected:
  SolveOutcome Solve(const std::vector<std::pair<int64_t, std::string>>& statements,
                     const std::vector<std::string>& detector_ids = {}) {
    Detect(statements, detector_ids);
    SolveOutcome outcome = SolveAntipatterns(log_, parsed_, report_);
    EXPECT_TRUE(outcome.status.ok()) << outcome.status.ToString();
    return outcome;
  }

  /// Parses and detects with the detectors `detector_ids` (empty: the
  /// paper's defaults), leaving log_/parsed_/report_ ready to solve.
  void Detect(const std::vector<std::pair<int64_t, std::string>>& statements,
              const std::vector<std::string>& detector_ids = {}) {
    log_ = log::QueryLog();
    for (const auto& [t, sql] : statements) {
      log::LogRecord record;
      record.user = "u";
      record.timestamp_ms = t;
      record.statement = sql;
      log_.Append(record);
    }
    log_.Renumber();
    store_ = TemplateStore();
    parsed_ = ParseLog(log_, store_);
    schema_ = catalog::MakeSkyServerSchema();
    DetectorOptions options;
    options.cth_min_support = 1;
    options.detector_ids = detector_ids;
    auto detectors = DetectorSet::Resolve(options);
    ASSERT_TRUE(detectors.ok()) << detectors.status().ToString();
    report_ = DetectAntipatterns(parsed_, store_, &schema_, options, *detectors);
  }


  log::QueryLog log_;
  TemplateStore store_;
  ParsedLog parsed_;
  catalog::Schema schema_;
  AntipatternReport report_;
};

TEST_F(SolveLogTest, MergesDwRunAtFirstPosition) {
  SolveOutcome outcome = Solve({
      {0, "SELECT count(*) FROM photoPrimary WHERE htmid >= 1 and htmid <= 2"},
      {1000, "SELECT name FROM Employee WHERE empId = 8"},
      {2000, "SELECT name FROM Employee WHERE empId = 1"},
      {3000, "SELECT count(*) FROM photoPrimary WHERE htmid >= 3 and htmid <= 4"},
  });
  ASSERT_EQ(outcome.clean_log.size(), 3u);
  EXPECT_EQ(outcome.clean_log.records()[1].statement,
            "select empid, name from employee where empid in (8, 1)");
  // Timestamp and user of the first member are kept.
  EXPECT_EQ(outcome.clean_log.records()[1].timestamp_ms, 1000);
  EXPECT_EQ(outcome.stats.instances_solved, 1u);
  EXPECT_EQ(outcome.stats.queries_merged, 1u);
  // Removal log drops both members.
  EXPECT_EQ(outcome.removal_log.size(), 2u);
}

TEST_F(SolveLogTest, SncRewrittenInPlace) {
  SolveOutcome outcome = Solve({
      {0, "SELECT * FROM Bugs WHERE assigned_to = NULL"},
  });
  ASSERT_EQ(outcome.clean_log.size(), 1u);
  EXPECT_EQ(outcome.clean_log.records()[0].statement,
            "select * from bugs where assigned_to is null");
  EXPECT_EQ(outcome.stats.queries_rewritten_in_place, 1u);
}

TEST_F(SolveLogTest, CthKeptInCleanDroppedFromRemoval) {
  SolveOutcome outcome = Solve({
      {0, "SELECT * FROM dbo.fGetNearestObjEq(1.0, 2.0, 0.1)"},
      {100, "SELECT plate FROM SpecObjAll WHERE SpecObjID = 123"},
  });
  EXPECT_EQ(outcome.clean_log.size(), 2u);   // unsolvable, kept verbatim
  EXPECT_EQ(outcome.removal_log.size(), 0u);  // antipattern members dropped
  EXPECT_EQ(outcome.stats.instances_unsolvable, 1u);
}

TEST_F(SolveLogTest, NonSelectAndBrokenStatementsAreDropped) {
  SolveOutcome outcome = Solve({
      {0, "INSERT INTO t VALUES (1)"},
      {1000, "SELECT broken FROM"},
      {2000, "SELECT name FROM Employee WHERE empId = 8"},
  });
  ASSERT_EQ(outcome.clean_log.size(), 1u);
  EXPECT_EQ(outcome.clean_log.records()[0].timestamp_ms, 2000);
}

TEST_F(SolveLogTest, PassThroughLogIsUntouched) {
  SolveOutcome outcome = Solve({
      {0, "SELECT count(*) FROM photoPrimary WHERE htmid >= 1 and htmid <= 2"},
      {100000000, "SELECT count(*) FROM photoPrimary WHERE htmid >= 9 and htmid <= 10"},
  });
  EXPECT_EQ(outcome.clean_log.size(), 2u);
  EXPECT_EQ(outcome.removal_log.size(), 2u);
  EXPECT_EQ(outcome.stats.instances_solved, 0u);
  EXPECT_EQ(outcome.clean_log.records()[0].statement,
            "SELECT count(*) FROM photoPrimary WHERE htmid >= 1 and htmid <= 2");
}

TEST_F(SolveLogTest, Table3ReproducesPaperExample16) {
  // Table 2 → Table 3: the DW run inside a CTH collapses to an IN query;
  // the head stays.
  SolveOutcome outcome = Solve({
      {0, "SELECT E.Id FROM Employees E WHERE E.department = 'sales'"},
      {1000, "SELECT E.name, E.surname FROM Employees E WHERE E.id = 12"},
      {2000, "SELECT E.name, E.surname FROM Employees E WHERE E.id = 15"},
      {3000, "SELECT E.name, E.surname FROM Employees E WHERE E.id = 16"},
  });
  ASSERT_EQ(outcome.clean_log.size(), 2u);
  EXPECT_EQ(outcome.clean_log.records()[0].statement,
            "SELECT E.Id FROM Employees E WHERE E.department = 'sales'");
  EXPECT_EQ(outcome.clean_log.records()[1].statement,
            "select e.id, e.name, e.surname from employees as e where e.id in (12, 15, 16)");
}

TEST_F(SolveLogTest, MemberThatNoLongerParsesFailsNamingTheRecord) {
  Detect({
      {0, "SELECT count(*) FROM photoPrimary WHERE htmid >= 1 and htmid <= 2"},
      {1000, "SELECT name FROM Employee WHERE empId = 8"},
      {2000, "SELECT name FROM Employee WHERE empId = 1"},
  });
  // The parser keeps no AST, so members are re-parsed from the records
  // handed to the solver; break the last member's text.
  ASSERT_EQ(report_.instances.size(), 1u);
  const std::vector<size_t> members = report_.instances[0].query_indices;
  ASSERT_EQ(members.size(), 2u);
  log::QueryLog changed = log_;
  changed.records()[parsed_.queries[members.back()].record_index].statement =
      "SELECT name FROM";

  SolveOutcome outcome = SolveAntipatterns(changed, parsed_, report_);
  ASSERT_FALSE(outcome.status.ok());
  EXPECT_EQ(outcome.status.code(), StatusCode::kInternal);
  EXPECT_NE(outcome.status.message().find("record 2 (seq 2)"), std::string::npos)
      << outcome.status.ToString();
  EXPECT_EQ(outcome.stats.rewrite_failures, 0u);
  // The first member was re-parsed before the last one failed; the
  // failing call clears it again.
  for (size_t member : members) {
    EXPECT_EQ(parsed_.queries[member].facts.ast, nullptr) << "query " << member;
  }
}

/// RecordWriter that only counts the records it is handed.
class CountingWriter final : public log::RecordWriter {
 public:
  Status Open(const std::string& path) override {
    (void)path;
    return Status::OK();
  }
  Status Append(const log::LogRecord& record) override {
    (void)record;
    ++count_;
    return Status::OK();
  }
  Status Close() override { return Status::OK(); }
  uint64_t records_written() const override { return count_; }

 private:
  uint64_t count_ = 0;
};

TEST_F(SolveLogTest, FirstMemberThatNoLongerParsesFailsWhenTheLastIsFed) {
  Detect({
      {0, "SELECT count(*) FROM photoPrimary WHERE htmid >= 1 and htmid <= 2"},
      {1000, "SELECT name FROM Employee WHERE empId = 8"},
      {2000, "SELECT name FROM Employee WHERE empId = 1"},
      {3000, "SELECT name FROM Employee WHERE empId = 3"},
  });
  ASSERT_EQ(report_.instances.size(), 1u);
  const std::vector<size_t> members = report_.instances[0].query_indices;
  ASSERT_EQ(members.size(), 3u);
  log::QueryLog changed = log_;
  changed.records()[parsed_.queries[members.front()].record_index].statement =
      "SELECT name FROM";

  // Members are re-parsed when their instance resolves, at its last
  // member: every earlier record feeds cleanly.
  CountingWriter clean;
  CountingWriter removal;
  StreamingSolver solver(parsed_, report_, clean, removal);
  for (size_t r = 0; r + 1 < changed.size(); ++r) {
    ASSERT_TRUE(solver.Feed(changed.records()[r]).ok()) << "record " << r;
  }
  Status status = solver.Feed(changed.records().back());
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("record 1 (seq 1)"), std::string::npos)
      << status.ToString();
  EXPECT_EQ(solver.stats().rewrite_failures, 0u);
  EXPECT_EQ(solver.stats().instances_solved, 0u);
  for (const ParsedQuery& query : parsed_.queries) {
    EXPECT_EQ(query.facts.ast, nullptr) << "record " << query.record_index;
  }
}

TEST_F(SolveLogTest, ParsedLogKeepsExactlyTheAstsItCameWith) {
  Detect({
      {0, "SELECT name FROM Employee WHERE empId = 8"},
      {1000, "SELECT name FROM Employee WHERE empId = 1"},
      {2000, "SELECT name FROM Employee WHERE empId = 3"},
      {3000, "SELECT * FROM Bugs WHERE assigned_to = NULL"},
      {100000000, "SELECT name FROM Employee WHERE empId = 4"},
      {100001000, "SELECT name FROM Employee WHERE empId = 5"},
  });
  // Mix supplied and missing ASTs across members and non-members: the
  // parser keeps none, so supply every other one.
  for (size_t q = 1; q < parsed_.queries.size(); q += 2) {
    auto facts =
        sql::ParseAndAnalyze(log_.records()[parsed_.queries[q].record_index].statement);
    ASSERT_TRUE(facts.ok()) << facts.status().ToString();
    parsed_.queries[q].facts.ast = facts->ast;
  }
  std::vector<const sql::SelectStatement*> before;
  for (const auto& query : parsed_.queries) before.push_back(query.facts.ast.get());

  SolveOutcome outcome = SolveAntipatterns(log_, parsed_, report_);
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_EQ(outcome.stats.instances_solved, 3u);
  EXPECT_EQ(outcome.stats.rewrite_failures, 0u);
  // Missing ASTs were re-parsed only while their rewrite ran; supplied
  // ones are the very same objects.
  for (size_t q = 0; q < parsed_.queries.size(); ++q) {
    EXPECT_EQ(parsed_.queries[q].facts.ast.get(), before[q]) << "query " << q;
  }
  ASSERT_EQ(outcome.clean_log.size(), 3u);
  EXPECT_EQ(outcome.clean_log.records()[0].statement,
            "select empid, name from employee where empid in (8, 1, 3)");
  EXPECT_EQ(outcome.clean_log.records()[1].statement,
            "select * from bugs where assigned_to is null");
  EXPECT_EQ(outcome.clean_log.records()[2].statement,
            "select empid, name from employee where empid in (4, 5)");
}

TEST_F(SolveLogTest, InstanceWhoseFirstQueryIsClaimedElsewhereIsNotSolved) {
  // SNC and null-fear both match the one query; SNC comes first in the
  // set and claims it, so null-fear's instance has no slot to emit its
  // rewrite at and is counted nowhere.
  std::vector<std::string> ids = DefaultDetectorIds();
  ids.push_back("null-fear");
  SolveOutcome outcome =
      Solve({{0, "SELECT name FROM Employee WHERE phone = NULL AND address <> 'x'"}}, ids);
  ASSERT_EQ(report_.instances.size(), 2u);
  EXPECT_EQ(outcome.stats.instances_solved, 1u);
  EXPECT_EQ(outcome.stats.queries_rewritten_in_place, 1u);
  EXPECT_EQ(outcome.stats.rewrite_failures, 0u);
  ASSERT_EQ(outcome.clean_log.size(), 1u);
  EXPECT_EQ(outcome.clean_log.records()[0].statement,
            "select name from employee where phone is null and address <> 'x'");
  EXPECT_EQ(outcome.removal_log.size(), 0u);
}

/// A solvable sequence detector that pairs segment positions `first`
/// and `second`, in a scan group of its own. Its rewrite fails unless
/// every member carries an AST.
class PairAtDetector : public Detector {
 public:
  PairAtDetector(std::string id, size_t first, size_t second)
      : first_(first), second_(second) {
    info_.id = id;
    info_.display_name = id;
    info_.scope = DetectorScope::kSequence;
    info_.scan_group = id;
    info_.solvable = true;
  }
  const DetectorInfo& info() const override { return info_; }
  size_t ScanAt(const SegmentView& segment, size_t pos, const DetectorContext& ctx,
                AntipatternInstance* instance) const override {
    (void)ctx;
    if (pos != first_ || second_ >= segment.size()) return 0;
    instance->query_indices = {segment.query_index(first_), segment.query_index(second_)};
    return 1;
  }
  Result<std::string> Rewrite(const AntipatternInstance& instance,
                              const std::vector<const ParsedQuery*>& members) const override {
    (void)instance;
    for (const ParsedQuery* member : members) {
      if (member->facts.ast == nullptr) return Status::Internal("member without an AST");
    }
    return StrFormat("select %zu merged", members.size());
  }

 private:
  DetectorInfo info_;
  size_t first_;
  size_t second_;
};

TEST_F(SolveLogTest, OverlappingPairKeepsTheQueryOnlyItClaims) {
  // Pairs (0,1) and (1,2) of one segment: the first claims queries 0 and
  // 1, the second only query 2. The second's first query is taken, so it
  // is not solved, and query 2 reaches both logs verbatim.
  static const bool registered =
      DetectorRegistry::Global()
          .Register(std::make_shared<PairAtDetector>("test-pair-0", 0, 1))
          .ok() &&
      DetectorRegistry::Global()
          .Register(std::make_shared<PairAtDetector>("test-pair-1", 1, 2))
          .ok();
  ASSERT_TRUE(registered);
  SolveOutcome outcome = Solve({{0, "SELECT a FROM t WHERE x = 1"},
                                {1000, "SELECT b FROM t WHERE x = 2"},
                                {2000, "SELECT c FROM t WHERE x = 3"}},
                               {"test-pair-0", "test-pair-1"});
  ASSERT_EQ(report_.instances.size(), 2u);
  EXPECT_EQ(outcome.stats.instances_solved, 1u);
  EXPECT_EQ(outcome.stats.queries_merged, 1u);
  ASSERT_EQ(outcome.clean_log.size(), 2u);
  EXPECT_EQ(outcome.clean_log.records()[0].statement, "select 2 merged");
  EXPECT_EQ(outcome.clean_log.records()[1].statement, "SELECT c FROM t WHERE x = 3");
  ASSERT_EQ(outcome.removal_log.size(), 1u);
  EXPECT_EQ(outcome.removal_log.records()[0].statement, "SELECT c FROM t WHERE x = 3");
}

TEST_F(SolveLogTest, InstancesSharingAMemberBothRewrite) {
  // Pairs (0,2) and (1,2) of one segment: the first claims queries 0 and
  // 2, the second only query 1, its own first. Both resolve when query 2
  // is fed, each re-parsing query 2 for its rewrite, and no query keeps
  // an AST afterwards.
  static const bool registered =
      DetectorRegistry::Global()
          .Register(std::make_shared<PairAtDetector>("test-pair-0-2", 0, 2))
          .ok() &&
      DetectorRegistry::Global()
          .Register(std::make_shared<PairAtDetector>("test-pair-1-2", 1, 2))
          .ok();
  ASSERT_TRUE(registered);
  SolveOutcome outcome = Solve({{0, "SELECT a FROM t WHERE x = 1"},
                                {1000, "SELECT b FROM t WHERE x = 2"},
                                {2000, "SELECT c FROM t WHERE x = 3"}},
                               {"test-pair-0-2", "test-pair-1-2"});
  ASSERT_EQ(report_.instances.size(), 2u);
  EXPECT_EQ(report_.instances[0].query_indices, (std::vector<size_t>{0, 2}));
  EXPECT_EQ(report_.instances[1].query_indices, (std::vector<size_t>{1, 2}));
  EXPECT_EQ(outcome.stats.instances_solved, 2u);
  EXPECT_EQ(outcome.stats.rewrite_failures, 0u);
  // Only query 2 leaves both logs, so one query merged away, not one per
  // instance listing it.
  EXPECT_EQ(outcome.stats.queries_merged, 1u);
  ASSERT_EQ(outcome.clean_log.size(), 2u);
  EXPECT_EQ(outcome.clean_log.records()[0].statement, "select 2 merged");
  EXPECT_EQ(outcome.clean_log.records()[1].statement, "select 2 merged");
  EXPECT_EQ(outcome.removal_log.size(), 0u);
  for (const ParsedQuery& query : parsed_.queries) {
    EXPECT_EQ(query.facts.ast, nullptr) << "record " << query.record_index;
  }
}

TEST_F(SolveLogTest, MemberListedBeforeItsFirstFailsOnceItsRecordIsWritten) {
  // Instances list their members in log order. Pair (1,0) lists query 0
  // after its first, query 1; SNC claims and rewrites query 0, which is
  // written before query 1 arrives, so the pair cannot re-parse it: the
  // run fails naming that record instead of reading past the queue.
  static const bool registered =
      DetectorRegistry::Global()
          .Register(std::make_shared<PairAtDetector>("test-pair-1-0", 1, 0))
          .ok();
  ASSERT_TRUE(registered);
  Detect({{0, "SELECT * FROM Bugs WHERE assigned_to = NULL"},
          {1000, "SELECT b FROM t WHERE x = 2"}},
         {"snc", "test-pair-1-0"});
  ASSERT_EQ(report_.instances.size(), 2u);
  SolveOutcome outcome = SolveAntipatterns(log_, parsed_, report_);
  ASSERT_FALSE(outcome.status.ok());
  EXPECT_EQ(outcome.status.code(), StatusCode::kInternal);
  EXPECT_NE(outcome.status.message().find("record 0, listed before"), std::string::npos)
      << outcome.status.ToString();
  EXPECT_EQ(outcome.stats.instances_solved, 1u);
  EXPECT_EQ(outcome.stats.rewrite_failures, 0u);
  for (const ParsedQuery& query : parsed_.queries) {
    EXPECT_EQ(query.facts.ast, nullptr) << "record " << query.record_index;
  }
}

}  // namespace
}  // namespace sqlog::core
