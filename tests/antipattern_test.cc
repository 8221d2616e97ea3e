#include "core/antipattern.h"

#include <gtest/gtest.h>

#include "util/string_util.h"

namespace sqlog::core {
namespace {

struct Entry {
  const char* user;
  int64_t time_ms;
  std::string sql;
};

class AntipatternTest : public ::testing::Test {
 protected:
  AntipatternReport Detect(const std::vector<Entry>& entries,
                           DetectorOptions options = MakeOptions()) {
    store_ = TemplateStore();
    log::QueryLog log;
    for (const auto& entry : entries) {
      log::LogRecord record;
      record.user = entry.user;
      record.timestamp_ms = entry.time_ms;
      record.statement = entry.sql;
      log.Append(record);
    }
    log.Renumber();
    parsed_ = ParseLog(log, store_);
    schema_ = catalog::MakeSkyServerSchema();
    return DetectWith(&schema_, options);
  }

  /// Resolves `options`' detector set and detects with it over parsed_,
  /// as the pipeline does.
  AntipatternReport DetectWith(const catalog::Schema* schema, const DetectorOptions& options) {
    auto detectors = DetectorSet::Resolve(options);
    EXPECT_TRUE(detectors.ok()) << detectors.status().ToString();
    return DetectAntipatterns(parsed_, store_, schema, options, *detectors);
  }

  static DetectorOptions MakeOptions() {
    DetectorOptions options;
    options.cth_min_support = 1;
    return options;
  }

  TemplateStore store_;
  ParsedLog parsed_;
  catalog::Schema schema_;
};

TEST_F(AntipatternTest, DetectsDwStifleOfExample9) {
  auto report = Detect({
      {"u", 0, "SELECT name FROM Employee WHERE empId = 8"},
      {"u", 1000, "SELECT name FROM Employee WHERE empId = 1"},
  });
  ASSERT_EQ(report.instances.size(), 1u);
  EXPECT_EQ(report.detectors->info(report.instances[0].detector).id, "dw-stifle");
  EXPECT_EQ(report.instances[0].query_indices.size(), 2u);
  EXPECT_EQ(report.DistinctOf("dw-stifle"), 1u);
}

TEST_F(AntipatternTest, DwRunExtendsGreedily) {
  std::vector<Entry> entries;
  for (int i = 0; i < 6; ++i) {
    entries.push_back({"u", i * 1000,
                       StrFormat("SELECT name FROM Employee WHERE empId = %d", i)});
  }
  auto report = Detect(entries);
  ASSERT_EQ(report.InstancesOf("dw-stifle"), 1u);
  EXPECT_EQ(report.instances[0].query_indices.size(), 6u);
}

TEST_F(AntipatternTest, DetectsDsStifleOfExample11) {
  auto report = Detect({
      {"u", 0, "SELECT name FROM Employee WHERE empId = 8"},
      {"u", 1000, "SELECT address, phone FROM Employee WHERE empId = 8"},
  });
  ASSERT_EQ(report.InstancesOf("ds-stifle"), 1u);
}

TEST_F(AntipatternTest, DetectsDfStifleOfExample13) {
  auto report = Detect({
      {"u", 0, "SELECT name FROM Employee WHERE empId = 8"},
      {"u", 1000, "SELECT address FROM EmployeeInfo WHERE empId = 8"},
  });
  ASSERT_EQ(report.InstancesOf("df-stifle"), 1u);
}

TEST_F(AntipatternTest, NonKeyFilterColumnIsNotStifle) {
  // department is not a key attribute (Def. 11 axiom 3).
  auto report = Detect({
      {"u", 0, "SELECT empId FROM Employees WHERE department = 'sales'"},
      {"u", 1000, "SELECT empId FROM Employees WHERE department = 'hr'"},
  });
  EXPECT_EQ(report.InstancesOf("dw-stifle"), 0u);
}

TEST_F(AntipatternTest, DisablingKeyCheckAdmitsNonKeyColumns) {
  DetectorOptions options = MakeOptions();
  options.require_key_attribute = false;
  auto report = Detect(
      {
          {"u", 0, "SELECT empId FROM Employees WHERE department = 'sales'"},
          {"u", 1000, "SELECT empId FROM Employees WHERE department = 'hr'"},
      },
      options);
  EXPECT_EQ(report.InstancesOf("dw-stifle"), 1u);
}

TEST_F(AntipatternTest, TwoPredicatesAreNotStifle) {
  auto report = Detect({
      {"u", 0, "SELECT name FROM Employee WHERE empId = 8 AND name = 'x'"},
      {"u", 1000, "SELECT name FROM Employee WHERE empId = 1 AND name = 'y'"},
  });
  EXPECT_EQ(report.InstancesOf("dw-stifle"), 0u);
}

TEST_F(AntipatternTest, RangePredicateIsNotStifle) {
  auto report = Detect({
      {"u", 0, "SELECT name FROM Employee WHERE empId > 8"},
      {"u", 1000, "SELECT name FROM Employee WHERE empId > 1"},
  });
  EXPECT_EQ(report.InstancesOf("dw-stifle"), 0u);
}

TEST_F(AntipatternTest, DifferentUsersDoNotFormOneInstance) {
  auto report = Detect({
      {"a", 0, "SELECT name FROM Employee WHERE empId = 8"},
      {"b", 1000, "SELECT name FROM Employee WHERE empId = 1"},
  });
  EXPECT_EQ(report.InstancesOf("dw-stifle"), 0u);
}

TEST_F(AntipatternTest, GapBreaksInstance) {
  DetectorOptions options = MakeOptions();
  options.max_gap_ms = 5000;
  auto report = Detect(
      {
          {"u", 0, "SELECT name FROM Employee WHERE empId = 8"},
          {"u", 60000, "SELECT name FROM Employee WHERE empId = 1"},
      },
      options);
  EXPECT_EQ(report.InstancesOf("dw-stifle"), 0u);
}

TEST_F(AntipatternTest, Table1FormsCthCandidate) {
  auto report = Detect({
      {"u", 0, "SELECT E.empId FROM Employees E WHERE E.department = 'sales'"},
      {"u", 3000, "SELECT E.name, E.surname FROM Employees E WHERE E.id = 12"},
      {"u", 5500, "SELECT E.birthday, E.phone FROM Employees E WHERE E.id = 12"},
      {"u", 8000, "SELECT count(orders) FROM Orders O WHERE O.empId = 12"},
  });
  ASSERT_EQ(report.InstancesOf("cth"), 1u);
  // The chain covers all four queries.
  const AntipatternInstance* cth = nullptr;
  for (const auto& instance : report.instances) {
    if (report.detectors->info(instance.detector).id == "cth") cth = &instance;
  }
  ASSERT_NE(cth, nullptr);
  EXPECT_EQ(cth->query_indices.size(), 4u);
  // Queries 2 and 3 also form a DS-Stifle (Table 2 double-labelling).
  EXPECT_EQ(report.InstancesOf("ds-stifle"), 1u);
}

TEST_F(AntipatternTest, CthNeedsLinkedAttribute) {
  // The follow-up filters on an attribute the head never exposed.
  auto report = Detect({
      {"u", 0, "SELECT E.name FROM Employees E WHERE E.department = 'sales'"},
      {"u", 3000, "SELECT count(orders) FROM Orders O WHERE O.empId = 12"},
  });
  EXPECT_EQ(report.InstancesOf("cth"), 0u);
}

TEST_F(AntipatternTest, StarHeadLinksAnyFollowup) {
  auto report = Detect({
      {"u", 0, "SELECT * FROM dbo.fGetNearestObjEq(145.38, 0.12, 0.1)"},
      {"u", 100, "SELECT plate, fiberID, mjd FROM SpecObjAll WHERE SpecObjID = 75094094447116288"},
  });
  EXPECT_EQ(report.InstancesOf("cth"), 1u);
}

TEST_F(AntipatternTest, CthRequiresDifferentTemplates) {
  // SQ1 = SQ2 (Def. 15 violated): this is a DW-Stifle, not a CTH.
  auto report = Detect({
      {"u", 0, "SELECT name FROM Employee WHERE empId = 8"},
      {"u", 1000, "SELECT name FROM Employee WHERE empId = 1"},
  });
  EXPECT_EQ(report.InstancesOf("cth"), 0u);
}

TEST_F(AntipatternTest, CthSupportThresholdDropsOneOffs) {
  DetectorOptions options = MakeOptions();
  options.cth_min_support = 2;
  auto report = Detect(
      {
          {"u", 0, "SELECT * FROM dbo.fGetNearestObjEq(1.0, 2.0, 0.1)"},
          {"u", 100, "SELECT plate FROM SpecObjAll WHERE SpecObjID = 123"},
      },
      options);
  EXPECT_EQ(report.InstancesOf("cth"), 0u);
}

TEST_F(AntipatternTest, DetectsSnc) {
  auto report = Detect({
      {"u", 0, "SELECT * FROM Bugs WHERE assigned_to = NULL"},
      {"u", 100000000, "SELECT * FROM Bugs WHERE assigned_to <> NULL"},
  });
  EXPECT_EQ(report.InstancesOf("snc"), 2u);
  // Same template for `=`-form occurrences; `<>` is a different one.
  EXPECT_EQ(report.DistinctOf("snc"), 2u);
}

TEST_F(AntipatternTest, ProperIsNullIsNotSnc) {
  auto report = Detect({
      {"u", 0, "SELECT * FROM Bugs WHERE assigned_to IS NULL"},
  });
  EXPECT_EQ(report.InstancesOf("snc"), 0u);
}

TEST_F(AntipatternTest, SolvableInstancesClaimQueriesFirst) {
  auto report = Detect({
      {"u", 0, "SELECT E.empId FROM Employees E WHERE E.department = 'sales'"},
      {"u", 3000, "SELECT E.name, E.surname FROM Employees E WHERE E.id = 12"},
      {"u", 5500, "SELECT E.birthday, E.phone FROM Employees E WHERE E.id = 12"},
      {"u", 8000, "SELECT count(orders) FROM Orders O WHERE O.empId = 12"},
  });
  // Queries 1 and 2 (0-based) belong to both DS and CTH; the map must
  // point at the solvable DS instance.
  uint32_t ds_instance = 0;
  for (size_t k = 0; k < report.instances.size(); ++k) {
    if (report.detectors->info(report.instances[k].detector).id == "ds-stifle") {
      ds_instance = static_cast<uint32_t>(k + 1);
    }
  }
  ASSERT_NE(ds_instance, 0u);
  EXPECT_EQ(report.instance_of_query[1], ds_instance);
  EXPECT_EQ(report.instance_of_query[2], ds_instance);
  // The head and tail belong to the CTH candidate.
  EXPECT_NE(report.instance_of_query[0], 0u);
  EXPECT_NE(report.instance_of_query[0], ds_instance);
}

TEST_F(AntipatternTest, DistinctAggregationMergesInstances) {
  auto report = Detect({
      {"u", 0, "SELECT name FROM Employee WHERE empId = 8"},
      {"u", 1000, "SELECT name FROM Employee WHERE empId = 1"},
      {"u", 100000000, "SELECT name FROM Employee WHERE empId = 3"},
      {"u", 100001000, "SELECT name FROM Employee WHERE empId = 4"},
  });
  EXPECT_EQ(report.InstancesOf("dw-stifle"), 2u);
  EXPECT_EQ(report.DistinctOf("dw-stifle"), 1u);
  EXPECT_EQ(report.QueriesOf("dw-stifle"), 4u);
}

TEST_F(AntipatternTest, TypeNamesAndSolvability) {
  auto info = [](const char* id) { return DetectorRegistry::Global().Find(id)->info(); };
  EXPECT_EQ(info("dw-stifle").display_name, "DW-Stifle");
  EXPECT_EQ(info("cth").display_name, "candidate CTH");
  EXPECT_TRUE(info("dw-stifle").solvable);
  EXPECT_TRUE(info("ds-stifle").solvable);
  EXPECT_TRUE(info("df-stifle").solvable);
  EXPECT_TRUE(info("snc").solvable);
  EXPECT_FALSE(info("cth").solvable);
}

TEST_F(AntipatternTest, NullSchemaSkipsKeyAxiom) {
  store_ = TemplateStore();
  log::QueryLog log;
  for (int i = 0; i < 2; ++i) {
    log::LogRecord record;
    record.user = "u";
    record.timestamp_ms = i * 1000;
    record.statement = StrFormat("SELECT a FROM unknown_table WHERE somecol = %d", i);
    log.Append(record);
  }
  log.Renumber();
  parsed_ = ParseLog(log, store_);
  auto report = DetectWith(nullptr, MakeOptions());
  EXPECT_EQ(report.InstancesOf("dw-stifle"), 1u);
}

/// A min-support-filtered sequence detector that pairs each query with
/// the next one in its segment.
class PairDetector : public Detector {
 public:
  PairDetector() {
    info_.id = "test-pair";
    info_.display_name = "test pair";
    info_.scope = DetectorScope::kSequence;
    info_.min_support_filtered = true;
  }
  const DetectorInfo& info() const override { return info_; }
  size_t ScanAt(const SegmentView& segment, size_t pos, const DetectorContext& ctx,
                AntipatternInstance* instance) const override {
    (void)ctx;
    if (pos + 1 >= segment.size()) return 0;
    instance->query_indices = {segment.query_index(pos), segment.query_index(pos + 1)};
    return 2;
  }

 private:
  DetectorInfo info_;
};

TEST_F(AntipatternTest, DistinctGroupsCompareSignaturesExactly) {
  static const bool registered =
      DetectorRegistry::Global().Register(std::make_shared<PairDetector>()).ok();
  ASSERT_TRUE(registered);
  // Two users issue 9217 -> 3226 and one issues 9218 -> 7321. At set
  // index 0 the two signatures share one 64-bit hash, which must not
  // merge their groups or their support counts.
  const std::vector<std::vector<uint64_t>> streams = {{9217, 3226}, {9217, 3226}, {9218, 7321}};
  parsed_ = ParsedLog();
  parsed_.user_streams.resize(streams.size());
  for (uint32_t user = 0; user < streams.size(); ++user) {
    for (size_t k = 0; k < streams[user].size(); ++k) {
      ParsedQuery query;
      query.record_index = parsed_.queries.size();
      query.timestamp_ms = static_cast<int64_t>(k) * 1000;
      query.user_id = user;
      query.template_id = streams[user][k];
      parsed_.user_streams[user].push_back(parsed_.queries.size());
      parsed_.queries.push_back(std::move(query));
    }
  }
  DetectorOptions options;
  options.detector_ids = {"test-pair"};
  options.cth_min_support = 3;
  auto report = DetectWith(nullptr, options);
  EXPECT_TRUE(report.instances.empty());
  EXPECT_TRUE(report.distinct.empty());

  options.cth_min_support = 1;
  report = DetectWith(nullptr, options);
  ASSERT_EQ(report.distinct.size(), 2u);
  EXPECT_EQ(report.distinct[0].template_ids, (std::vector<uint64_t>{9217, 3226}));
  EXPECT_EQ(report.distinct[0].instance_count, 2u);
  EXPECT_EQ(report.distinct[0].user_popularity(), 2u);
  EXPECT_EQ(report.distinct[1].template_ids, (std::vector<uint64_t>{9218, 7321}));
  EXPECT_EQ(report.distinct[1].instance_count, 1u);
}

}  // namespace
}  // namespace sqlog::core
