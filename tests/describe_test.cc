#include "analysis/describe.h"

#include <gtest/gtest.h>

namespace sqlog::analysis {
namespace {

std::string Describe(const std::string& sql) {
  auto facts = sqlog::sql::ParseAndAnalyze(sql);
  EXPECT_TRUE(facts.ok()) << sql;
  return DescribeTemplate(*facts->shared);
}

TEST(DescribeTest, ConeSearch) {
  EXPECT_EQ(Describe("SELECT p.objID FROM fGetNearbyObjEq(1,2,3) n, photoPrimary p "
                     "WHERE n.objID = p.objID"),
            "gets objects within a radius of an equatorial point (cone search)");
}

TEST(DescribeTest, NearestObject) {
  EXPECT_EQ(Describe("SELECT * FROM dbo.fGetNearestObjEq(145.3, 0.1, 0.1)"),
            "gets the nearest object to an equatorial point");
}

TEST(DescribeTest, RectSearch) {
  EXPECT_EQ(Describe("SELECT objID FROM fGetObjFromRect(1,2,3,4) n"),
            "gets objects inside a rectangular sky region");
}

TEST(DescribeTest, HtmCount) {
  EXPECT_EQ(Describe("SELECT count(*) FROM photoPrimary WHERE htmid >= 1 and htmid <= 2"),
            "counts objects within a range of spherical triangles (HTM search)");
}

TEST(DescribeTest, GenericCount) {
  EXPECT_EQ(Describe("SELECT count(*) FROM specObj WHERE specClass = 3"),
            "counts rows of specobj");
}

TEST(DescribeTest, PointLookupByObjId) {
  EXPECT_EQ(Describe("SELECT rowc_g, colc_g FROM photoPrimary WHERE objID = 5"),
            "fetches attributes of one object by objid (point lookup)");
}

TEST(DescribeTest, MetadataBrowse) {
  EXPECT_EQ(Describe("SELECT description FROM DBObjects WHERE name = 'Galaxy'"),
            "browses schema metadata (DBObjects)");
}

TEST(DescribeTest, GenericEqualityFetch) {
  EXPECT_EQ(Describe("SELECT name FROM Employee WHERE empId = 8"),
            "fetches rows of employee where empid equals a constant");
}

TEST(DescribeTest, WindowScan) {
  EXPECT_EQ(Describe("SELECT objid FROM photoPrimary WHERE ra >= 10 and ra < 10.05"),
            "scans photoprimary over a ra range (window/slice access)");
}

TEST(DescribeTest, MultiColumnRegion) {
  EXPECT_EQ(Describe("SELECT objid FROM photoPrimary WHERE ra > 1 and ra < 2 "
                     "and dec > 3 and dec < 4"),
            "scans photoprimary over a multi-column range (region slice)");
}

TEST(DescribeTest, Join) {
  EXPECT_EQ(Describe("SELECT p.objid FROM photoPrimary p JOIN specObj s "
                     "ON s.bestObjID = p.objID WHERE s.z between 1 and 2 and p.r < 3"),
            "joins photoprimary with specobj");
}

TEST(DescribeTest, NullSearch) {
  EXPECT_EQ(Describe("SELECT * FROM Bugs WHERE assigned_to IS NULL"),
            "searches bugs for missing (NULL) assigned_to values");
}

TEST(DescribeTest, Unfiltered) {
  EXPECT_EQ(Describe("SELECT name FROM DBObjects"),
            "reads dbobjects without a filter");
}

TEST(DescribeTest, FallbackMentionsPredicateCount) {
  EXPECT_EQ(Describe("SELECT a FROM t WHERE x = 1 OR y LIKE 'z%'"),
            "filters t by 2 predicates");
}

}  // namespace
}  // namespace sqlog::analysis
