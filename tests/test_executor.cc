// Executor tests: the full clause pipeline over a live Database (reads,
// writes, aggregation, shaping). Triggers are exercised elsewhere; here the
// catalog stays empty.

#include <gtest/gtest.h>

#include "src/trigger/database.h"

namespace pgt {
namespace {

class ExecutorTest : public ::testing::Test {
 protected:
  cypher::QueryResult Run(const std::string& q, const Params& params = {}) {
    auto r = db_.Execute(q, params);
    EXPECT_TRUE(r.ok()) << q << " -> " << r.status();
    return r.ok() ? std::move(r).value() : cypher::QueryResult{};
  }
  Status RunError(const std::string& q) { return db_.Execute(q).status(); }
  int64_t Count(const std::string& q) {
    cypher::QueryResult r = Run(q);
    EXPECT_EQ(r.rows.size(), 1u);
    return r.rows[0][0].int_value();
  }

  Database db_;
};

TEST_F(ExecutorTest, CreateAndMatchNodes) {
  Run("CREATE (:P {name: 'ann'}), (:P {name: 'bob'}), (:Q)");
  EXPECT_EQ(Count("MATCH (p:P) RETURN COUNT(*) AS n"), 2);
  cypher::QueryResult r =
      Run("MATCH (p:P) RETURN p.name AS name ORDER BY name");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].string_value(), "ann");
  EXPECT_EQ(r.rows[1][0].string_value(), "bob");
}

// EXISTS((pattern)) tests the pattern: it is false when no match exists.
TEST_F(ExecutorTest, ExistsParenthesizedPatternTestsThePattern) {
  Run("CREATE (:A)-[:R]->(:B)");
  EXPECT_EQ(Count("MATCH (n) WHERE EXISTS((n)-[:R]->(:A)) "
                  "RETURN COUNT(n) AS c"),
            0);
  EXPECT_EQ(Count("MATCH (n) WHERE EXISTS((n)-[:R]->(:B)) "
                  "RETURN COUNT(n) AS c"),
            1);
  cypher::QueryResult r = Run("RETURN EXISTS((:B)-[:R]->(:A)) AS e");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_FALSE(r.rows[0][0].bool_value());
}

TEST_F(ExecutorTest, CreateRelationshipChain) {
  Run("CREATE (a:A {k: 1})-[:R {w: 5}]->(b:B)<-[:S]-(c:C)");
  EXPECT_EQ(Count("MATCH (:A)-[:R]->(:B) RETURN COUNT(*) AS n"), 1);
  EXPECT_EQ(Count("MATCH (:C)-[:S]->(:B) RETURN COUNT(*) AS n"), 1);
  EXPECT_EQ(Count("MATCH ()-[r:R]->() RETURN r.w AS w"), 5);
}

TEST_F(ExecutorTest, CreateWithBoundEndpoints) {
  Run("CREATE (:A {k: 1}), (:B {k: 2})");
  Run("MATCH (a:A), (b:B) CREATE (a)-[:R]->(b)");
  EXPECT_EQ(Count("MATCH (:A)-[:R]->(:B) RETURN COUNT(*) AS n"), 1);
}

TEST_F(ExecutorTest, CreateRequiresDirectedSingleType) {
  EXPECT_FALSE(RunError("CREATE (:A)-[:R]-(:B)").ok());
  EXPECT_FALSE(RunError("CREATE (:A)-[:R|S]->(:B)").ok());
}

TEST_F(ExecutorTest, CreateRedeclaringBoundVarFails) {
  Run("CREATE (:A)");
  EXPECT_FALSE(RunError("MATCH (a:A) CREATE (a:B)").ok());
}

TEST_F(ExecutorTest, WhereFilters) {
  Run("CREATE (:N {v: 1}), (:N {v: 2}), (:N {v: 3})");
  EXPECT_EQ(Count("MATCH (n:N) WHERE n.v >= 2 RETURN COUNT(*) AS c"), 2);
  // NULL predicate filters the row out rather than erroring.
  EXPECT_EQ(Count("MATCH (n:N) WHERE n.missing > 1 RETURN COUNT(*) AS c"),
            0);
}

TEST_F(ExecutorTest, AggregationWithGrouping) {
  Run("CREATE (:E {dept: 'a', sal: 10}), (:E {dept: 'a', sal: 20}), "
      "(:E {dept: 'b', sal: 30})");
  cypher::QueryResult r = Run(
      "MATCH (e:E) RETURN e.dept AS dept, COUNT(*) AS c, SUM(e.sal) AS s, "
      "AVG(e.sal) AS a, MIN(e.sal) AS lo, MAX(e.sal) AS hi ORDER BY dept");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][1].int_value(), 2);
  EXPECT_EQ(r.rows[0][2].int_value(), 30);
  EXPECT_DOUBLE_EQ(r.rows[0][3].double_value(), 15.0);
  EXPECT_EQ(r.rows[1][4].int_value(), 30);
  EXPECT_EQ(r.rows[1][5].int_value(), 30);
}

TEST_F(ExecutorTest, AggregationOverEmptyInput) {
  cypher::QueryResult r = Run(
      "MATCH (n:Nothing) RETURN COUNT(*) AS c, SUM(n.x) AS s, "
      "COLLECT(n.x) AS xs, MIN(n.x) AS lo");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].int_value(), 0);
  EXPECT_EQ(r.rows[0][1].int_value(), 0);
  EXPECT_TRUE(r.rows[0][2].list_value().empty());
  EXPECT_TRUE(r.rows[0][3].is_null());
}

TEST_F(ExecutorTest, CountDistinctAndCollect) {
  Run("CREATE (:N {v: 1}), (:N {v: 1}), (:N {v: 2})");
  EXPECT_EQ(Count("MATCH (n:N) RETURN COUNT(DISTINCT n.v) AS c"), 2);
  cypher::QueryResult r = Run("MATCH (n:N) RETURN COLLECT(n.v) AS vs");
  EXPECT_EQ(r.rows[0][0].list_value().size(), 3u);
}

TEST_F(ExecutorTest, ExpressionOverAggregate) {
  Run("CREATE (:N {v: 10}), (:N {v: 20})");
  EXPECT_EQ(Count("MATCH (n:N) RETURN SUM(n.v) / COUNT(*) AS avg"), 15);
}

TEST_F(ExecutorTest, CountStarGroupsOnlyAggregates) {
  Run("CREATE (:N), (:N)");
  EXPECT_EQ(Count("MATCH (n:N) RETURN COUNT(*) AS c"), 2);
}

TEST_F(ExecutorTest, NullsSkippedByAggregates) {
  Run("CREATE (:N {v: 1}), (:N)");
  EXPECT_EQ(Count("MATCH (n:N) RETURN COUNT(n.v) AS c"), 1);
  EXPECT_EQ(Count("MATCH (n:N) RETURN COUNT(*) AS c"), 2);
}

TEST_F(ExecutorTest, OrderSkipLimitDistinct) {
  Run("CREATE (:N {v: 3}), (:N {v: 1}), (:N {v: 2}), (:N {v: 2})");
  cypher::QueryResult r =
      Run("MATCH (n:N) RETURN DISTINCT n.v AS v ORDER BY v DESC SKIP 1 "
          "LIMIT 1");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].int_value(), 2);
}

TEST_F(ExecutorTest, OrderByIsStable) {
  Run("CREATE (:N {k: 1, t: 'a'}), (:N {k: 1, t: 'b'}), (:N {k: 0, t: 'c'})");
  cypher::QueryResult r =
      Run("MATCH (n:N) RETURN n.k AS k, n.t AS t ORDER BY k");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][1].string_value(), "c");
  EXPECT_EQ(r.rows[1][1].string_value(), "a");  // original order kept
  EXPECT_EQ(r.rows[2][1].string_value(), "b");
}

TEST_F(ExecutorTest, WithReScopesVariables) {
  Run("CREATE (:N {v: 1})");
  EXPECT_FALSE(
      RunError("MATCH (n:N) WITH n.v AS v RETURN n").ok());  // n dropped
  EXPECT_EQ(Count("MATCH (n:N) WITH n.v AS v RETURN v"), 1);
}

TEST_F(ExecutorTest, WithWhereAfterAggregation) {
  Run("CREATE (:E {d: 'a'}), (:E {d: 'a'}), (:E {d: 'b'})");
  cypher::QueryResult r = Run(
      "MATCH (e:E) WITH e.d AS d, COUNT(*) AS c WHERE c > 1 RETURN d, c");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].string_value(), "a");
}

TEST_F(ExecutorTest, UnwindSemantics) {
  EXPECT_EQ(Count("UNWIND [1, 2, 3] AS x RETURN COUNT(*) AS c"), 3);
  EXPECT_EQ(Count("UNWIND [] AS x RETURN COUNT(*) AS c"), 0);
  EXPECT_EQ(Count("UNWIND null AS x RETURN COUNT(*) AS c"), 0);
  EXPECT_EQ(Count("UNWIND 7 AS x RETURN x"), 7);  // scalar: one row
  EXPECT_EQ(Count("UNWIND RANGE(1, 4) AS x RETURN SUM(x) AS s"), 10);
}

TEST_F(ExecutorTest, OptionalMatchBindsNulls) {
  Run("CREATE (:A)");
  cypher::QueryResult r =
      Run("MATCH (a:A) OPTIONAL MATCH (a)-[:R]->(b) RETURN a, b");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_TRUE(r.rows[0][1].is_null());
  // COUNT over the null binding is 0.
  EXPECT_EQ(
      Count("MATCH (a:A) OPTIONAL MATCH (a)-[:R]->(b) RETURN COUNT(b) AS c"),
      0);
}

TEST_F(ExecutorTest, SetAndRemoveProperties) {
  Run("CREATE (:N {v: 1})");
  Run("MATCH (n:N) SET n.v = 2, n.w = 'x'");
  EXPECT_EQ(Count("MATCH (n:N) RETURN n.v AS v"), 2);
  Run("MATCH (n:N) REMOVE n.w");
  EXPECT_EQ(Count("MATCH (n:N) WHERE n.w IS NULL RETURN COUNT(*) AS c"), 1);
  // SET to null removes.
  Run("MATCH (n:N) SET n.v = null");
  EXPECT_EQ(Count("MATCH (n:N) WHERE n.v IS NULL RETURN COUNT(*) AS c"), 1);
}

TEST_F(ExecutorTest, SetAndRemoveLabels) {
  Run("CREATE (:N)");
  Run("MATCH (n:N) SET n:Extra:More");
  EXPECT_EQ(Count("MATCH (n:Extra:More) RETURN COUNT(*) AS c"), 1);
  Run("MATCH (n:N) REMOVE n:Extra");
  EXPECT_EQ(Count("MATCH (n:Extra) RETURN COUNT(*) AS c"), 0);
  EXPECT_EQ(Count("MATCH (n:More) RETURN COUNT(*) AS c"), 1);
}

TEST_F(ExecutorTest, DeleteAndDetachDelete) {
  Run("CREATE (:A)-[:R]->(:B)");
  EXPECT_FALSE(RunError("MATCH (a:A) DELETE a").ok());  // still attached
  Run("MATCH (a:A) DETACH DELETE a");
  EXPECT_EQ(Count("MATCH (n) RETURN COUNT(*) AS c"), 1);
  Run("MATCH (b:B) DELETE b");
  EXPECT_EQ(Count("MATCH (n) RETURN COUNT(*) AS c"), 0);
}

TEST_F(ExecutorTest, DeleteRelationshipOnly) {
  Run("CREATE (:A)-[:R]->(:B)");
  Run("MATCH ()-[r:R]->() DELETE r");
  EXPECT_EQ(Count("MATCH ()-[r]->() RETURN COUNT(*) AS c"), 0);
  EXPECT_EQ(Count("MATCH (n) RETURN COUNT(*) AS c"), 2);
}

TEST_F(ExecutorTest, DeleteNullIsNoop) {
  Run("CREATE (:A)");
  Run("MATCH (a:A) OPTIONAL MATCH (a)-[r:R]->() DELETE r");
  EXPECT_EQ(Count("MATCH (n) RETURN COUNT(*) AS c"), 1);
}

TEST_F(ExecutorTest, MergeMatchesOrCreates) {
  Run("MERGE (n:N {k: 1})");
  Run("MERGE (n:N {k: 1})");  // matches, creates nothing
  EXPECT_EQ(Count("MATCH (n:N) RETURN COUNT(*) AS c"), 1);
  Run("MERGE (n:N {k: 2})");
  EXPECT_EQ(Count("MATCH (n:N) RETURN COUNT(*) AS c"), 2);
}

TEST_F(ExecutorTest, MergeOnCreateOnMatch) {
  Run("MERGE (n:N {k: 1}) ON CREATE SET n.fresh = true");
  EXPECT_EQ(Count("MATCH (n:N {fresh: true}) RETURN COUNT(*) AS c"), 1);
  Run("MERGE (n:N {k: 1}) ON MATCH SET n.seen = true");
  EXPECT_EQ(Count("MATCH (n:N {seen: true}) RETURN COUNT(*) AS c"), 1);
}

TEST_F(ExecutorTest, MergeRelationshipBetweenBoundNodes) {
  Run("CREATE (:A {k: 1}), (:B {k: 2})");
  Run("MATCH (a:A), (b:B) MERGE (a)-[:R]->(b)");
  Run("MATCH (a:A), (b:B) MERGE (a)-[:R]->(b)");
  EXPECT_EQ(Count("MATCH (:A)-[r:R]->(:B) RETURN COUNT(*) AS c"), 1);
}

TEST_F(ExecutorTest, ForeachCreatesPerElement) {
  Run("FOREACH (x IN [1, 2, 3] | CREATE (:F {v: x}))");
  EXPECT_EQ(Count("MATCH (f:F) RETURN COUNT(*) AS c"), 3);
  EXPECT_EQ(Count("MATCH (f:F) RETURN SUM(f.v) AS s"), 6);
}

TEST_F(ExecutorTest, ForeachOverEmptyCollectIsNoop) {
  Run("CREATE (:A)");
  Run("MATCH (a:A) OPTIONAL MATCH (a)-[:R]->(b) "
      "WITH COLLECT(b) AS bs "
      "FOREACH (x IN bs | SET x.touched = true)");
  EXPECT_EQ(Count("MATCH (n) RETURN COUNT(*) AS c"), 1);
}

TEST_F(ExecutorTest, NestedForeach) {
  Run("FOREACH (x IN [1, 2] | FOREACH (y IN [1, 2] | CREATE (:G {v: x * 10 "
      "+ y})))");
  EXPECT_EQ(Count("MATCH (g:G) RETURN COUNT(*) AS c"), 4);
}

TEST_F(ExecutorTest, ExistsSubqueryInWhere) {
  Run("CREATE (:A {k: 1})-[:R]->(:B), (:A {k: 2})");
  EXPECT_EQ(Count("MATCH (a:A) WHERE EXISTS { MATCH (a)-[:R]->(:B) } "
                  "RETURN COUNT(*) AS c"),
            1);
  EXPECT_EQ(Count("MATCH (a:A) WHERE NOT EXISTS { MATCH (a)-[:R]->(:B) } "
                  "RETURN a.k AS k"),
            2);
}

TEST_F(ExecutorTest, ParametersFlowThrough) {
  Params params;
  params["v"] = Value::Int(41);
  Run("CREATE (:N {v: $v})", params);
  EXPECT_EQ(Count("MATCH (n:N) RETURN n.v + 1 AS w"), 42);
}

TEST_F(ExecutorTest, ReturnStarColumns) {
  Run("CREATE (:A {k: 1})");
  cypher::QueryResult r = Run("MATCH (a:A) RETURN *");
  ASSERT_EQ(r.columns.size(), 1u);
  EXPECT_EQ(r.columns[0], "a");
}

TEST_F(ExecutorTest, WritesVisibleToLaterClauses) {
  Run("CREATE (:A {v: 1}) WITH 1 AS one MATCH (a:A) SET a.v = a.v + one");
  EXPECT_EQ(Count("MATCH (a:A) RETURN a.v AS v"), 2);
}

TEST_F(ExecutorTest, FailedStatementRollsBack) {
  Run("CREATE (:A)");
  // Second clause errors (division by zero) after a write: whole statement
  // (and transaction) must roll back.
  EXPECT_FALSE(RunError("CREATE (:B) WITH 1 AS x RETURN x / 0").ok());
  EXPECT_EQ(Count("MATCH (b:B) RETURN COUNT(*) AS c"), 0);
  EXPECT_EQ(Count("MATCH (n) RETURN COUNT(*) AS c"), 1);
}

TEST_F(ExecutorTest, MultiStatementTransaction) {
  auto r = db_.ExecuteTx({"CREATE (:A)", "CREATE (:B)",
                          "MATCH (a:A), (b:B) CREATE (a)-[:R]->(b)"});
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(Count("MATCH (:A)-[:R]->(:B) RETURN COUNT(*) AS c"), 1);
}

TEST_F(ExecutorTest, MultiStatementTransactionRollsBackAtomically) {
  auto r = db_.ExecuteTx({"CREATE (:A)", "MATCH (a:A) RETURN 1 / 0"});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(Count("MATCH (n) RETURN COUNT(*) AS c"), 0);
}

TEST_F(ExecutorTest, QueryResultTableRendering) {
  Run("CREATE (:N {v: 1})");
  cypher::QueryResult r = Run("MATCH (n:N) RETURN n.v AS value");
  std::string table = r.ToTable();
  EXPECT_NE(table.find("value"), std::string::npos);
  EXPECT_NE(table.find("| 1"), std::string::npos);
}

}  // namespace
}  // namespace pgt
