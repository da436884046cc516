// Golden suite for the statement engine (src/cypher/plan): every scenario
// under tests/corpus/plan/ is a script plus its expected transcript —
// query results, error texts, firing log, per-trigger statistics, and a
// canonical dump of the final graph (format: tests/golden_transcript.h).
// The corpus spans every compiled clause and expression shape, trigger
// WHEN/action plans at all four action times, plan-cache hits across DDL
// epoch bumps, RETURN * / WITH *, CALL, misplaced RETURN, and snapshot
// reads. Plan-cache bookkeeping is asserted inline below.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "tests/golden_transcript.h"

namespace pgt {
namespace {

class PlanGolden : public ::testing::TestWithParam<std::string> {};

TEST_P(PlanGolden, TranscriptMatches) {
  std::unique_ptr<Database> db;
  Result<golden::FileRun> run = golden::RunCorpusFile("plan", GetParam(), &db);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(run->actual, run->expected) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, PlanGolden, ::testing::ValuesIn(golden::CorpusNames("plan")),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

TEST(PlanGoldenCorpus, HasEveryScenario) {
  EXPECT_EQ(golden::CorpusNames("plan").size(), 9u);
}

int64_t Count(Database& db, const std::string& query) {
  auto r = db.Execute(query);
  EXPECT_TRUE(r.ok()) << r.status();
  if (!r.ok() || r->rows.empty()) return -1;
  return r->rows[0][0].int_value();
}

// Trigger and index DDL both bump the plan epoch (conservative
// invalidation of every cached plan).
TEST(PlanCache, DdlBumpsPlanEpoch) {
  Database db;
  const uint64_t e0 = db.PlanEpoch();
  ASSERT_TRUE(db.Execute("CREATE TRIGGER T AFTER CREATE ON 'X' "
                         "FOR EACH NODE BEGIN CREATE (:Hit) END")
                  .ok());
  const uint64_t e1 = db.PlanEpoch();
  EXPECT_GT(e1, e0);
  ASSERT_TRUE(db.Execute("DROP TRIGGER T").ok());
  const uint64_t e2 = db.PlanEpoch();
  EXPECT_GT(e2, e1);
  ASSERT_TRUE(db.Execute("CREATE RANGE INDEX ON :Owner(oid)").ok());
  EXPECT_GT(db.PlanEpoch(), e2);
}

// Repeated statement text parses and compiles once.
TEST(PlanCache, HitsOnRepeatedText) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE (:P {v: 1})").ok());
  const std::string q = "MATCH (p:P) RETURN p.v";
  const uint64_t misses_before = db.plan_cache().misses();
  for (int i = 0; i < 5; ++i) {
    auto r = db.Execute(q);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->rows[0][0].int_value(), 1);
  }
  EXPECT_EQ(db.plan_cache().misses(), misses_before + 1);
  EXPECT_GE(db.plan_cache().hits(), 4u);
}

TEST(PlanCache, EvictsAtCapacity) {
  EngineOptions opts;
  opts.plan_cache_capacity = 2;
  Database db(opts);
  ASSERT_TRUE(db.Execute("RETURN 1 AS a").ok());
  ASSERT_TRUE(db.Execute("RETURN 2 AS a").ok());
  ASSERT_TRUE(db.Execute("RETURN 3 AS a").ok());
  EXPECT_EQ(db.plan_cache().size(), 2u);
}

// Parameterized statements share one cached plan across different values.
TEST(PlanCache, ParamsReuseOneCachedPlan) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE (:K {id: 1}), (:K {id: 2})").ok());
  const std::string q = "MATCH (k:K) WHERE k.id = $id RETURN k.id";
  for (int64_t id : {1, 2, 1}) {
    Params params{{"id", Value::Int(id)}};
    auto r = db.Execute(q, params);
    ASSERT_TRUE(r.ok()) << r.status();
    ASSERT_EQ(r->rows.size(), 1u);
    EXPECT_EQ(r->rows[0][0].int_value(), id);
  }
  EXPECT_GE(db.plan_cache().hits(), 2u);
}

// A prepared statement whose plan went stale between Prepare and the run
// (a procedure ran index DDL mid-transaction) still runs, recompiled.
TEST(PlanCache, StalePreparedStatementRunsRecompiled) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE (:K {id: 1}), (:K {id: 2})").ok());
  auto stmt = db.Prepare("MATCH (k:K) WHERE k.id = 2 RETURN k.id AS id");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  ASSERT_TRUE(db.Execute("CREATE INDEX ON :K(id)").ok());
  ASSERT_NE((*stmt)->epoch, db.PlanEpoch());
  auto tx = std::move(db.BeginTx()).value();
  auto r = db.RunPreparedInTx(*tx, **stmt, {});
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].int_value(), 2);
  ASSERT_TRUE(db.CommitWithTriggers(std::move(tx)).ok());
  EXPECT_EQ(Count(db, "MATCH (k:K) RETURN count(k) AS c"), 2);
}

// RETURN * lists columns in the order variables were first bound, a hop's
// node before its relationship — also when OPTIONAL MATCH padded the first
// row (the AST interpreter listed padded rows' columns in pattern order,
// a, r, b).
TEST(PlanStar, ColumnsFollowBindingOrder) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE (:A {v: 1})").ok());
  auto r = db.Execute("MATCH (a:A) OPTIONAL MATCH (a)-[r:R]->(b) RETURN *");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->columns, (std::vector<std::string>{"a", "b", "r"}));
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_TRUE(r->rows[0][1].is_null());
  EXPECT_TRUE(r->rows[0][2].is_null());
}

}  // namespace
}  // namespace pgt
