// Termination analysis tests over the plan-grounded analysis
// (src/analysis): inferred write sets, triggering-graph edges, cycle
// detection and the guardedness report (Section 6.2.3 / [9]).

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/write_set.h"
#include "src/covid/triggers.h"
#include "src/trigger/database.h"
#include "src/trigger/trigger_parser.h"

namespace pgt {
namespace {

constexpr char kOnP[] = "CREATE TRIGGER T AFTER CREATE ON 'P' FOR EACH NODE ";

/// The inferred write set of `ddl`'s action, rendered (WriteSet::ToString).
std::string Writes(const std::string& ddl) {
  auto r = TriggerDdlParser::ParseCreate(ddl);
  EXPECT_TRUE(r.ok()) << r.status();
  if (!r.ok()) return "";
  GraphStore store;
  return analysis::InferWriteSet(r.value(), store, /*plan_epoch=*/0)
      .ToString();
}

bool Has(const std::string& writes, const std::string& event) {
  return (" " + writes + " ").find(" " + event + " ") != std::string::npos;
}

/// A database with `ddls` installed, for graph-level checks.
class GraphTest : public ::testing::Test {
 protected:
  void Install(const std::vector<std::string>& ddls) {
    for (const std::string& ddl : ddls) {
      auto r = db_.Execute(ddl);
      ASSERT_TRUE(r.ok()) << ddl << "\n-> " << r.status();
    }
  }
  bool Edge(const std::string& from, const std::string& to) {
    db_.AnalyzeTriggers();
    return db_.analyzer().Edges().count({from, to}) > 0;
  }
  Database db_;
};

TEST(WriteSetTest, CreateNodesAndRels) {
  const std::string w = Writes(
      std::string(kOnP) +
      "BEGIN CREATE (:Alert {v: 1})-[:Causes]->(:Incident) END");
  EXPECT_TRUE(Has(w, "+node{Alert}")) << w;
  EXPECT_TRUE(Has(w, "+node{Incident}")) << w;
  EXPECT_TRUE(Has(w, "+rel{Causes}")) << w;
  EXPECT_EQ(w.find("-node"), std::string::npos) << w;
}

TEST(WriteSetTest, SetPropsWithInferredLabels) {
  const std::string w =
      Writes(std::string(kOnP) + "BEGIN MATCH (h:Hospital) SET h.load = 1 END");
  EXPECT_TRUE(Has(w, "set node{Hospital,*}.load=1")) << w;
}

TEST(WriteSetTest, TransitionVarCarriesTargetLabel) {
  const std::string w =
      Writes(std::string(kOnP) + "BEGIN SET NEW.seen = true END");
  EXPECT_TRUE(Has(w, "set node{P,*}.seen=true")) << w;
}

TEST(WriteSetTest, UnknownTargetWidensToWildcard) {
  const std::string w =
      Writes(std::string(kOnP) + "WHEN MATCH (x) BEGIN DELETE x END");
  EXPECT_TRUE(Has(w, "-node{*}") || Has(w, "-rel{*}")) << w;
}

TEST(WriteSetTest, DeleteWithLabel) {
  const std::string w = Writes(
      std::string(kOnP) + "BEGIN MATCH (old:Stale) DETACH DELETE old END");
  EXPECT_TRUE(Has(w, "-node{Stale,*}")) << w;
  EXPECT_TRUE(Has(w, "-rel{*}")) << w;  // detach widens
}

TEST_F(GraphTest, CreateEventMatching) {
  Install({"CREATE TRIGGER P1 AFTER CREATE ON 'A' FOR EACH NODE "
           "BEGIN CREATE (:B) END",
           "CREATE TRIGGER C1 AFTER CREATE ON 'B' FOR EACH NODE "
           "BEGIN CREATE (:X) END",
           "CREATE TRIGGER C2 AFTER CREATE ON 'C' FOR EACH NODE "
           "BEGIN CREATE (:X) END"});
  EXPECT_TRUE(Edge("P1", "C1"));
  EXPECT_FALSE(Edge("P1", "C2"));
}

TEST_F(GraphTest, PropertyEventMatching) {
  Install({"CREATE TRIGGER S AFTER CREATE ON 'A' FOR EACH NODE "
           "BEGIN MATCH (h:H) SET h.x = 1 END",
           "CREATE TRIGGER W1 AFTER SET ON 'H'.'x' FOR EACH NODE "
           "BEGIN CREATE (:Y) END",
           "CREATE TRIGGER W2 AFTER SET ON 'H'.'y' FOR EACH NODE "
           "BEGIN CREATE (:Y) END",
           "CREATE TRIGGER W3 AFTER REMOVE ON 'H'.'x' FOR EACH NODE "
           "BEGIN CREATE (:Y) END"});
  EXPECT_TRUE(Edge("S", "W1"));
  EXPECT_FALSE(Edge("S", "W2"));
  EXPECT_FALSE(Edge("S", "W3"));
}

TEST_F(GraphTest, AcyclicChainIsGuaranteedTerminating) {
  Install({"CREATE TRIGGER A AFTER CREATE ON 'P' FOR EACH NODE "
           "BEGIN CREATE (:Q) END",
           "CREATE TRIGGER B AFTER CREATE ON 'Q' FOR EACH NODE "
           "BEGIN CREATE (:R) END"});
  const analysis::AnalysisReport report = db_.AnalyzeTriggers();
  EXPECT_TRUE(report.guaranteed_termination);
  EXPECT_EQ(report.edge_count, 1u);  // A -> B only
  EXPECT_NE(report.ToString().find("acyclic"), std::string::npos);
}

TEST_F(GraphTest, SelfLoopDetected) {
  Install({"CREATE TRIGGER Loop AFTER CREATE ON 'P' FOR EACH NODE "
           "BEGIN CREATE (:P) END"});
  const analysis::AnalysisReport report = db_.AnalyzeTriggers();
  EXPECT_FALSE(report.guaranteed_termination);
  ASSERT_EQ(report.cycles.size(), 1u);
  EXPECT_EQ(report.cycles[0].first[0], "Loop");
  EXPECT_FALSE(report.cycles[0].second);  // unguarded (no WHEN)
}

TEST_F(GraphTest, TwoTriggerCycleDetected) {
  Install({"CREATE TRIGGER Ping AFTER CREATE ON 'P' FOR EACH NODE "
           "BEGIN CREATE (:Q) END",
           "CREATE TRIGGER Pong AFTER CREATE ON 'Q' FOR EACH NODE "
           "BEGIN CREATE (:P) END"});
  const analysis::AnalysisReport report = db_.AnalyzeTriggers();
  ASSERT_EQ(report.cycles.size(), 1u);
  // The cycle is reported as a closed path: Ping -> Pong -> Ping.
  const std::vector<std::string>& path = report.cycles[0].first;
  EXPECT_EQ(std::set<std::string>(path.begin(), path.end()).size(), 2u);
}

TEST_F(GraphTest, GuardedCycleFlagged) {
  Install({"CREATE TRIGGER Guarded AFTER CREATE ON 'P' FOR EACH NODE "
           "WHEN NEW.v > 0 BEGIN CREATE (:P {v: NEW.v - 1}) END"});
  const analysis::AnalysisReport report = db_.AnalyzeTriggers();
  ASSERT_EQ(report.cycles.size(), 1u);
  EXPECT_TRUE(report.cycles[0].second);  // guarded by WHEN
  EXPECT_NE(report.ToString().find("guarded"), std::string::npos);
}

TEST_F(GraphTest, PaperRelocationTriggerIsCyclic) {
  // The Section 6.2.3 cascading relocation: its action creates TreatedAt
  // relationships, its event is TreatedAt creation -> self-loop.
  Install({covid::UnguardedMoveTriggerDdl()});
  EXPECT_FALSE(db_.AnalyzeTriggers().guaranteed_termination);
}

TEST_F(GraphTest, PaperSectionSixTriggersAnalyzed) {
  // All Section 6.2 triggers together: the relocation triggers create
  // TreatedAt edges but no trigger monitors TreatedAt, and alerts trigger
  // nothing -> the set is acyclic.
  Install(covid::PaperTriggerDdl());
  const analysis::AnalysisReport report = db_.AnalyzeTriggers();
  EXPECT_TRUE(report.guaranteed_termination) << report.ToString();
}

TEST_F(GraphTest, LabelEventEdges) {
  Install({"CREATE TRIGGER S AFTER CREATE ON 'A' FOR EACH NODE "
           "BEGIN MATCH (n:B) SET n:Flagged END",
           "CREATE TRIGGER W AFTER SET ON 'Flagged' FOR EACH NODE "
           "BEGIN CREATE (:X) END"});
  EXPECT_TRUE(Edge("S", "W"));
}

// --- Conservativeness regressions -----------------------------------------
// MATCH/MERGE-bound and transition node variables widen with "*" (the
// designated node may carry labels beyond the matched ones); CREATE-bound
// nodes keep their exact creation labels.

TEST(WriteSetTest, MatchBoundSetWidensToWildcard) {
  const std::string w =
      Writes(std::string(kOnP) + "BEGIN MATCH (h:Hospital) SET h.load = 1 END");
  EXPECT_TRUE(Has(w, "set node{Hospital,*}.load=1")) << w;
}

TEST(WriteSetTest, CreateBoundSetStaysExact) {
  const std::string w =
      Writes(std::string(kOnP) + "BEGIN CREATE (n:Fresh) SET n.v = 1 END");
  EXPECT_TRUE(Has(w, "set node{Fresh}.v=1")) << w;
  EXPECT_EQ(w.find("*}.v"), std::string::npos) << w;
}

TEST(WriteSetTest, MergeMayCreateAndOnMatchWidens) {
  const std::string w = Writes(
      std::string(kOnP) + "BEGIN MERGE (m:Metric) ON MATCH SET m.n = 1 END");
  // MERGE may create the node -> a CREATE event on Metric is possible...
  EXPECT_TRUE(Has(w, "+node{Metric}")) << w;
  // ...but the variable may also bind an existing node with more labels.
  EXPECT_TRUE(Has(w, "set node{Metric,*}.n=1")) << w;
}

TEST(WriteSetTest, DetachDeleteMatchedNodeWidens) {
  const std::string w = Writes(
      std::string(kOnP) + "BEGIN MATCH (old:Stale) DETACH DELETE old END");
  EXPECT_TRUE(Has(w, "-node{Stale,*}")) << w;  // extra labels possible
  EXPECT_TRUE(Has(w, "-rel{*}")) << w;         // detach widens
}

TEST(WriteSetTest, ForeachVarShadowsOuterBinding) {
  // The foreach element variable shadows the CREATE-bound x: writes through
  // it must widen instead of inheriting the exact creation label.
  const std::string w = Writes(
      std::string(kOnP) +
      "BEGIN CREATE (x:Safe) FOREACH (x IN [1] | SET x.v = 2) END");
  EXPECT_TRUE(Has(w, "set node{*}.v=2")) << w;
  EXPECT_EQ(w.find("node{Safe}.v"), std::string::npos) << w;
}

TEST(WriteSetTest, UntypedRelDeleteIsWildcard) {
  const std::string w = Writes(
      std::string(kOnP) + "BEGIN MATCH (a:A)-[r]->(b:B) DELETE r END");
  EXPECT_TRUE(Has(w, "-rel{*}")) << w;
}

TEST(WriteSetTest, ToStringListsCategories) {
  const std::string w =
      Writes(std::string(kOnP) + "BEGIN CREATE (:A) SET NEW.x = 1 END");
  EXPECT_NE(w.find("+node{A}"), std::string::npos) << w;
  EXPECT_NE(w.find("{P,*}.x"), std::string::npos) << w;
}

}  // namespace
}  // namespace pgt
