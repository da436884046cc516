// Pattern matching tests, run as statements through Database::Execute:
// label scans, directions, property constraints, relationship uniqueness,
// variable-length paths, transition pseudo-labels (inside triggers), and
// scan-order determinism across deletes, rollbacks and index probes.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "src/trigger/database.h"

namespace pgt {
namespace {

class MatcherTest : public ::testing::Test {
 protected:
  cypher::QueryResult Exec(const std::string& q, const Params& params = {}) {
    auto r = db_.Execute(q, params);
    EXPECT_TRUE(r.ok()) << q << " -> " << r.status();
    return r.ok() ? std::move(r).value() : cypher::QueryResult{};
  }

  /// Creates a node and returns its id.
  int64_t Node(const std::string& label, const std::string& props = "") {
    cypher::QueryResult r =
        Exec("CREATE (n:" + label + " " + props + ") RETURN id(n) AS id");
    return r.rows.empty() ? -1 : r.rows[0][0].int_value();
  }
  /// Creates a relationship a-[:type]->b and returns its id.
  int64_t Rel(int64_t a, const std::string& type, int64_t b) {
    cypher::QueryResult r = Exec(
        "MATCH (a), (b) WHERE id(a) = $a AND id(b) = $b "
        "CREATE (a)-[r:" + type + "]->(b) RETURN id(r) AS id",
        {{"a", Value::Int(a)}, {"b", Value::Int(b)}});
    return r.rows.empty() ? -1 : r.rows[0][0].int_value();
  }

  /// Number of matches of `MATCH <pattern>`, after `prefix` (clauses that
  /// bind variables first).
  size_t Count(const std::string& pattern, const std::string& prefix = "",
               const Params& params = {}) {
    return Exec(prefix + " MATCH " + pattern + " RETURN *", params)
        .rows.size();
  }

  /// Ids the variable `n` binds over `MATCH <pattern>`, in result order.
  std::vector<int64_t> Ids(const std::string& pattern) {
    std::vector<int64_t> ids;
    for (const auto& row :
         Exec("MATCH " + pattern + " RETURN id(n) AS id").rows) {
      ids.push_back(row[0].int_value());
    }
    return ids;
  }

  /// Binds `s` to the node with id $s.
  static constexpr const char* kBindS = "MATCH (s) WHERE id(s) = $s";

  Database db_;
};

TEST_F(MatcherTest, LabelScan) {
  Node("A");
  Node("A");
  Node("B");
  EXPECT_EQ(Count("(n:A)"), 2u);
  EXPECT_EQ(Count("(n:B)"), 1u);
  EXPECT_EQ(Count("(n)"), 3u);
}

TEST_F(MatcherTest, UnknownLabelMatchesNothing) {
  Node("A");
  EXPECT_EQ(Count("(n:Nothing)"), 0u);
}

TEST_F(MatcherTest, PropertyConstraint) {
  Node("P", "{age: 30}");
  Node("P", "{age: 40}");
  EXPECT_EQ(Count("(n:P {age: 30})"), 1u);
  EXPECT_EQ(Count("(n:P {age: 99})"), 0u);
  EXPECT_EQ(Count("(n:P {missing: 1})"), 0u);
}

TEST_F(MatcherTest, DirectedTraversal) {
  const int64_t a = Node("A");
  const int64_t b = Node("B");
  Rel(a, "R", b);
  EXPECT_EQ(Count("(x:A)-[:R]->(y:B)"), 1u);
  EXPECT_EQ(Count("(x:A)<-[:R]-(y:B)"), 0u);
  EXPECT_EQ(Count("(x:A)-[:R]-(y:B)"), 1u);
  EXPECT_EQ(Count("(y:B)<-[:R]-(x:A)"), 1u);
}

TEST_F(MatcherTest, TypeFilterAndAlternatives) {
  const int64_t a = Node("A");
  const int64_t b = Node("B");
  Rel(a, "R1", b);
  Rel(a, "R2", b);
  EXPECT_EQ(Count("(x:A)-[:R1]->(y)"), 1u);
  EXPECT_EQ(Count("(x:A)-[:R1|R2]->(y)"), 2u);
  EXPECT_EQ(Count("(x:A)-[r]->(y)"), 2u);
}

TEST_F(MatcherTest, BoundVariablesConstrain) {
  const int64_t a = Node("A");
  const int64_t b = Node("B");
  const int64_t c = Node("B");
  Rel(a, "R", b);
  Rel(a, "R", c);
  EXPECT_EQ(Count("(x:A)-[:R]->(y)", "MATCH (y) WHERE id(y) = $y",
                  {{"y", Value::Int(b)}}),
            1u);
}

TEST_F(MatcherTest, BoundRelVariableConstrains) {
  const int64_t a = Node("A");
  const int64_t b = Node("B");
  const int64_t r1 = Rel(a, "R", b);
  Rel(a, "R", b);
  EXPECT_EQ(Count("(x)-[r]->(y)", "MATCH ()-[r]->() WHERE id(r) = $r",
                  {{"r", Value::Int(r1)}}),
            1u);
}

TEST_F(MatcherTest, RelationshipUniquenessWithinMatch) {
  const int64_t a = Node("A");
  const int64_t b = Node("A");
  Rel(a, "R", b);
  // A two-hop path needs two distinct relationships; with only one, the
  // same rel may not be reused (a)-[r]-(b)-[r]-(a).
  EXPECT_EQ(Count("(x:A)-[:R]-(y:A)-[:R]-(z:A)"), 0u);
}

TEST_F(MatcherTest, MultiPartCartesianAndJoin) {
  Node("A");
  Node("A");
  Node("B");
  EXPECT_EQ(Count("(x:A), (y:B)"), 2u);
  EXPECT_EQ(Count("(x:A), (y:A)"), 4u);  // no node uniqueness
}

TEST_F(MatcherTest, VariableLengthPaths) {
  const int64_t n1 = Node("N");
  const int64_t n2 = Node("N");
  const int64_t n3 = Node("N");
  const int64_t n4 = Node("N");
  Rel(n1, "R", n2);
  Rel(n2, "R", n3);
  Rel(n3, "R", n4);
  const Params s{{"s", Value::Int(n1)}};
  EXPECT_EQ(Count("(s)-[:R*1..3]->(t)", kBindS, s), 3u);
  EXPECT_EQ(Count("(s)-[:R*2]->(t)", kBindS, s), 1u);
  EXPECT_EQ(Count("(s)-[:R*]->(t)", kBindS, s), 3u);
  // Zero-length includes the start node itself.
  EXPECT_EQ(Count("(s)-[:R*0..1]->(t)", kBindS, s), 2u);
}

TEST_F(MatcherTest, VariableLengthBindsRelList) {
  const int64_t n1 = Node("N");
  const int64_t n2 = Node("N");
  const int64_t n3 = Node("N");
  Rel(n1, "R", n2);
  Rel(n2, "R", n3);
  cypher::QueryResult r =
      Exec(std::string(kBindS) +
               " MATCH (s)-[path:R*2]->(t) RETURN path, size(path) AS n",
           {{"s", Value::Int(n1)}});
  ASSERT_EQ(r.rows.size(), 1u);
  ASSERT_TRUE(r.rows[0][0].is_list());
  EXPECT_EQ(r.rows[0][1].int_value(), 2);
}

TEST_F(MatcherTest, VariableLengthCyclesAreBounded) {
  const int64_t a = Node("N");
  const int64_t b = Node("N");
  Rel(a, "R", b);
  Rel(b, "R", a);
  // Rel-uniqueness bounds the DFS: a->b (1 hop), a->b->a (2 hops), stop.
  EXPECT_EQ(Count("(s)-[:R*]->(t)", kBindS, {{"s", Value::Int(a)}}), 2u);
}

// Transition sets act as pseudo-labels inside trigger statements.
TEST_F(MatcherTest, TransitionPseudoLabel) {
  Node("P");
  Exec("CREATE TRIGGER T AFTER CREATE ON 'P' FOR ALL NODES "
       "BEGIN MATCH (pn:NEWNODES) CREATE (:Hit {kind: 'set', id: id(pn)}) "
       "WITH pn MATCH (q:NEWNODES:P) CREATE (:Hit {kind: 'both'}) "
       "WITH pn MATCH (z:NEWNODES:Q) CREATE (:Hit {kind: 'never'}) END");
  const int64_t a = Node("P");
  cypher::QueryResult hits = Exec(
      "MATCH (h:Hit) RETURN h.kind AS kind, h.id AS id ORDER BY kind");
  ASSERT_EQ(hits.rows.size(), 2u);
  EXPECT_EQ(hits.rows[0][0].string_value(), "both");
  EXPECT_EQ(hits.rows[1][0].string_value(), "set");
  EXPECT_EQ(hits.rows[1][1].int_value(), a);  // only the new node
}

TEST_F(MatcherTest, PseudoLabelOfRelSetNeverMatchesNodes) {
  const int64_t a = Node("P");
  Exec("CREATE TRIGGER T AFTER CREATE ON 'R' FOR ALL RELATIONSHIPS "
       "BEGIN CREATE (:Fired) WITH 1 AS one MATCH (x:NEWRELS) "
       "CREATE (:Hit) END");
  Rel(a, "R", a);
  EXPECT_EQ(Count("(f:Fired)"), 1u);
  EXPECT_EQ(Count("(h:Hit)"), 0u);
}

// A deleted node in the OLD set still matches its pseudo-label (through the
// transaction's ghost image) but has no relationships left to traverse.
TEST_F(MatcherTest, DeletedNodesInOldSetMatchButDoNotTraverse) {
  const int64_t a = Node("P");
  const int64_t b = Node("P");
  Rel(a, "R", b);
  Exec("CREATE TRIGGER T AFTER DELETE ON 'P' FOR ALL NODES "
       "BEGIN MATCH (x:OLDNODES) CREATE (:Ghost {id: id(x)}) "
       "WITH x MATCH (x)-[:R]-(y) CREATE (:Traversed) END");
  Exec("MATCH (n:P) WHERE id(n) = $a DETACH DELETE n", {{"a", Value::Int(a)}});
  cypher::QueryResult ghosts = Exec("MATCH (g:Ghost) RETURN g.id AS id");
  ASSERT_EQ(ghosts.rows.size(), 1u);  // ghost matches
  EXPECT_EQ(ghosts.rows[0][0].int_value(), a);
  EXPECT_EQ(Count("(t:Traversed)"), 0u);  // no traversal
}

TEST_F(MatcherTest, PatternExistsEarlyExit) {
  const int64_t a = Node("A");
  const int64_t b = Node("B");
  Rel(a, "R", b);
  cypher::QueryResult r = Exec(
      "RETURN EXISTS { MATCH (:A)-[:R]->(:B) } AS found, "
      "EXISTS { MATCH (:B)-[:R]->(:A) } AS missing");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_TRUE(r.rows[0][0].bool_value());
  EXPECT_FALSE(r.rows[0][1].bool_value());
}

// OPTIONAL MATCH pads exactly the pattern variables not bound before it.
TEST_F(MatcherTest, OptionalMatchPadsOnlyUnboundVariables) {
  const int64_t a = Node("A");
  cypher::QueryResult r = Exec(
      "MATCH (a:A) OPTIONAL MATCH (a)-[r:R]->(b) RETURN id(a) AS a, r, b");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].int_value(), a);
  EXPECT_TRUE(r.rows[0][1].is_null());
  EXPECT_TRUE(r.rows[0][2].is_null());
}

TEST_F(MatcherTest, SelfLoopMatches) {
  const int64_t a = Node("A");
  Rel(a, "R", a);
  EXPECT_EQ(Count("(x:A)-[:R]->(x)"), 1u);
  EXPECT_EQ(Count("(x:A)-[:R]-(y)"), 1u);
}

// Regression: scans must stay deterministic (ascending id order, tombstones
// excluded) when deletes are interleaved with scans — the unconstrained,
// label-index, and property-index access paths all share this contract.
TEST_F(MatcherTest, ScanOrderDeterministicAcrossInterleavedDeletes) {
  std::vector<int64_t> nodes;
  for (int i = 0; i < 8; ++i) {
    nodes.push_back(Node("D", "{v: " + std::to_string(i) + "}"));
  }
  auto expect_sorted_without = [&](const std::vector<int64_t>& ids,
                                   const std::set<int64_t>& deleted,
                                   size_t total) {
    EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
    EXPECT_EQ(ids.size(), total - deleted.size());
    for (int64_t id : ids) EXPECT_EQ(deleted.count(id), 0u);
  };
  auto del = [&](int i) {
    Exec("MATCH (n:D {v: $v}) DELETE n", {{"v", Value::Int(i)}});
  };

  std::set<int64_t> deleted;
  expect_sorted_without(Ids("(n)"), deleted, nodes.size());

  // Delete from the middle, scan, delete more, scan again.
  del(3);
  deleted.insert(nodes[3]);
  expect_sorted_without(Ids("(n)"), deleted, nodes.size());
  expect_sorted_without(Ids("(n:D)"), deleted, nodes.size());

  del(0);
  del(7);
  deleted.insert(nodes[0]);
  deleted.insert(nodes[7]);
  expect_sorted_without(Ids("(n)"), deleted, nodes.size());
  expect_sorted_without(Ids("(n:D)"), deleted, nodes.size());

  // Revival (the rollback path) restores a node at its old position: the
  // transaction deletes v=4, then fails, so the delete is undone.
  auto failed = db_.ExecuteTx({"MATCH (n:D {v: 4}) DELETE n", "RETURN 1 / 0"});
  ASSERT_FALSE(failed.ok());
  expect_sorted_without(Ids("(n)"), deleted, nodes.size());
  expect_sorted_without(Ids("(n:D)"), deleted, nodes.size());
  EXPECT_EQ(Ids("(n:D {v: 4})"), (std::vector<int64_t>{nodes[4]}));

  // Same contract on the property-index path.
  Exec("CREATE INDEX ON :D(v)");
  Exec("CREATE (:D {v: 0})");  // reuses a deleted node's value, new id
  std::vector<int64_t> via_index = Ids("(n:D {v: 4})");
  ASSERT_EQ(via_index.size(), 1u);
  EXPECT_EQ(via_index[0], nodes[4]);
  // New nodes created mid-stream appear in id order on the next scan.
  Node("D", "{v: 4}");
  via_index = Ids("(n:D {v: 4})");
  ASSERT_EQ(via_index.size(), 2u);
  EXPECT_TRUE(std::is_sorted(via_index.begin(), via_index.end()));
}

// Snapshot reads (QueryAt) match through the same engine.
TEST_F(MatcherTest, SnapshotReadsMatchLikeLiveReads) {
  const int64_t a = Node("A", "{k: 1}");
  const int64_t b = Node("B", "{k: 2}");
  Rel(a, "R", b);
  auto snap = db_.OpenSnapshot();
  ASSERT_TRUE(snap.ok()) << snap.status();
  Node("A", "{k: 3}");  // after the snapshot: invisible to it
  for (const char* q :
       {"MATCH (x:A)-[:R]->(y:B) RETURN id(x) AS x, id(y) AS y",
        "MATCH (x:A {k: 1})-[:R]-(y) RETURN y.k AS k",
        "MATCH (x) RETURN count(x) AS c"}) {
    auto at = db_.QueryAt(**snap, q);
    ASSERT_TRUE(at.ok()) << q << " -> " << at.status();
    if (std::string(q).find("count") != std::string::npos) {
      EXPECT_EQ(at->rows[0][0].int_value(), 2) << q;
    } else {
      ASSERT_EQ(at->rows.size(), 1u) << q;
    }
  }
}

}  // namespace
}  // namespace pgt
