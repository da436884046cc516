// Event-keyed dispatch suite. The golden corpus tests/corpus/dispatch/
// pins firing order, per-trigger statistics and the final graph under all
// four trigger-ordering x label-semantics configurations (one file each,
// selected by its `> @options` line). MatchAll's activations are compared
// byte for byte with per-trigger MatchActivations over the catalog's
// ByTime order. Also holds the dispatch-index maintenance tests and the
// delta-lifetime regression tests: relationship events on rels deleted
// later in the same transaction, and DROP TRIGGER while DETACHED
// activations are queued.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/cypher/parser.h"
#include "src/trigger/database.h"
#include "tests/golden_transcript.h"

namespace pgt {
namespace {

// ---------------------------------------------------------------------------
// Helpers

TriggerDef ParseDef(const std::string& ddl) {
  auto r = TriggerDdlParser::ParseCreate(ddl);
  EXPECT_TRUE(r.ok()) << r.status();
  return std::move(r).value();
}

/// Canonical text form of an activation (trigger identity + full transition
/// environment), for byte-identical comparisons of the two match entries.
std::string Describe(const Activation& act) {
  std::ostringstream os;
  os << act.trigger->name << "{";
  for (const auto& [var, v] : act.env.singles) {
    os << "s:" << cypher::TransVars::Name(var) << "=" << v.ToString() << ";";
  }
  for (const auto& [var, sb] : act.env.sets) {
    os << "S:" << cypher::TransVars::Name(var) << (sb.is_node ? ":n[" : ":r[");
    for (uint64_t id : sb.ids) os << id << ",";
    os << "];";
  }
  for (cypher::TransVarId var : act.env.old_view_vars) {
    os << "o:" << cypher::TransVars::Name(var) << ";";
  }
  // Sealed overlays are sorted by (item, key) already.
  auto overlay = [&os](const char* tag,
                       const std::vector<cypher::TransitionEnv::OldImage>& m) {
    uint64_t current = 0;
    bool open = false;
    for (const cypher::TransitionEnv::OldImage& e : m) {
      if (!open || e.item != current) {
        if (open) os << "};";
        os << tag << e.item << "{";
        current = e.item;
        open = true;
      }
      os << e.key << "=" << e.value.ToString() << ",";
    }
    if (open) os << "};";
  };
  overlay("On:", act.env.old_node_props);
  overlay("Or:", act.env.old_rel_props);
  os << "}";
  return os.str();
}

std::vector<std::string> DescribeAll(const std::vector<Activation>& acts) {
  std::vector<std::string> out;
  for (const Activation& act : acts) out.push_back(Describe(act));
  return out;
}

/// Runs `statement` inside its own transaction and returns the raw
/// statement delta (commit still runs the full trigger pipeline).
GraphDelta RunAndCapture(Database& db, const std::string& statement) {
  auto tx = std::move(db.BeginTx()).value();
  tx->PushDeltaScope();
  auto q = cypher::Parser::ParseQuery(statement);
  EXPECT_TRUE(q.ok()) << q.status();
  cypher::EvalContext ctx = db.MakeEvalContext(tx.get(), nullptr, nullptr);
  cypher::Executor exec(ctx);
  auto res = exec.Run(q.value(), cypher::Row{});
  EXPECT_TRUE(res.ok()) << statement << " -> " << res.status();
  GraphDelta delta = tx->PopDeltaScope();
  EXPECT_TRUE(db.CommitWithTriggers(std::move(tx)).ok());
  return delta;
}

int64_t Count(Database& db, const std::string& query) {
  auto r = db.Execute(query);
  EXPECT_TRUE(r.ok()) << r.status();
  if (!r.ok() || r->rows.empty()) return -1;
  return r->rows[0][0].int_value();
}

// ---------------------------------------------------------------------------
// Golden corpus: firing order, statistics and final graph per configuration.

class DispatchGolden : public ::testing::TestWithParam<std::string> {};

TEST_P(DispatchGolden, TranscriptMatches) {
  std::unique_ptr<Database> db;
  Result<golden::FileRun> run =
      golden::RunCorpusFile("dispatch", GetParam(), &db);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(run->actual, run->expected) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, DispatchGolden,
    ::testing::ValuesIn(golden::CorpusNames("dispatch")),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

// One file per trigger-ordering x label-semantics configuration.
TEST(DispatchGoldenCorpus, CoversEveryConfiguration) {
  EXPECT_EQ(golden::CorpusNames("dispatch").size(), 4u);
}

// ---------------------------------------------------------------------------
// MatchAll (one walk, DispatchIndex probes) against per-trigger
// MatchActivations over the catalog's ByTime order: byte-identical
// activations in identical order, at every action time, under every
// configuration.

class MatchAllEqualsPerTrigger
    : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  EngineOptions Options() const {
    EngineOptions opts;
    opts.trigger_ordering = std::get<0>(GetParam()) == 0
                                ? TriggerOrdering::kCreationTime
                                : TriggerOrdering::kName;
    opts.label_event_semantics = std::get<1>(GetParam()) == 0
                                     ? LabelEventSemantics::kMonitoredLabel
                                     : LabelEventSemantics::kTargetSetChange;
    return opts;
  }
};

TEST_P(MatchAllEqualsPerTrigger, MatchAllActivationsByteIdentical) {
  Database db(Options());
  // The trigger set of the golden dispatch corpus (every action time, both
  // granularities, both item kinds, property and label events).
  const std::string golden_text = golden::ReadFile(
      golden::CorpusDir("dispatch") /
      "firing_creation_time_monitored_label.golden");
  for (const std::string& line : golden::ScriptLines(golden_text)) {
    if (line.rfind("> CREATE TRIGGER ", 0) != 0) continue;
    auto r = db.Execute(line.substr(2));
    ASSERT_TRUE(r.ok()) << line << " -> " << r.status();
  }
  ASSERT_EQ(db.catalog().All().size(), 10u);

  const std::vector<std::string> statements = {
      "CREATE (:M {p: 1}), (:M {p: 2}), (:N)",
      "MATCH (m:M) SET m.p = 20",
      "MATCH (m:M) SET m:Extra",
      "MATCH (m:Extra) REMOVE m:Extra",
      "CREATE (:S1), (:S2)",
      "MATCH (a:S1), (b:S2) CREATE (a)-[:T {w: 1}]->(b)",
      "MATCH ()-[r:T]->() SET r.w = 5",
      "MATCH ()-[r:T]->() DELETE r",
      "MATCH (n:N) DETACH DELETE n",
  };
  constexpr ActionTime kTimes[] = {ActionTime::kBefore, ActionTime::kAfter,
                                   ActionTime::kOnCommit,
                                   ActionTime::kDetached};
  size_t matched = 0;
  for (const std::string& s : statements) {
    GraphDelta delta = RunAndCapture(db, s);
    for (ActionTime time : kTimes) {
      const std::vector<std::string> all =
          DescribeAll(db.engine().MatchAll(time, delta));
      std::vector<std::string> per_trigger;
      for (const std::shared_ptr<const TriggerDef>& def :
           db.catalog().ByTime(time)) {
        for (const std::string& d :
             DescribeAll(db.engine().MatchActivations(*def, delta))) {
          per_trigger.push_back(d);
        }
      }
      EXPECT_EQ(all, per_trigger) << "statement: " << s;
      matched += all.size();
    }
  }
  EXPECT_GT(matched, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    OrderingsAndSemantics, MatchAllEqualsPerTrigger,
    ::testing::Combine(::testing::Values(0, 1), ::testing::Values(0, 1)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      return std::string(std::get<0>(info.param) == 0 ? "CreationTime"
                                                      : "NameOrder") +
             (std::get<1>(info.param) == 0 ? "MonitoredLabel"
                                           : "TargetSetChange");
    });

// ---------------------------------------------------------------------------
// Statement-level snapshot semantics (locked in by this PR): all triggers
// activated by the same statement are matched up front against one
// consistent snapshot of the statement's events (Section 4.2), so an
// earlier trigger's action cannot un-match a sibling trigger of the same
// statement. (Previously matching was lazy, per trigger, against the
// mutated store.)

TEST(SnapshotSemantics, EarlierTriggerCannotUnmatchSibling) {
  Database db;
  // T1 runs first (creation order) and strips :B from the new node; T2
  // monitors CREATE on 'B' and must still fire on the snapshot.
  ASSERT_TRUE(db.Execute("CREATE TRIGGER T1 AFTER CREATE ON 'A' "
                         "FOR EACH NODE BEGIN REMOVE NEW:B END")
                  .ok());
  ASSERT_TRUE(db.Execute("CREATE TRIGGER T2 AFTER CREATE ON 'B' "
                         "FOR EACH NODE BEGIN CREATE (:SawB) END")
                  .ok());
  ASSERT_TRUE(db.Execute("CREATE (:A:B)").ok());
  EXPECT_EQ(Count(db, "MATCH (s:SawB) RETURN COUNT(*) AS c"), 1);
  EXPECT_EQ(db.stats().per_trigger["T1"].fired, 1u);
  EXPECT_EQ(db.stats().per_trigger["T2"].fired, 1u);
}

// ---------------------------------------------------------------------------
// DispatchIndex maintenance: install / drop / enable / disable, and late
// symbol interning.

TEST(DispatchIndexMaintenance, LateInternedLabelResolvesAndFires) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TRIGGER T AFTER CREATE ON 'NeverSeen' "
                         "FOR EACH NODE BEGIN CREATE (:Hit) END")
                  .ok());
  // The label is not interned at install time: the trigger sits pending.
  EXPECT_EQ(db.catalog().dispatch().pending_count(), 1u);
  EXPECT_EQ(db.catalog().dispatch().resolved_count(), 0u);

  // First use of the label interns it mid-statement; dispatch must pick it
  // up within the same statement's trigger round.
  ASSERT_TRUE(db.Execute("CREATE (:NeverSeen)").ok());
  EXPECT_EQ(Count(db, "MATCH (h:Hit) RETURN COUNT(*) AS c"), 1);
  EXPECT_EQ(db.catalog().dispatch().pending_count(), 0u);
  EXPECT_EQ(db.catalog().dispatch().resolved_count(), 1u);
}

TEST(DispatchIndexMaintenance, DisableEnableDropMaintainIndex) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE (:A)").ok());  // intern 'A'
  ASSERT_TRUE(db.Execute("CREATE TRIGGER T AFTER CREATE ON 'A' "
                         "FOR EACH NODE BEGIN CREATE (:Hit) END")
                  .ok());
  ASSERT_TRUE(db.Execute("CREATE (:A)").ok());
  EXPECT_EQ(Count(db, "MATCH (h:Hit) RETURN COUNT(*) AS c"), 1);

  ASSERT_TRUE(db.Execute("ALTER TRIGGER T DISABLE").ok());
  EXPECT_EQ(db.catalog().dispatch().resolved_count(), 0u);
  ASSERT_TRUE(db.Execute("CREATE (:A)").ok());
  EXPECT_EQ(Count(db, "MATCH (h:Hit) RETURN COUNT(*) AS c"), 1);

  ASSERT_TRUE(db.Execute("ALTER TRIGGER T ENABLE").ok());
  ASSERT_TRUE(db.Execute("CREATE (:A)").ok());
  EXPECT_EQ(Count(db, "MATCH (h:Hit) RETURN COUNT(*) AS c"), 2);

  ASSERT_TRUE(db.Execute("DROP TRIGGER T").ok());
  EXPECT_EQ(db.catalog().dispatch().resolved_count(), 0u);
  EXPECT_EQ(db.catalog().dispatch().pending_count(), 0u);
  ASSERT_TRUE(db.Execute("CREATE (:A)").ok());
  EXPECT_EQ(Count(db, "MATCH (h:Hit) RETURN COUNT(*) AS c"), 2);
}

// ---------------------------------------------------------------------------
// Regression: relationship events on rels deleted later in the same
// transaction. The type lookup must fall back to the delta's deleted-rel
// image (mirror of the node path's LabelsOf fallback) when the store has no
// record — e.g. a committed delta examined against a store that never
// materialized the rel, as in the translators' equivalence checks.

class RelDeltaLifetime : public ::testing::Test {
 protected:
  void SetUp() override {
    type_ = db_.store().InternRelType("T");
    key_ = db_.store().InternPropKey("w");
  }

  /// A delta whose relationship exists only as a deleted image: the rel id
  /// is beyond every record the store ever allocated.
  GraphDelta DeletedOnlyDelta() {
    GraphDelta delta;
    DeletedRelImage img;
    img.id = RelId{977};
    img.type = type_;
    delta.deleted_rels.push_back(img);
    return delta;
  }

  Database db_;
  RelTypeId type_ = 0;
  PropKeyId key_ = 0;
};

TEST_F(RelDeltaLifetime, CreateEventOnRelDeletedInSameDelta) {
  TriggerDef def = ParseDef(
      "CREATE TRIGGER R AFTER CREATE ON 'T' FOR EACH RELATIONSHIP "
      "BEGIN CREATE (:X) END");
  GraphDelta delta = DeletedOnlyDelta();
  delta.created_rels.push_back(RelId{977});
  auto acts = db_.engine().MatchActivations(def, delta);
  ASSERT_EQ(acts.size(), 1u);
  EXPECT_NE(acts[0].env.FindSingle("NEW"), nullptr);
}

TEST_F(RelDeltaLifetime, SetEventOnRelDeletedInSameDelta) {
  TriggerDef def = ParseDef(
      "CREATE TRIGGER R AFTER SET ON 'T'.'w' FOR EACH RELATIONSHIP "
      "BEGIN CREATE (:X) END");
  GraphDelta delta = DeletedOnlyDelta();
  delta.assigned_rel_props.push_back(
      RelPropChange{RelId{977}, key_, Value::Int(1), Value::Int(2)});
  auto acts = db_.engine().MatchActivations(def, delta);
  ASSERT_EQ(acts.size(), 1u);
  // OLD overlay carries the pre-statement value.
  ASSERT_EQ(acts[0].env.old_rel_props.size(), 1u);
}

TEST_F(RelDeltaLifetime, RemoveEventOnRelDeletedInSameDelta) {
  TriggerDef def = ParseDef(
      "CREATE TRIGGER R AFTER REMOVE ON 'T'.'w' FOR EACH RELATIONSHIP "
      "BEGIN CREATE (:X) END");
  GraphDelta delta = DeletedOnlyDelta();
  delta.removed_rel_props.push_back(
      RelPropChange{RelId{977}, key_, Value::Int(1), Value::Null()});
  auto acts = db_.engine().MatchActivations(def, delta);
  ASSERT_EQ(acts.size(), 1u);
}

TEST_F(RelDeltaLifetime, MatchAllUsesSameFallback) {
  ASSERT_TRUE(db_.catalog()
                  .Install(ParseDef(
                      "CREATE TRIGGER R DETACHED SET ON 'T'.'w' FOR EACH "
                      "RELATIONSHIP BEGIN CREATE (:X) END"))
                  .ok());
  GraphDelta delta = DeletedOnlyDelta();
  delta.assigned_rel_props.push_back(
      RelPropChange{RelId{977}, key_, Value::Int(1), Value::Int(2)});
  const std::vector<Activation> all =
      db_.engine().MatchAll(ActionTime::kDetached, delta);
  ASSERT_EQ(all.size(), 1u);
  const std::vector<Activation> one =
      db_.engine().MatchActivations(*db_.catalog().Find("R"), delta);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(Describe(all[0]), Describe(one[0]));
}

TEST_F(RelDeltaLifetime, OnCommitSetThenDeleteStillFires) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE (:A), (:B)").ok());
  ASSERT_TRUE(
      db.Execute("MATCH (a:A), (b:B) CREATE (a)-[:T {w: 1}]->(b)").ok());
  ASSERT_TRUE(db.Execute("CREATE TRIGGER OC ONCOMMIT SET ON 'T'.'w' "
                         "FOR EACH RELATIONSHIP BEGIN CREATE (:OcLog) END")
                  .ok());
  auto r = db.ExecuteTx({"MATCH ()-[r:T]->() SET r.w = 2",
                         "MATCH ()-[r:T]->() DELETE r"});
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(Count(db, "MATCH (l:OcLog) RETURN COUNT(*) AS c"), 1);
}

TEST_F(RelDeltaLifetime, DetachedSetThenDeleteStillFires) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE (:A), (:B)").ok());
  ASSERT_TRUE(
      db.Execute("MATCH (a:A), (b:B) CREATE (a)-[:T {w: 1}]->(b)").ok());
  ASSERT_TRUE(db.Execute("CREATE TRIGGER DT DETACHED SET ON 'T'.'w' "
                         "FOR EACH RELATIONSHIP BEGIN CREATE (:DtLog) END")
                  .ok());
  auto r = db.ExecuteTx({"MATCH ()-[r:T]->() SET r.w = 2",
                         "MATCH ()-[r:T]->() DELETE r"});
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(Count(db, "MATCH (l:DtLog) RETURN COUNT(*) AS c"), 1);
}

// ---------------------------------------------------------------------------
// Regression: DROP TRIGGER while DETACHED activations are queued. The
// queued activation shares ownership of the definition with the catalog,
// so the drop (here issued from an earlier detached trigger's own
// transaction, via a registered procedure) cannot dangle it.

TEST(DropWhileQueued, QueuedDetachedActivationSurvivesDrop) {
  Database db;
  db.procedures().Register(
      "test.dropb", {},
      [&db](cypher::EvalContext&, const std::vector<Value>&,
            const cypher::Row&) -> Result<std::vector<cypher::Row>> {
        PGT_RETURN_IF_ERROR(db.catalog().Drop("B"));
        return std::vector<cypher::Row>{};
      });
  // A runs first (creation order) and drops B while B's activation is
  // already sitting in the detached queue.
  ASSERT_TRUE(db.Execute("CREATE TRIGGER A DETACHED CREATE ON 'X' "
                         "FOR EACH NODE BEGIN CALL test.dropb() END")
                  .ok());
  ASSERT_TRUE(db.Execute("CREATE TRIGGER B DETACHED CREATE ON 'X' "
                         "FOR EACH NODE BEGIN CREATE (:FromB) END")
                  .ok());
  ASSERT_TRUE(db.Execute("CREATE (:X)").ok());

  EXPECT_EQ(db.catalog().Find("B"), nullptr);  // the drop took effect
  // B's queued activation still ran on its owned definition.
  EXPECT_EQ(Count(db, "MATCH (n:FromB) RETURN COUNT(*) AS c"), 1);
  EXPECT_EQ(db.stats().per_trigger["B"].fired, 1u);

  // B stays dropped: the next commit only activates A.
  ASSERT_TRUE(db.Execute("CREATE (:X)").ok());
  EXPECT_EQ(Count(db, "MATCH (n:FromB) RETURN COUNT(*) AS c"), 1);
}

// The same race under the ASYNC pool (docs/async.md): the drop is issued
// from trigger A's autonomous transaction while it runs on a pool thread
// holding the writer interlock, and B's activation is queued behind it.
// Shared ownership of the definition must hold off-writer too.
TEST(DropWhileQueued, PoolModeQueuedActivationSurvivesDrop) {
  EngineOptions opts;
  opts.async_pool_size = 2;
  opts.async_queue_capacity = 0;  // kBlock: drain at every boundary
  opts.async_backpressure = AsyncBackpressure::kBlock;
  Database db(opts);
  db.procedures().Register(
      "test.dropb", {},
      [&db](cypher::EvalContext&, const std::vector<Value>&,
            const cypher::Row&) -> Result<std::vector<cypher::Row>> {
        PGT_RETURN_IF_ERROR(db.catalog().Drop("B"));
        return std::vector<cypher::Row>{};
      });
  ASSERT_TRUE(db.Execute("CREATE TRIGGER A DETACHED CREATE ON 'X' "
                         "FOR EACH NODE BEGIN CALL test.dropb() END")
                  .ok());
  ASSERT_TRUE(db.Execute("CREATE TRIGGER B DETACHED CREATE ON 'X' "
                         "FOR EACH NODE BEGIN CREATE (:FromB) END")
                  .ok());
  ASSERT_TRUE(db.Execute("CREATE (:X)").ok());

  EXPECT_EQ(db.catalog().Find("B"), nullptr);
  EXPECT_EQ(Count(db, "MATCH (n:FromB) RETURN COUNT(*) AS c"), 1);
  EXPECT_EQ(db.stats().per_trigger["B"].fired, 1u);

  ASSERT_TRUE(db.Execute("CREATE (:X)").ok());
  EXPECT_EQ(Count(db, "MATCH (n:FromB) RETURN COUNT(*) AS c"), 1);
}

// One commit queues several DETACHED activations; they share one source
// delta, and each still reads OLD state through the re-injected ghosts.
TEST(DetachedQueue, SharedSourceDeltaKeepsOldReadable) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TRIGGER D1 DETACHED DELETE ON 'N' "
                         "FOR EACH NODE BEGIN CREATE (:G1 {v: OLD.q}) END")
                  .ok());
  ASSERT_TRUE(db.Execute("CREATE TRIGGER D2 DETACHED DELETE ON 'N' "
                         "FOR EACH NODE BEGIN CREATE (:G2 {v: OLD.q}) END")
                  .ok());
  ASSERT_TRUE(db.Execute("CREATE (:N {q: 7}), (:N {q: 8})").ok());
  ASSERT_TRUE(db.Execute("MATCH (n:N) DELETE n").ok());
  EXPECT_EQ(Count(db, "MATCH (g:G1) RETURN COUNT(*) AS c"), 2);
  EXPECT_EQ(Count(db, "MATCH (g:G2) RETURN COUNT(*) AS c"), 2);
  EXPECT_EQ(Count(db, "MATCH (g:G1) WHERE g.v = 7 RETURN COUNT(*) AS c"), 1);
  EXPECT_EQ(Count(db, "MATCH (g:G2) WHERE g.v = 8 RETURN COUNT(*) AS c"), 1);
}

}  // namespace
}  // namespace pgt
