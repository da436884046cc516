// Incremental WHEN-maintenance suite (src/ivm, docs/ivm.md). The golden
// corpus tests/corpus/ivm/ pins query results, firing order, per-trigger
// statistics and the final graph for the IVM trigger corpus, a seeded
// 400-statement CRUD + DDL stream, a rolled-back transaction and a capped
// state budget; IvmManager::VerifyAgainstStore recomputes every maintained
// set from a full scan after each command. Targeted tests below check that
// the subsystem does the work (states maintained and serving, fallback and
// degraded modes with reasons) and the lifecycle transitions (quarantine,
// drop).
//
// The corpus runs with budgets off: IVM-served firings skip the WHEN
// pipeline's per-row budget ticks, a documented divergence (docs/ivm.md).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/ivm/ivm_manager.h"
#include "src/trigger/database.h"
#include "tests/golden_transcript.h"

namespace pgt {
namespace {

/// Runs golden file `name` of tests/corpus/ivm into `db`, checking after
/// every command that the maintained state equals a full recomputation
/// and that a disabled trigger holds no state.
void RunIvmGolden(const std::string& name, std::unique_ptr<Database>* db) {
  Result<golden::FileRun> run = golden::RunCorpusFile(
      "ivm", name, db, [](Database& d, const std::string& cmd) {
        Status oracle = d.ivm().VerifyAgainstStore();
        EXPECT_TRUE(oracle.ok()) << "after: " << cmd << " -> " << oracle;
        const std::string kAlter = "ALTER TRIGGER ";
        const std::string kDisable = " DISABLE";
        if (cmd.rfind(kAlter, 0) == 0 && cmd.size() > kDisable.size() &&
            cmd.compare(cmd.size() - kDisable.size(), kDisable.size(),
                        kDisable) == 0) {
          const std::string trigger = cmd.substr(
              kAlter.size(), cmd.size() - kAlter.size() - kDisable.size());
          EXPECT_EQ(d.ivm().Find(trigger), nullptr) << cmd;
        }
      });
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(run->actual, run->expected) << name;
}

class IvmGolden : public ::testing::TestWithParam<std::string> {};

TEST_P(IvmGolden, TranscriptMatches) {
  std::unique_ptr<Database> db;
  RunIvmGolden(GetParam(), &db);
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, IvmGolden, ::testing::ValuesIn(golden::CorpusNames("ivm")),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

TEST(IvmGoldenCorpus, HasEveryScenario) {
  EXPECT_EQ(golden::CorpusNames("ivm"),
            (std::vector<std::string>{"corpus", "label_moves",
                                      "random_crud_ddl", "rollback",
                                      "state_cap"}));
}

// The corpus scenario is served from maintained state: supported shapes
// reach kMaintained and serve firings; unsupported shapes are in permanent
// fallback with a reason.
TEST(IvmState, CorpusServesFromMaintainedState) {
  std::unique_ptr<Database> db;
  RunIvmGolden("corpus", &db);
  ASSERT_NE(db, nullptr);
  uint64_t total_served = 0;
  size_t maintained = 0;
  for (const ivm::TriggerIvmState* st : db->ivm().States()) {
    if (st->mode() == ivm::IvmMode::kMaintained) ++maintained;
    total_served += st->served();
  }
  EXPECT_GE(maintained, 4u);
  EXPECT_GT(total_served, 0u);
  const ivm::TriggerIvmState* chain = db->ivm().Find("Tchain");
  ASSERT_NE(chain, nullptr);
  EXPECT_EQ(chain->mode(), ivm::IvmMode::kFallback);
  EXPECT_FALSE(chain->reason().empty());
}

// The seeded stream keeps states maintained through epoch churn.
TEST(IvmState, RandomStreamKeepsStatesMaintained) {
  std::unique_ptr<Database> db;
  RunIvmGolden("random_crud_ddl", &db);
  ASSERT_NE(db, nullptr);
  auto stats = db->Execute(
      "CALL pgt.ivmStats() YIELD maintained, served RETURN maintained, "
      "served");
  ASSERT_TRUE(stats.ok()) << stats.status();
  ASSERT_EQ(stats->rows.size(), 1u);
  EXPECT_GT(stats->rows[0][0].int_value(), 0);  // maintained states
  EXPECT_GT(stats->rows[0][1].int_value(), 0);  // served firings
}

// The capped scenario degrades at least one state to re-matching, and a
// degraded state drops its containers.
TEST(IvmState, StateCapDegradesInsteadOfGrowing) {
  std::unique_ptr<Database> db;
  RunIvmGolden("state_cap", &db);
  ASSERT_NE(db, nullptr);
  EXPECT_GT(db->ivm().counters().degradations, 0u);
  bool saw_degraded = false;
  for (const ivm::TriggerIvmState* st : db->ivm().States()) {
    if (st->mode() == ivm::IvmMode::kDegraded) {
      saw_degraded = true;
      EXPECT_EQ(st->tuples(), 0u);  // containers dropped, not kept
      EXPECT_FALSE(st->reason().empty());
    }
  }
  EXPECT_TRUE(saw_degraded);
}

TEST(IvmLifecycle, QuarantineDropsStateAndStopsMaintenance) {
  EngineOptions opts;
  opts.quarantine_threshold = 2;
  Database db(opts);

  // IVM-shaped WHEN, action that always fails at runtime.
  auto r = db.Execute(
      "CREATE TRIGGER Flaky AFTER CREATE ON 'Probe' FOR EACH NODE "
      "WHEN MATCH (p:Person) "
      "BEGIN CREATE (:Boom {v: 1 / 0}) END");
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_TRUE(db.Execute("CREATE (:Person {pid: 1})").ok());

  // Each failing firing fails its statement; the breaker counts anyway.
  for (int i = 0; i < 2; ++i) {
    auto probe = db.Execute("CREATE (:Probe)");
    EXPECT_FALSE(probe.ok());
  }
  const TriggerDef* def = db.catalog().Find("Flaky");
  ASSERT_NE(def, nullptr);
  EXPECT_FALSE(def->enabled);  // statement-time quarantine disables

  // Quarantine dropped the maintained state, and further mutations must
  // not maintain it (no stale watchers left behind).
  EXPECT_EQ(db.ivm().Find("Flaky"), nullptr);
  const uint64_t ops_before = db.ivm().counters().maintain_ops;
  ASSERT_TRUE(db.Execute("CREATE (:Person {pid: 2})").ok());
  EXPECT_EQ(db.ivm().counters().maintain_ops, ops_before);

  // Manual re-enable: the state rebuilds lazily at the next firing.
  ASSERT_TRUE(db.Execute("ALTER TRIGGER Flaky ENABLE").ok());
  EXPECT_EQ(db.ivm().Find("Flaky"), nullptr);
  EXPECT_FALSE(db.Execute("CREATE (:Probe)").ok());  // fires (and fails)
  const ivm::TriggerIvmState* st = db.ivm().Find("Flaky");
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->mode(), ivm::IvmMode::kMaintained);
  EXPECT_EQ(st->tuples(), 2u);
}

TEST(IvmLifecycle, DropTriggerUnregistersState) {
  Database db;
  // The trigger corpus of the golden scenarios.
  const std::string corpus =
      golden::ReadFile(golden::CorpusDir("ivm") / "corpus.golden");
  for (const std::string& line : golden::ScriptLines(corpus)) {
    if (line.rfind("> CREATE TRIGGER ", 0) != 0) continue;
    auto r = db.Execute(line.substr(2));
    ASSERT_TRUE(r.ok()) << line << " -> " << r.status();
  }
  ASSERT_TRUE(db.Execute("CREATE (:Person {pid: 1, score: 60})").ok());
  ASSERT_TRUE(db.Execute("CREATE (:Probe)").ok());
  ASSERT_NE(db.ivm().Find("TlabelOnly"), nullptr);
  ASSERT_TRUE(db.Execute("DROP TRIGGER TlabelOnly").ok());
  EXPECT_EQ(db.ivm().Find("TlabelOnly"), nullptr);
  Status oracle = db.ivm().VerifyAgainstStore();
  EXPECT_TRUE(oracle.ok()) << oracle;
}

}  // namespace
}  // namespace pgt
