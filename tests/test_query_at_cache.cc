// Snapshot-read plan cache (Database::QueryAt): reader threads share
// compiled programs keyed by statement text and validated against the
// snapshot's index image. Covers reuse, recompilation after index DDL,
// snapshots that predate or outlive an index, and a concurrent run where
// readers go through the shared cache while the writer does index DDL and
// commits (run under TSan in CI).

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/trigger/database.h"

namespace pgt {
namespace {

class QueryAtCacheTest : public ::testing::Test {
 protected:
  void Exec(const std::string& q) {
    auto r = db_.Execute(q);
    ASSERT_TRUE(r.ok()) << q << " -> " << r.status();
  }
  std::shared_ptr<const GraphSnapshot> Snap() {
    auto s = db_.OpenSnapshot();
    EXPECT_TRUE(s.ok()) << s.status();
    return s.ok() ? *s : nullptr;
  }
  int64_t At(const GraphSnapshot& snap, const std::string& q) {
    auto r = db_.QueryAt(snap, q);
    EXPECT_TRUE(r.ok()) << q << " -> " << r.status();
    if (!r.ok() || r->rows.empty()) return -1;
    return r->rows[0][0].int_value();
  }

  Database db_;
};

constexpr char kPoint[] = "MATCH (a:Acct {id: 7}) RETURN a.bal AS bal";

TEST_F(QueryAtCacheTest, RepeatedTextCompilesOnce) {
  Exec("UNWIND RANGE(1, 20) AS i CREATE (:Acct {id: i, bal: i * 10})");
  auto snap = Snap();
  const uint64_t misses = db_.snapshot_plan_cache().misses();
  for (int i = 0; i < 5; ++i) EXPECT_EQ(At(*snap, kPoint), 70);
  EXPECT_EQ(db_.snapshot_plan_cache().misses(), misses + 1);
  EXPECT_GE(db_.snapshot_plan_cache().hits(), 4u);
  // Commits do not invalidate: a later snapshot shares the index image.
  Exec("MATCH (a:Acct {id: 7}) SET a.bal = 71");
  auto later = Snap();
  EXPECT_EQ(At(*later, kPoint), 71);
  EXPECT_EQ(At(*snap, kPoint), 70);
  EXPECT_EQ(db_.snapshot_plan_cache().misses(), misses + 1);
  // The writer's ad-hoc cache is a separate instance.
  EXPECT_EQ(db_.plan_cache().size(), 2u);
}

TEST_F(QueryAtCacheTest, IndexDdlRecompilesAndOldSnapshotsStayCorrect) {
  Exec("UNWIND RANGE(1, 20) AS i CREATE (:Acct {id: i, bal: i * 10})");
  auto before = Snap();
  EXPECT_EQ(At(*before, kPoint), 70);

  Exec("CREATE UNIQUE INDEX ON :Acct(id)");
  auto indexed = Snap();
  EXPECT_EQ(At(*indexed, kPoint), 70);  // new image: entry recompiled
  // The snapshot that predates the index keeps working (and recompiles
  // for its own image).
  EXPECT_EQ(At(*before, kPoint), 70);

  Exec("DROP INDEX ON :Acct(id)");
  auto dropped = Snap();
  EXPECT_EQ(At(*dropped, kPoint), 70);
  // A snapshot pinned while the index existed still probes its postings.
  EXPECT_EQ(At(*indexed, kPoint), 70);
}

// Snapshot reads run on the reader thread's own frame pool; SKIP past
// every row must still drop them all (regression: an executor without a
// pool once kept the rows).
TEST_F(QueryAtCacheTest, SkipPastEveryRowReturnsNothing) {
  Exec("UNWIND RANGE(1, 3) AS i CREATE (:Acct {id: i, bal: i})");
  auto snap = Snap();
  for (const char* q : {"MATCH (a:Acct) RETURN a.id AS id SKIP 3",
                        "MATCH (a:Acct) RETURN a.id AS id SKIP 5 LIMIT 2",
                        "MATCH (a:Acct) WITH a SKIP 3 RETURN count(a) AS n"}) {
    auto live = db_.Execute(q);
    auto at = db_.QueryAt(*snap, q);
    ASSERT_TRUE(live.ok() && at.ok()) << q;
    EXPECT_EQ(at->ToTable(), live->ToTable()) << q;
  }
  auto at = db_.QueryAt(*snap, "MATCH (a:Acct) RETURN a.id AS id SKIP 3");
  ASSERT_TRUE(at.ok());
  EXPECT_TRUE(at->rows.empty());
}

TEST_F(QueryAtCacheTest, RejectedStatementsStayRejected) {
  auto snap = Snap();
  for (int i = 0; i < 2; ++i) {
    auto r = db_.QueryAt(*snap, "CREATE (:X)");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
  EXPECT_FALSE(db_.QueryAt(*snap, "MATCH (").ok());  // parse error
}

// Readers run QueryAt through the shared cache while the writer creates
// and drops an index and commits. Every reader checks an invariant that
// holds at every committed state: the accounts' balances sum to a
// constant, and the point read agrees with its snapshot.
TEST_F(QueryAtCacheTest, ConcurrentReadersWhileWriterDoesIndexDdl) {
  constexpr int kAccounts = 40;
  constexpr int kReaders = 4;
  Exec("UNWIND RANGE(1, " + std::to_string(kAccounts) +
       ") AS i CREATE (:Acct {id: i, bal: 100})");
  ASSERT_NE(Snap(), nullptr);  // arm the substrate before readers start

  std::atomic<bool> done{false};
  std::atomic<int> errors{0};
  std::atomic<int> breaks{0};
  std::atomic<long> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      for (long n = 0; !done.load(std::memory_order_acquire) || n < 20; ++n) {
        auto snap = db_.OpenSnapshot();
        if (!snap.ok()) {
          ++errors;
          continue;
        }
        auto sum = db_.QueryAt(**snap,
                               "MATCH (a:Acct) RETURN sum(a.bal) AS s, "
                               "count(a) AS c");
        const int id = 1 + static_cast<int>((n + t) % kAccounts);
        auto one = db_.QueryAt(
            **snap, "MATCH (a:Acct) WHERE a.id = $id RETURN a.id AS id",
            {{"id", Value::Int(id)}});
        if (!sum.ok() || !one.ok()) {
          ++errors;
          continue;
        }
        if (sum->rows[0][0].int_value() != 100 * kAccounts ||
            sum->rows[0][1].int_value() != kAccounts) {
          ++breaks;
        }
        if (one->rows.size() != 1 || one->rows[0][0].int_value() != id) {
          ++breaks;
        }
        ++reads;
      }
    });
  }

  // Writer: move balance between accounts (one commit keeps the sum), and
  // create / drop an index every few commits.
  for (int i = 0; i < 60; ++i) {
    const int from = 1 + i % kAccounts;
    const int to = 1 + (i * 7 + 3) % kAccounts;
    if (from != to) {
      Exec("MATCH (a:Acct {id: " + std::to_string(from) +
           "}), (b:Acct {id: " + std::to_string(to) +
           "}) SET a.bal = a.bal - 5, b.bal = b.bal + 5");
    }
    if (i % 15 == 5) Exec("CREATE UNIQUE INDEX ON :Acct(id)");
    if (i % 15 == 12) Exec("DROP INDEX ON :Acct(id)");
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(breaks.load(), 0);
  EXPECT_GT(reads.load(), 0);
}

}  // namespace
}  // namespace pgt
