// The end-to-end benchmark of the trigger engine. Runs one workload
// (workloads.cc) against the public Database API and prints its metrics;
// the last line of standard output is one JSON object. run.py builds this
// program and is the command to use; README.md documents the workloads,
// the metrics and the correctness gate.
//
//   pgt_perfbench --workload covid_stream --seed 1 --seconds 10 --trace 0
//                 --work-dir DIR [--spans FILE]
//
// --trace 0 prints the end-to-end metrics of an untraced run. --trace 1
// runs the workload untraced, then replays the same writes on a fresh
// database, every other one with a span around every call into a layer,
// and prints the per-layer metrics. A run's writes are fixed by the seed and --seconds
// (Workload::write_rate), so two runs with one seed end in the same
// state and print the same digest.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/digest.h"
#include "perfbench/stats.h"
#include "perfbench/trace.h"
#include "perfbench/wal_probe.h"
#include "perfbench/workload.h"
#include "src/schema/validator.h"
#include "src/trigger/database.h"

#ifndef PGT_BENCH_BUILD_TYPE
#define PGT_BENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using pgt::Database;
using pgt::Status;

// A run first issues this share of its writes again as an untimed warm-up.
constexpr double kWarmupShare = 0.1;
constexpr double kTailQ = 0.99;
// A run times at least this many writes, so that its p99 has kMinTail
// samples beyond it whatever --seconds is.
constexpr uint64_t kMinTimedWrites = 100 * kMinTail;
// Reads run after the writes, on the final state, for this share of
// --seconds; the writes take the rest.
constexpr double kReadShare = 0.35;
// Traced runs time a direct ValidateGraph after every this many writes.
constexpr uint64_t kSchemaSampleEvery = 16;
// Close-and-reopen cycles: at least kMinReopens, more (up to kMaxReopens)
// until kReopenBudgetS seconds went into reopening; reopen_s is the median.
constexpr int kMinReopens = 5;
constexpr int kMaxReopens = 40;
constexpr double kReopenBudgetS = 0.5;
// Untraced runs set up at least kMinSetups times, and more (up to
// kMaxSetups) until kSetupBudgetS seconds went into set-up; setup_s is the
// median.
constexpr int kMinSetups = 2;
constexpr int kMaxSetups = 15;
constexpr double kSetupBudgetS = 0.5;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
  std::string spans_path;
};

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

/// Layer counters read from the engine's own surfaces, taken at the
/// start and end of a measured write window.
struct Counters {
  uint64_t considered = 0, fired = 0, action_rows = 0, detached_runs = 0;
  uint64_t cascade_depth_max = 0;
  uint64_t ivm_served = 0, ivm_maintain = 0, ivm_tuples = 0;
  int64_t ivm_bytes = 0;
  uint64_t cache_hits = 0, cache_misses = 0, recompiles = 0;
  WalCounters log, snap;
  uint64_t published = 0;

  static Counters Take(Database& db, const WalProbe& probe) {
    Counters c;
    for (const auto& [name, st] : db.stats().per_trigger) {
      c.considered += st.considered;
      c.fired += st.fired;
      c.action_rows += st.action_rows;
    }
    c.detached_runs = db.stats().detached_runs;
    c.cascade_depth_max = db.stats().cascade_depth_max;
    for (const auto* s : db.ivm().States()) {
      c.ivm_served += s->served();
      c.ivm_tuples += s->tuples();
      c.ivm_bytes += s->bytes();
    }
    c.ivm_maintain = db.ivm().counters().maintain_ops;
    c.cache_hits = db.plan_cache().hits();
    c.cache_misses = db.plan_cache().misses();
    c.recompiles = db.adhoc_plan_recompiles();
    c.log = probe.counters(WalFileKind::kLog);
    c.snap = probe.counters(WalFileKind::kSnapshot);
    c.published = probe.snapshots_published();
    return c;
  }
};

struct WritePhase {
  std::vector<double> latency_us;  // timed writes (after warm-up)
  double window_s = 0;             // wall time of the timed writes
  // Traced runs: the timed writes split into traced and plain ones.
  std::vector<double> traced_us, plain_us;
  std::map<std::string, std::vector<double>> by_kind;  // latency per kind
  uint64_t ops = 0;                // every write, warm-up included
  uint64_t failed = 0;
  Counters begin, end;
  std::vector<double> validate_us;
  std::string first_error;
};

struct ReadPhase {
  std::vector<double> latency_us;
  double window_s = 0;
  uint64_t ops = 0;
  uint64_t failed = 0;
  std::string first_error;
  std::string violation;
};

/// A populated database and the workload generator that fills it.
struct Instance {
  std::unique_ptr<Workload> workload;
  std::unique_ptr<Database> db;
  std::string dir;
  SetupTimes times;
};

std::string CheckRead(const ReadOp& op,
                      const std::vector<pgt::cypher::QueryResult>& res) {
  auto single_int = [&](size_t i, int64_t* out) {
    if (res[i].rows.size() != 1 || res[i].rows[0].empty() ||
        !res[i].rows[0][0].is_int()) {
      return false;
    }
    *out = res[i].rows[0][0].int_value();
    return true;
  };
  switch (op.check) {
    case ReadOp::kOneRow:
      if (res[0].rows.size() != 1) {
        return op.statements[0] + ": " + std::to_string(res[0].rows.size()) +
               " rows, expected 1";
      }
      return "";
    case ReadOp::kIcuSumsToTotal: {
      int64_t sum = 0, total = 0;
      for (const auto& row : res[0].rows) sum += row[1].int_value();
      if (!single_int(1, &total) || sum != total) {
        return "per-hospital ICU counts sum to " + std::to_string(sum) +
               ", total is " + std::to_string(total);
      }
      return "";
    }
    case ReadOp::kAlertsAudited: {
      int64_t alerts = 0, audits = 0;
      if (!single_int(0, &alerts) || !single_int(1, &audits) ||
          alerts != audits) {
        return "FraudAlert count " + std::to_string(alerts) +
               " != AuditEntry count " + std::to_string(audits);
      }
      return "";
    }
    case ReadOp::kAny:
      return "";
  }
  return "";
}

class Bench {
 public:
  explicit Bench(Options o) : opt_(std::move(o)) {}

  int Run() {
    std::printf("workload %s seed %" PRIu64 " seconds %g trace %d\n",
                opt_.workload.c_str(), opt_.seed, opt_.seconds,
                opt_.trace ? 1 : 0);
    std::printf("hardware_concurrency %u, build %s\n",
                std::thread::hardware_concurrency(), PGT_BENCH_BUILD_TYPE);
    if (opt_.trace) {
      RunTraced();
    } else {
      RunUntraced();
    }
    return Finish();
  }

 private:
  // --- Set-up -----------------------------------------------------------

  pgt::Result<std::unique_ptr<Database>> OpenDb(const Workload& w,
                                                const std::string& dir) {
    pgt::wal::WalOptions wal;
    wal.dir = dir;
    wal.vfs = &probe_;
    w.ConfigureWal(&wal);
    return Database::Open(std::move(wal));
  }

  /// Builds a database from nothing: opens an empty durable database,
  /// populates it, checkpoints it, and reopens it from the checkpoint, so
  /// the run starts like a fresh process: dataset loaded, empty log,
  /// snapshot substrate unarmed (the checkpoint armed it).
  pgt::Result<Instance> Setup(int index) {
    Instance in;
    in.workload = MakeWorkload(opt_.workload, opt_.seed);
    in.dir = opt_.work_dir + "/db" + std::to_string(index);
    std::filesystem::remove_all(in.dir);
    const int64_t t0 = NowNs();
    auto db = OpenDb(*in.workload, in.dir);
    if (!db.ok()) return db.status();
    Status st = in.workload->Populate(**db, &in.times);
    if (!st.ok()) return st;
    const int64_t t1 = NowNs();
    st = (*db)->CheckpointNow();
    if (st.ok()) st = (*db)->Close();
    if (!st.ok()) return st;
    db->reset();
    db = OpenDb(*in.workload, in.dir);
    if (!db.ok()) return db.status();
    in.times.persist_s = (NowNs() - t1) / 1e9;
    in.times.total_s = (NowNs() - t0) / 1e9;
    in.db = std::move(db).value();
    std::printf("setup %d: %.3f s (dataset %.3f, index %.3f, triggers %.3f, "
                "persist %.3f); %zu nodes, %zu relationships\n",
                index, in.times.total_s, in.times.dataset_s, in.times.index_s,
                in.times.triggers_s, in.times.persist_s,
                in.db->store().NodeCount(), in.db->store().RelCount());
    return in;
  }

  void Discard(Instance& in) {
    if (in.db != nullptr) (void)in.db->Close();
    in.db.reset();
    std::filesystem::remove_all(in.dir);
  }

  // --- Writes -----------------------------------------------------------

  /// One write call, untraced: exactly what an application calls.
  static Status PlainWrite(Database& db, const WriteOp& op) {
    if (op.tx || op.statements.size() > 1) {
      return db.ExecuteTx(op.statements, op.params).status();
    }
    return db.Execute(op.statements[0], op.params).status();
  }

  /// The same write through the steps Execute/ExecuteTx take, with a span
  /// around each: prepare (plan cache or parse and compile), begin, run
  /// (statement plus BEFORE/AFTER rounds and cascades), commit (ONCOMMIT,
  /// schema guard, physical commit, snapshot publish, WAL, DETACHED
  /// handoff).
  static Status TracedWrite(Database& db, const WriteOp& op,
                            SpanRecorder& rec, uint64_t req) {
    SpanScope root(rec, "write", req);
    std::lock_guard<std::mutex> lock(db.writer_interlock());
    std::vector<std::shared_ptr<pgt::cypher::plan::PreparedStatement>> prep;
    for (const std::string& text : op.statements) {
      SpanScope s(rec, "cypher.prepare", req);
      auto p = db.Prepare(text);
      if (!p.ok()) return p.status();
      prep.push_back(std::move(p).value());
    }
    std::unique_ptr<pgt::Transaction> tx;
    {
      SpanScope s(rec, "tx.begin", req);
      auto t = db.BeginTx();
      if (!t.ok()) return t.status();
      tx = std::move(t).value();
    }
    for (const auto& p : prep) {
      SpanScope s(rec, "tx.run", req);
      auto r = db.RunPreparedInTx(*tx, *p, op.params);
      if (!r.ok()) {
        db.RollbackAndRelease(std::move(tx));
        return r.status();
      }
    }
    SpanScope s(rec, "tx.commit", req);
    return db.CommitWithTriggers(std::move(tx));
  }

  /// Runs `warmup` untimed writes, then `timed` timed ones, each issued
  /// when the last returns. With a recorder, every other timed write is
  /// traced and the rest run plain, so traced and plain latencies come
  /// from the same stretch of the run.
  WritePhase RunWrites(Instance& in, uint64_t warmup, uint64_t timed,
                       SpanRecorder* rec) {
    Database& db = *in.db;
    Workload& w = *in.workload;
    WritePhase ph;
    int64_t start = NowNs();
    for (uint64_t i = 0; i < warmup + timed; ++i) {
      const bool measured = i >= warmup;
      if (i == warmup) {
        ph.begin = Counters::Take(db, probe_);
        start = NowNs();
      }
      const WriteOp op = w.NextWrite();
      const bool traced = measured && rec != nullptr && (i - warmup) % 2 == 0;
      if (traced) probe_.set_recorder(rec);
      const int64_t t0 = NowNs();
      const Status st = traced ? TracedWrite(db, op, *rec, i + 1)
                               : PlainWrite(db, op);
      const int64_t t1 = NowNs();
      if (traced) probe_.set_recorder(nullptr);
      ++ph.ops;
      if (!st.ok()) {
        ++ph.failed;
        if (ph.first_error.empty()) {
          ph.first_error = std::string(op.kind) + ": " + st.ToString();
        }
      }
      if (!measured) continue;
      const double us = (t1 - t0) / 1e3;
      ph.latency_us.push_back(us);
      ph.window_s = (t1 - start) / 1e9;
      ph.by_kind[op.kind].push_back(us);
      if (rec != nullptr) {
        (traced ? ph.traced_us : ph.plain_us).push_back(us);
        SampleSchema(db, &ph);
      }
    }
    ph.end = Counters::Take(db, probe_);
    if (timed == 0) ph.begin = ph.end;
    return ph;
  }

  /// Traced runs only: every kSchemaSampleEvery writes, validates the
  /// committed graph against the attached schema directly.
  void SampleSchema(Database& db, WritePhase* ph) {
    if (!db.attached_schema().has_value() ||
        ph->latency_us.size() % kSchemaSampleEvery != 0) {
      return;
    }
    const int64_t t0 = NowNs();
    const pgt::schema::ValidationReport report =
        pgt::schema::ValidateGraph(db.store(), *db.attached_schema());
    ph->validate_us.push_back((NowNs() - t0) / 1e3);
    if (!report.ok()) Fail("schema: committed state violates the schema");
  }

  /// Closed-loop reads of the final state for `seconds`; each read pins a
  /// fresh snapshot and runs its statements with QueryAt.
  ReadPhase RunReads(Instance& in, double seconds, SpanRecorder& rec) {
    Database& db = *in.db;
    pgt::Rng rng(opt_.seed * 1000003 + 1);
    ReadPhase ph;
    std::vector<pgt::cypher::QueryResult> results;
    const int64_t start = NowNs();
    const int64_t stop = start + static_cast<int64_t>(seconds * 1e9);
    uint64_t req = uint64_t{1} << 40;  // apart from the writes' requests
    for (int64_t now = start; now < stop;) {
      const ReadOp op = in.workload->NextRead(rng);
      results.clear();
      Status st;
      const int64_t t0 = NowNs();
      {
        SpanScope root(rec, "read", ++req);
        std::shared_ptr<const pgt::GraphSnapshot> snap;
        {
          SpanScope s(rec, "storage.snapshot_open", req);
          auto r = db.OpenSnapshot();
          if (r.ok()) snap = std::move(r).value();
          st = r.status();
        }
        for (size_t i = 0; st.ok() && i < op.statements.size(); ++i) {
          SpanScope s(rec, "cypher.query_at", req);
          auto r = db.QueryAt(*snap, op.statements[i], op.params);
          st = r.status();
          if (r.ok()) results.push_back(std::move(r).value());
        }
      }
      now = NowNs();
      ++ph.ops;
      ph.window_s = (now - start) / 1e9;
      if (!st.ok()) {
        ++ph.failed;
        if (ph.first_error.empty()) {
          ph.first_error = op.statements[0] + ": " + st.ToString();
        }
        continue;
      }
      ph.latency_us.push_back((now - t0) / 1e3);
      const std::string bad = CheckRead(op, results);
      if (!bad.empty() && ph.violation.empty()) ph.violation = bad;
    }
    return ph;
  }

  /// Opens and drops a snapshot; the first one arms the snapshot
  /// substrate. `arm_s` (if not null) gets its time.
  bool ArmSnapshots(Instance& in, double* arm_s) {
    const int64_t t0 = NowNs();
    auto snap = in.db->OpenSnapshot();
    if (arm_s != nullptr) *arm_s = (NowNs() - t0) / 1e9;
    if (!snap.ok()) {
      Fail("OpenSnapshot: " + snap.status().ToString());
      return false;
    }
    return true;
  }

  /// The writes, then (unless `reads` is null) reads of the final state.
  /// `arm_s` gets the time of the first OpenSnapshot, which arms the
  /// snapshot substrate.
  WritePhase RunWorkload(Instance& in, SpanRecorder* rec, ReadPhase* reads,
                         double* arm_s) {
    const double window = opt_.seconds * (1 - kReadShare);
    const auto timed = std::max<uint64_t>(
        kMinTimedWrites,
        static_cast<uint64_t>(std::llround(in.workload->write_rate() * window)));
    const auto warmup = static_cast<uint64_t>(std::llround(timed * kWarmupShare));
    // A checkpoint reads a snapshot, so a workload's first automatic
    // checkpoint arms the snapshot substrate, and from then on every
    // commit re-versions what it touched. Such a workload arms it before
    // its writes, so that all of its timed writes run in that one regime.
    pgt::wal::WalOptions wal;
    in.workload->ConfigureWal(&wal);
    const bool arm_first = wal.snapshot_interval > 0;
    if (arm_first && !ArmSnapshots(in, arm_s)) return WritePhase{};
    WritePhase wp = RunWrites(in, warmup, timed, rec);
    in.db->DrainAsync();
    if (reads == nullptr) return wp;
    if (!arm_first && !ArmSnapshots(in, arm_s)) return wp;
    SpanRecorder off(false);
    *reads = RunReads(in, opt_.seconds * kReadShare, rec != nullptr ? *rec : off);
    return wp;
  }

  /// Gate on the final state and the operations of a run.
  void CheckRun(Instance& in, const WritePhase& wp, const ReadPhase* rp) {
    attempted_ += wp.ops;
    failed_ += wp.failed;
    if (!wp.first_error.empty()) Fail("write failed: " + wp.first_error);
    if (rp != nullptr) {
      attempted_ += rp->ops;
      failed_ += rp->failed;
      if (!rp->first_error.empty()) Fail("read failed: " + rp->first_error);
      if (!rp->violation.empty()) Fail("read invariant: " + rp->violation);
    }
    const std::string bad = in.workload->CheckFinal(*in.db);
    if (!bad.empty()) Fail("final state: " + bad);
  }

  /// Closes and reopens the database until the reopen budget is spent;
  /// returns each reopen's time. The first and the last reopened graph
  /// must have the digest of the graph before the first close.
  std::vector<double> Reopen(Instance& in) {
    const GraphDigest before = DigestGraph(in.db->store());
    auto check = [&] {
      const GraphDigest after = DigestGraph(in.db->store());
      if (!(after == before)) {
        Fail("reopened graph " + after.Hex() + " != closed graph " +
             before.Hex());
      }
    };
    std::vector<double> reopen_s;
    double total = 0;
    for (int i = 0; i < kMaxReopens &&
                    (i < kMinReopens || total < kReopenBudgetS);
         ++i) {
      Status st = in.db->Close();
      in.db.reset();
      if (!st.ok()) {
        Fail("close: " + st.ToString());
        break;
      }
      const int64_t t0 = NowNs();
      auto db = OpenDb(*in.workload, in.dir);
      reopen_s.push_back((NowNs() - t0) / 1e9);
      total += reopen_s.back();
      if (!db.ok()) {
        Fail("reopen: " + db.status().ToString());
        break;
      }
      in.db = std::move(db).value();
      if (i == 0) check();
    }
    if (in.db != nullptr) check();
    return reopen_s;
  }

  // --- The two kinds of run ---------------------------------------------

  void RunUntraced() {
    std::vector<double> setup_s;
    double setup_total = 0;
    Instance in;
    for (int i = 0; i < kMaxSetups &&
                    (i < kMinSetups || setup_total < kSetupBudgetS);
         ++i) {
      if (in.db != nullptr) Discard(in);
      auto r = Setup(i);
      if (!r.ok()) {
        Fail("setup: " + r.status().ToString());
        return;
      }
      in = std::move(r).value();
      setup_s.push_back(in.times.total_s);
      setup_total += in.times.total_s;
    }
    ReadPhase rp;
    const WritePhase wp = RunWorkload(in, nullptr, &rp, nullptr);
    CheckRun(in, wp, &rp);
    std::printf("digest %s triggers %016" PRIx64 " after %" PRIu64 " writes\n",
                DigestGraph(in.db->store()).Hex().c_str(),
                DigestTriggerStats(*in.db), wp.ops);

    // Durability. A workload that checkpoints automatically checkpoints
    // once more, so the replayed log tail does not depend on where the
    // checkpoint cycle happened to stop.
    pgt::wal::WalOptions wal;
    in.workload->ConfigureWal(&wal);
    if (wal.snapshot_interval > 0) {
      const Status st = in.db->CheckpointNow();
      if (!st.ok()) Fail("checkpoint: " + st.ToString());
    }
    const std::vector<double> reopen_s = Reopen(in);
    Discard(in);
    std::printf("reopen: median %.4f s over %zu\n", MedianOf(reopen_s),
                reopen_s.size());

    const Summary wl = Summarize(wp.latency_us, kTailQ);
    const Summary rl = Summarize(rp.latency_us, kTailQ);
    std::printf("write latency: %s\n", wl.Describe("us").c_str());
    for (const auto& [kind, lat] : wp.by_kind) {
      std::printf("  %-10s p50 %.1f us, n=%zu\n", kind.c_str(), MedianOf(lat),
                  lat.size());
    }
    std::printf("read latency: %s\n", rl.Describe("us").c_str());
    if (!wl.ok) Fail("write percentile refused");
    if (!rl.ok) Fail("read percentile refused");
    const double writes = static_cast<double>(wp.latency_us.size());
    const uint64_t wal_bytes = (wp.end.log.bytes - wp.begin.log.bytes) +
                               (wp.end.snap.bytes - wp.begin.snap.bytes);
    auto rate = [](double n, double s) { return s > 0 ? n / s : 0.0; };
    Metric("setup_s", MedianOf(setup_s), "s");
    Metric("write_p50_us", wl.median, "us");
    Metric("write_p99_us", wl.pct, "us");
    Metric("write_ops_per_s", rate(writes, wp.window_s), "1/s");
    Metric("read_p50_us", rl.median, "us");
    Metric("read_p99_us", rl.pct, "us");
    Metric("read_ops_per_s",
           rate(static_cast<double>(rp.latency_us.size()), rp.window_s), "1/s");
    Metric("reopen_s", MedianOf(reopen_s), "s");
    Metric("wal_bytes_per_write", writes > 0 ? wal_bytes / writes : 0, "B/write");
    Metric("peak_rss_mb", PeakRssMb(), "MB");
    Metric("ok_frac",
           attempted_ > 0 ? 1.0 - static_cast<double>(failed_) / attempted_ : 0,
           "ratio");
  }

  void RunTraced() {
    // Phase A: the plain run, whose digests the traced run must reproduce.
    auto a = Setup(0);
    if (!a.ok()) {
      Fail("setup: " + a.status().ToString());
      return;
    }
    const WritePhase wa = RunWorkload(*a, nullptr, nullptr, nullptr);
    CheckRun(*a, wa, nullptr);
    const GraphDigest digest_a = DigestGraph(a->db->store());
    const uint64_t trig_a = DigestTriggerStats(*a->db);
    Discard(*a);

    // Phase B: the same writes on a fresh database, every other one traced.
    auto b = Setup(1);
    if (!b.ok()) {
      Fail("setup: " + b.status().ToString());
      return;
    }
    SpanRecorder rec(true);
    ReadPhase rp;
    double arm_s = 0;
    const WritePhase wb = RunWorkload(*b, &rec, &rp, &arm_s);
    CheckRun(*b, wb, &rp);
    const GraphDigest digest_b = DigestGraph(b->db->store());
    const uint64_t trig_b = DigestTriggerStats(*b->db);
    std::printf("digest plain %s / traced %s after %" PRIu64 " writes\n",
                digest_a.Hex().c_str(), digest_b.Hex().c_str(), wb.ops);
    if (!(digest_a == digest_b)) Fail("traced run changed the graph digest");
    if (trig_a != trig_b) Fail("traced run changed the trigger statistics");
    const SetupTimes setup = b->times;
    Discard(*b);

    if (!opt_.spans_path.empty() && !rec.WriteTsv(opt_.spans_path)) {
      Fail("cannot write spans to " + opt_.spans_path);
    }
    const auto self = rec.Summarize();
    auto self_us = [&](const char* name) {
      auto it = self.find(name);
      return it == self.end() ? 0.0 : it->second.self_ns / 1e3;
    };
    // Span self times are per traced write; counters cover every write.
    const double traced = std::max<double>(1, wb.traced_us.size());
    const double writes = std::max<double>(1, wb.latency_us.size());
    const double reads = std::max<double>(1, rp.latency_us.size());
    const Counters& c0 = wb.begin;
    const Counters& c1 = wb.end;
    auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };

    const Summary st = Summarize(wb.traced_us, kTailQ);
    const Summary sp = Summarize(wb.plain_us, kTailQ);
    std::printf("traced write latency: %s\n", st.Describe("us").c_str());
    std::printf("plain write latency: %s\n", sp.Describe("us").c_str());
    std::printf("read latency: %s\n",
                Summarize(rp.latency_us, kTailQ).Describe("us").c_str());
    std::printf("self time per traced write (us):");
    for (const char* n : {"write", "cypher.prepare", "tx.begin", "tx.run",
                          "tx.commit", "wal.append", "wal.sync"}) {
      std::printf(" %s %.2f", n, self_us(n) / traced);
    }
    std::printf("\n");

    const double considered = static_cast<double>(c1.considered - c0.considered);
    const double fired = static_cast<double>(c1.fired - c0.fired);
    Metric("cypher.prepare_us", self_us("cypher.prepare") / traced, "us");
    Metric("cypher.plan_cache_hit_ratio",
           ratio(static_cast<double>(c1.cache_hits - c0.cache_hits),
                 static_cast<double>(c1.cache_hits - c0.cache_hits +
                                     c1.cache_misses - c0.cache_misses)),
           "ratio");
    Metric("cypher.plan_recompiles", static_cast<double>(c1.recompiles - c0.recompiles),
           "count");
    Metric("cypher.query_at_us", self_us("cypher.query_at") / reads, "us");
    Metric("tx.begin_us", self_us("tx.begin") / traced, "us");
    Metric("tx.run_us", self_us("tx.run") / traced, "us");
    Metric("tx.commit_us", self_us("tx.commit") / traced, "us");
    Metric("trigger.considered_per_write", considered / writes, "count");
    Metric("trigger.fired_per_write", fired / writes, "count");
    Metric("trigger.fire_ratio", ratio(fired, considered), "ratio");
    Metric("trigger.action_rows_per_write",
           static_cast<double>(c1.action_rows - c0.action_rows) / writes, "count");
    Metric("trigger.cascade_depth_max", static_cast<double>(c1.cascade_depth_max),
           "count");
    Metric("trigger.detached_runs",
           static_cast<double>(c1.detached_runs - c0.detached_runs), "count");
    Metric("ivm.served_ratio",
           ratio(static_cast<double>(c1.ivm_served - c0.ivm_served), considered),
           "ratio");
    Metric("ivm.maintain_ops_per_write",
           static_cast<double>(c1.ivm_maintain - c0.ivm_maintain) / writes, "count");
    Metric("ivm.tuples", static_cast<double>(c1.ivm_tuples), "count");
    Metric("ivm.bytes", static_cast<double>(c1.ivm_bytes), "B");
    Metric("wal.append_us", self_us("wal.append") / traced, "us");
    Metric("wal.sync_us", self_us("wal.sync") / traced, "us");
    Metric("wal.syncs_per_write",
           static_cast<double>(c1.log.syncs - c0.log.syncs) / writes, "count");
    Metric("wal.checkpoints", static_cast<double>(c1.published - c0.published),
           "count");
    Metric("wal.checkpoint_bytes",
           static_cast<double>(c1.snap.bytes - c0.snap.bytes), "B");
    Metric("schema.validate_us",
           wb.validate_us.empty() ? 0.0 : MedianOf(wb.validate_us), "us");
    Metric("storage.snapshot_open_us", self_us("storage.snapshot_open") / reads,
           "us");
    Metric("storage.snapshot_arm_s", arm_s, "s");
    Metric("covid.generate_s", setup.generate_s, "s");
    Metric("setup.index_build_s", setup.index_s, "s");
    Metric("setup.trigger_install_s", setup.triggers_s, "s");
    Metric("trace.overhead_p50_us", MedianOf(wb.traced_us) - MedianOf(wb.plain_us),
           "us");
  }

  // --- Output -----------------------------------------------------------

  void Metric(const std::string& name, double value, const char* unit) {
    metrics_.emplace_back(name, std::make_pair(value, std::string(unit)));
  }

  void Fail(const std::string& why) {
    correct_ = false;
    std::fprintf(stderr, "GATE FAILED: %s\n", why.c_str());
  }

  int Finish() {
    if (failed_ > 0) Fail(std::to_string(failed_) + " operations failed");
    std::string json = "{\"correct\": ";
    json += correct_ ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(std::max<uint64_t>(attempted_, 1));
    json += ", \"failed\": " + std::to_string(failed_);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char buf[256];
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics_[i].first.c_str(),
                    metrics_[i].second.first, metrics_[i].second.second.c_str());
      json += buf;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return correct_ ? 0 : 1;
  }

  Options opt_;
  WalProbe probe_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool correct_ = true;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
};

int Usage(const char* msg) {
  std::fprintf(stderr,
               "%s\nusage: pgt_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--spans FILE]\n",
               msg);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using perfbench::Usage;
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    if (flag == "--workload") {
      opt.workload = v;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), nullptr);
    } else if (flag == "--trace") {
      opt.trace = v == "1";
    } else if (flag == "--work-dir") {
      opt.work_dir = v;
    } else if (flag == "--spans") {
      opt.spans_path = v;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (perfbench::MakeWorkload(opt.workload, opt.seed) == nullptr) {
    return Usage(("unknown workload '" + opt.workload + "'").c_str());
  }
  if (opt.work_dir.empty() || !(opt.seconds > 0)) {
    return Usage("--work-dir and a positive --seconds are required");
  }
  std::filesystem::create_directories(opt.work_dir);
  return perfbench::Bench(opt).Run();
}
