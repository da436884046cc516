// The benchmark's workloads: what each one populates, which writes and
// reads it issues, and which invariants its final state must satisfy.
// README.md in this directory says why each workload exists.
#ifndef PGT_PERFBENCH_WORKLOAD_H_
#define PGT_PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/trigger/database.h"
#include "src/wal/wal_manager.h"

namespace perfbench {

/// One write call: a single statement goes through Database::Execute,
/// `tx` (or more than one statement) through Database::ExecuteTx.
struct WriteOp {
  const char* kind = "";
  std::vector<std::string> statements;
  pgt::Params params;
  bool tx = false;
};

/// One read: every statement runs with QueryAt against the same pinned
/// snapshot; `check` names the invariant its rows must satisfy.
struct ReadOp {
  enum Check {
    kOneRow,           // exactly one row
    kIcuSumsToTotal,   // [0] per-hospital ICU counts, [1] total ICU count
    kAlertsAudited,    // [0] FraudAlert count == [1] AuditEntry count
    kAny,              // any successful result
  };
  std::vector<std::string> statements;
  pgt::Params params;
  Check check = kAny;
};

/// Set-up times of one database build, in seconds.
struct SetupTimes {
  double dataset_s = 0;   // base data (covid generator / ledger load)
  double generate_s = 0;  // the covid generator alone
  double index_s = 0;
  double triggers_s = 0;
  double persist_s = 0;   // checkpoint, close and reopen
  double total_s = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// fsync policy, group size, auto-checkpoint interval.
  virtual void ConfigureWal(pgt::wal::WalOptions* wal) const = 0;

  /// Populates an empty database: base data, indexes, triggers, schema.
  virtual pgt::Status Populate(pgt::Database& db, SetupTimes* t) = 0;

  /// Writes per second the reference build sustains. Writes run in a
  /// closed loop (the next is issued when the last returns); the rate only
  /// sizes the run: a run issues --seconds' worth of writes at this rate,
  /// so every run with a seed does the same work.
  virtual double write_rate() const = 0;

  /// The next write. Deterministic in the seed and the writes before it.
  virtual WriteOp NextWrite() = 0;
  /// Any read of the final state.
  virtual ReadOp NextRead(pgt::Rng& rng) const = 0;

  /// Invariants of the final state (after DrainAsync). Empty = pass.
  virtual std::string CheckFinal(pgt::Database& db) = 0;
};

/// A fresh workload (generator state at its first write), or nullptr for
/// an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed);

/// Runs a read-only Cypher statement on the writer thread and returns its
/// single integer cell, or -1 (and `error` set) on failure.
int64_t CountOf(pgt::Database& db, const std::string& text,
                std::string* error, const pgt::Params& params = {});

}  // namespace perfbench

#endif  // PGT_PERFBENCH_WORKLOAD_H_
