#ifndef PGTRIGGERS_IVM_IVM_MANAGER_H_
#define PGTRIGGERS_IVM_IVM_MANAGER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/ids.h"
#include "src/common/status.h"
#include "src/common/value.h"
#include "src/index/property_index.h"
#include "src/ivm/ivm_plan.h"
#include "src/storage/node_observer.h"
#include "src/trigger/trigger_plan.h"

namespace pgt {
class GraphStore;
struct EngineOptions;
namespace cypher::plan {
class PlanExecutor;
}
}  // namespace pgt

namespace pgt::ivm {

/// Lifecycle of one trigger's maintained match state.
enum class IvmMode {
  /// Shape is maintainable but a symbol it names (label / property key) is
  /// not interned yet — the same late-interning discipline DispatchIndex
  /// uses. Firings run the full re-match; every reported node change and
  /// every Acquire retries resolution, and the first success seeds the state.
  kPending,
  /// State is live: node changes keep it exact, firings are lookups.
  kMaintained,
  /// The WHEN shape is outside the supported matrix (docs/ivm.md); the
  /// trigger permanently uses the full re-match path. `reason()` says why.
  kFallback,
  /// Maintenance was abandoned at runtime (max_ivm_state_bytes exceeded, or
  /// an injected ivm.maintain fault): containers are dropped and firings
  /// re-match. Sticky until the trigger is dropped/disabled and re-enabled
  /// (DDL recreates the state from scratch).
  kDegraded,
};

const char* IvmModeName(IvmMode mode);

/// Materialized WHEN match state for one trigger: the set of node ids that
/// currently satisfy the pattern's labels and node-local predicates —
/// partitioned by the keyed property's value when the shape is keyed.
///
/// Exactness contract: after every completed GraphStore mutation, the
/// contents equal exactly what a fresh label scan + predicate re-check
/// would produce. Rollback needs no special casing — the transaction undo
/// log replays inverse mutations through the same store methods, so the
/// reported changes rewind this state alongside the label and property
/// indexes.
class TriggerIvmState {
 public:
  /// Firing-path lookup. Returns true when the firing was served from
  /// maintained state — `out` then holds exactly the frames the WHEN
  /// pipeline would have produced (ascending node id, pattern slot bound),
  /// possibly zero. Returns false when the caller must run the full
  /// re-match (non-maintained mode, or a defensive per-firing fallback:
  /// comparand/residual evaluation erred and only the oracle path can
  /// reproduce the error). Never mutates maintained contents.
  bool CollectFrames(cypher::plan::PlanExecutor& exec,
                     cypher::plan::Frame& seed,
                     std::vector<cypher::plan::Frame>* out);

  IvmMode mode() const { return mode_; }
  const std::string& reason() const { return reason_; }
  const std::string& name() const { return name_; }

  /// Maintained tuple count / approximate resident bytes (surfaced in
  /// SHOW TRIGGER STATUS and governed by max_ivm_state_bytes).
  size_t tuples() const {
    return shape_.keyed ? exact_.size() : rows_.size();
  }
  int64_t bytes() const { return bytes_; }

  uint64_t served() const { return served_; }
  uint64_t fallback_firings() const { return fallback_firings_; }
  uint64_t maintain_ops() const { return maintain_ops_; }
  uint64_t seeds() const { return seeds_; }
  uint64_t revalidations() const { return revalidations_; }
  uint64_t rebuilds() const { return rebuilds_; }

 private:
  friend class IvmManager;

  bool WatchesKey(PropKeyId key) const;
  /// Band/odd probe with per-candidate recheck under the keyed predicate's
  /// own equality family; `out` comes back in ascending id order.
  void Probe(const Value& want, std::vector<uint64_t>* out) const;

  std::string name_;
  IvmMode mode_ = IvmMode::kPending;
  std::string reason_;
  IvmShape shape_;
  // Pins the compiled program whose PExpr nodes shape_ points into; an
  // epoch recompile swaps both together (Revalidate).
  std::shared_ptr<const TriggerPlans> plans_;
  uint64_t epoch_ = 0;

  // Resolved symbols (valid in kMaintained mode).
  std::vector<LabelId> label_ids_;
  PropKeyId keyed_key_id_ = 0;

  // Unkeyed: the match set. std::set keeps firing emission in id order.
  std::set<uint64_t> rows_;
  // Keyed: band-partitioned match set, same banding discipline as the
  // property indexes (numerics band by double value; bands are complete
  // wrt both Equals and Cypher `=`, and the per-candidate recheck makes
  // probes exact). NaN / list / map key values are band-unsafe (NaN is
  // IndexKeyEq-unequal to itself) and live in odd_, probed linearly.
  std::unordered_map<Value, std::set<uint64_t>, index::ValueHash,
                     index::IndexKeyEq>
      bands_;
  std::set<uint64_t> odd_;
  // node -> its exact key value (recheck + erase without store reads).
  std::unordered_map<uint64_t, Value> exact_;

  int64_t bytes_ = 0;
  uint64_t last_token_ = 0;  // per-mutation dedupe (multi-label dispatch)

  uint64_t served_ = 0;
  uint64_t fallback_firings_ = 0;
  uint64_t maintain_ops_ = 0;
  uint64_t seeds_ = 0;
  uint64_t revalidations_ = 0;
  uint64_t rebuilds_ = 0;
};

/// Owns every trigger's IVM state and observes the GraphStore's node
/// changes (src/storage/node_observer.h), after the property indexes.
/// Single-writer, like the store itself: trigger firings, undo replay, and
/// async pool applies all run under the Database's writer interlock.
///
/// States are created lazily at a trigger's first compiled firing
/// (IvmManager::Acquire) and torn down on drop / disable / quarantine
/// (TriggerCatalog's IVM sink), so recovery and quarantined triggers never
/// pay maintenance.
class IvmManager final : public NodeObserver {
 public:
  IvmManager(GraphStore* store, const EngineOptions* options);
  IvmManager(const IvmManager&) = delete;
  IvmManager& operator=(const IvmManager&) = delete;
  ~IvmManager();

  // --- Engine side ----------------------------------------------------------

  /// Returns the trigger's state ready for firing-path lookups, creating
  /// (lower + resolve + seed) on first use and revalidating on plan-epoch
  /// change. nullptr when firings must re-match (unsupported shape,
  /// pending symbols, degraded state).
  TriggerIvmState* Acquire(const TriggerDef& def,
                           const std::shared_ptr<const TriggerPlans>& plans,
                           uint64_t epoch);

  /// Drops a trigger's state (trigger dropped / disabled / quarantined).
  void Unregister(const std::string& name);
  void UnregisterAll();

  const TriggerIvmState* Find(const std::string& name) const;
  /// All states in trigger-name order (deterministic surfaces).
  std::vector<const TriggerIvmState*> States() const;

  // --- GraphStore node observer ---------------------------------------------

  /// Recomputes the node's membership in every maintained state watching
  /// one of its labels — or the label that flipped, which a removal has
  /// already taken out of `labels` — once per state; a property change
  /// reaches only states that watch the key.
  void OnNodeChange(const NodeChange& change) override;

  // --- Observability / test oracle -----------------------------------------

  struct Counters {
    uint64_t maintain_ops = 0;   // per-node membership recomputes
    uint64_t seeds = 0;          // initial scans
    uint64_t degradations = 0;   // states dropped to kDegraded
    uint64_t resolutions = 0;    // pending states activated
  };
  const Counters& counters() const { return counters_; }

  /// Debug oracle for the differential suite: recomputes every maintained
  /// state's membership from a full store scan and compares. Internal
  /// error naming the first divergence, OK otherwise.
  Status VerifyAgainstStore() const;

 private:
  void Revalidate(TriggerIvmState* st, const TriggerDef& def,
                  const std::shared_ptr<const TriggerPlans>& plans,
                  uint64_t epoch);
  /// Resolves the shape's symbols; on success registers dispatch entries,
  /// seeds from the smallest-cardinality label, and returns true.
  bool TryActivate(TriggerIvmState* st);
  void TryResolvePending();
  /// Recomputes one node's membership (erase + conditional insert).
  void MaintainNode(TriggerIvmState* st, NodeId id);
  /// Membership under the state's labels + node-local predicates; fills
  /// `key_out` (keyed shapes) with the node's key value.
  bool ComputeMembership(const TriggerIvmState& st, NodeId id,
                         Value* key_out) const;
  void Degrade(TriggerIvmState* st, std::string reason);
  void StateErase(TriggerIvmState* st, uint64_t id);
  void RemoveDispatch(TriggerIvmState* st);

  GraphStore* store_;
  const EngineOptions* options_;
  // Name-keyed (std::map: deterministic States() order for surfaces).
  std::map<std::string, std::unique_ptr<TriggerIvmState>> states_;
  // label -> maintained states watching it (a state appears once per
  // distinct label it requires). Degraded states linger here and are
  // skipped; Unregister removes them.
  std::unordered_map<LabelId, std::vector<TriggerIvmState*>> by_label_;
  std::vector<TriggerIvmState*> pending_;
  uint64_t op_token_ = 0;
  Counters counters_;
};

}  // namespace pgt::ivm

#endif  // PGTRIGGERS_IVM_IVM_MANAGER_H_
