#ifndef PGTRIGGERS_STORAGE_GRAPH_STORE_H_
#define PGTRIGGERS_STORAGE_GRAPH_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/ids.h"
#include "src/common/interner.h"
#include "src/common/macros.h"
#include "src/common/prop_map.h"
#include "src/common/result.h"
#include "src/common/status.h"
#include "src/common/value.h"
#include "src/index/index_catalog.h"
#include "src/index/index_def.h"
#include "src/storage/node_observer.h"

namespace pgt {

class GraphSnapshot;
class SnapshotManager;

/// Direction of traversal relative to a node.
enum class Direction { kOutgoing, kIncoming, kBoth };

/// Stored node. Labels are kept sorted; properties are keyed by interned
/// property-key id. Adjacency is maintained as unordered id lists; deleted
/// relationships are lazily skipped.
struct NodeRecord {
  NodeId id;
  bool alive = true;
  std::vector<LabelId> labels;  // sorted, unique
  PropMap props;
  std::vector<RelId> out_rels;
  std::vector<RelId> in_rels;

  bool HasLabel(LabelId l) const;
};

/// Stored relationship (always directed src -> dst; queries may traverse
/// either way). A relationship has exactly one type, per the Property Graph
/// model used by the paper.
struct RelRecord {
  RelId id;
  bool alive = true;
  RelTypeId type = 0;
  NodeId src;
  NodeId dst;
  PropMap props;
};

/// In-memory property graph: the storage substrate on which the PG-Trigger
/// engine, the Cypher-subset executor, and the APOC/Memgraph emulators all
/// run (standing in for Neo4j's / Memgraph's storage layer).
///
/// Invariants:
///  * ids are dense, allocated in creation order, never reused;
///  * deletions tombstone the record (alive = false) and unlink it from the
///    label index; the record stays addressable for undo and for OLD
///    transition variables;
///  * the label index is exact: it contains exactly the alive nodes that
///    carry the label, in id order (deterministic scans);
///  * property indexes (see src/index) are exact in the same sense: the
///    IndexCatalog is the first node observer, so postings cover exactly
///    the alive nodes carrying the indexed label with a non-NULL indexed
///    property.
///
/// Every node mutator reports its change once, after the record shows it,
/// to the ordered observer list (NodeObserver). The store itself performs
/// no change tracking and no trigger dispatch; that is the transaction
/// layer's job (src/tx). It is single-writer.
class GraphStore {
 public:
  GraphStore();
  ~GraphStore();
  GraphStore(const GraphStore&) = delete;
  GraphStore& operator=(const GraphStore&) = delete;

  // --- Dictionaries -------------------------------------------------------

  LabelId InternLabel(std::string_view name) { return labels_.Intern(name); }
  RelTypeId InternRelType(std::string_view name) {
    return rel_types_.Intern(name);
  }
  PropKeyId InternPropKey(std::string_view name) {
    return prop_keys_.Intern(name);
  }
  std::optional<LabelId> LookupLabel(std::string_view name) const {
    return labels_.Lookup(name);
  }
  std::optional<RelTypeId> LookupRelType(std::string_view name) const {
    return rel_types_.Lookup(name);
  }
  std::optional<PropKeyId> LookupPropKey(std::string_view name) const {
    return prop_keys_.Lookup(name);
  }
  const std::string& LabelName(LabelId id) const { return labels_.name(id); }
  const std::string& RelTypeName(RelTypeId id) const {
    return rel_types_.name(id);
  }
  const std::string& PropKeyName(PropKeyId id) const {
    return prop_keys_.name(id);
  }

  /// Dictionary sizes: ids are dense, so every id < size is valid. The
  /// snapshot substrate uses these to mirror the dictionaries per epoch.
  size_t LabelDictSize() const { return labels_.size(); }
  size_t RelTypeDictSize() const { return rel_types_.size(); }
  size_t PropKeyDictSize() const { return prop_keys_.size(); }

  // --- Node operations ----------------------------------------------------

  /// Creates a node with the given labels and properties.
  NodeId CreateNode(const std::vector<LabelId>& labels,
                    PropMap props);

  /// Returns the record (alive or tombstoned), or nullptr if never existed.
  const NodeRecord* GetNode(NodeId id) const;

  /// True iff the node exists and is alive.
  bool NodeAlive(NodeId id) const;

  /// Deletes a node. Fails with FailedPrecondition if relationships are
  /// still attached (callers implement DETACH DELETE by removing them
  /// first).
  Status DeleteNode(NodeId id);

  /// Re-inserts a tombstoned node with the given image (undo path).
  Status ReviveNode(NodeId id, const std::vector<LabelId>& labels,
                    PropMap props);

  /// Adds a label; returns true if the label was newly added.
  Result<bool> AddLabel(NodeId id, LabelId label);

  /// Removes a label; returns true if the label was present.
  Result<bool> RemoveLabel(NodeId id, LabelId label);

  /// Sets a property; returns the previous value (NULL if absent).
  Result<Value> SetNodeProp(NodeId id, PropKeyId key, Value value);

  /// Removes a property; returns the previous value (NULL if absent).
  Result<Value> RemoveNodeProp(NodeId id, PropKeyId key);

  /// Property read; NULL if absent. Precondition: node exists.
  Value GetNodeProp(NodeId id, PropKeyId key) const;

  // --- Relationship operations --------------------------------------------

  /// Creates a relationship src -[type]-> dst.
  Result<RelId> CreateRel(NodeId src, RelTypeId type, NodeId dst,
                          PropMap props);

  const RelRecord* GetRel(RelId id) const;
  bool RelAlive(RelId id) const;

  Status DeleteRel(RelId id);

  /// Re-inserts a tombstoned relationship with the given image (undo path).
  Status ReviveRel(RelId id, PropMap props);

  Result<Value> SetRelProp(RelId id, PropKeyId key, Value value);
  Result<Value> RemoveRelProp(RelId id, PropKeyId key);
  Value GetRelProp(RelId id, PropKeyId key) const;

  // --- Scans ---------------------------------------------------------------

  /// Alive nodes carrying `label`, in id order.
  std::vector<NodeId> NodesByLabel(LabelId label) const;

  /// Number of alive nodes carrying `label` (planner selectivity).
  size_t LabelCardinality(LabelId label) const;

  /// All alive nodes, in id order.
  std::vector<NodeId> AllNodes() const;

  /// All alive relationships, in id order.
  std::vector<RelId> AllRels() const;

  /// Alive relationships incident to `node` in the given direction,
  /// optionally restricted to a type. Deterministic (id order).
  std::vector<RelId> RelsOf(NodeId node, Direction dir,
                            std::optional<RelTypeId> type) const;

  /// Zero-materialization traversal over the same relationships RelsOf
  /// returns, in raw adjacency order (NOT id-sorted — RelsOf sorts on top
  /// of this). For order-insensitive consumers only; the matcher keeps
  /// using RelsOf so match emission order stays id-deterministic. The
  /// callback must not mutate the store.
  template <typename Fn>
  void ForEachRelOf(NodeId node, Direction dir,
                    std::optional<RelTypeId> type, Fn&& fn) const {
    const NodeRecord* n = GetNode(node);
    if (n == nullptr || !n->alive) return;
    auto consider = [&](RelId rid) {
      const RelRecord* r = GetRel(rid);
      if (r == nullptr || !r->alive) return;
      if (type.has_value() && r->type != *type) return;
      fn(rid);
    };
    if (dir == Direction::kOutgoing || dir == Direction::kBoth) {
      for (RelId rid : n->out_rels) consider(rid);
    }
    if (dir == Direction::kIncoming || dir == Direction::kBoth) {
      for (RelId rid : n->in_rels) {
        // Self-loops appear in both adjacency lists; report them once.
        const RelRecord* r = GetRel(rid);
        if (dir == Direction::kBoth && r != nullptr && r->src == r->dst) {
          continue;
        }
        consider(rid);
      }
    }
  }

  /// Number of alive nodes / relationships.
  size_t NodeCount() const { return alive_nodes_; }
  size_t RelCount() const { return alive_rels_; }

  /// Total ids ever allocated (alive + tombstoned); ids are < these bounds.
  uint64_t NodeIdBound() const { return nodes_.size(); }
  uint64_t RelIdBound() const { return rels_.size(); }

  /// Consumes one id by appending a dead placeholder record (no adjacency,
  /// no index postings, no counters). A rolled-back transaction burns the
  /// ids it allocated without logging anything, so WAL replay uses these to
  /// reproduce the resulting gaps in the id sequence (docs/durability.md).
  NodeId BurnNodeId();
  RelId BurnRelId();

  // --- Node observers ------------------------------------------------------

  /// Appends `observer` (not owned; it must outlive the store's last
  /// mutation) to the ordered list every node mutator reports to. The
  /// property-index catalog is registered first, by the constructor, so
  /// later observers see postings that already reflect the change.
  void AddNodeObserver(NodeObserver* observer) {
    observers_.push_back(observer);
  }

  // --- Property indexes ----------------------------------------------------

  /// The property-index catalog, the first node observer: postings always
  /// mirror the alive graph — including across transaction rollback,
  /// whose undo log replays inverse mutations through these same methods.
  index::IndexCatalog& indexes() { return indexes_; }
  const index::IndexCatalog& indexes() const { return indexes_; }

  /// Creates and backfills a label+property index. `spec.name` is filled
  /// from the interned names. Fails with AlreadyExists if (label, prop) is
  /// already indexed, or with ConstraintViolation when a unique
  /// enforce-on-write index finds duplicate values in existing data (the
  /// index is not left behind).
  Result<const index::PropertyIndex*> CreateIndex(index::IndexSpec spec);

  /// Drops the index on (label, prop); NotFound if none exists.
  Status DropIndex(LabelId label, PropKeyId prop);

  // --- Snapshots ------------------------------------------------------------

  /// The epoch-versioning snapshot substrate (src/storage/snapshot.h,
  /// docs/snapshots.md). Until the first OpenSnapshot arms it, commits
  /// only bump an atomic epoch counter.
  SnapshotManager& snapshots() { return *snapshots_; }
  const SnapshotManager& snapshots() const { return *snapshots_; }

  /// Opens a snapshot pinned to the last committed epoch. The first call
  /// arms the substrate (baseline-copies every live record) and must run
  /// on the writer thread while no transaction is active; afterwards
  /// OpenSnapshot is safe from any thread.
  std::shared_ptr<const GraphSnapshot> OpenSnapshot();

  // --- Recovery -------------------------------------------------------------

  /// Bulk-loads a recovered snapshot image into an empty store (WAL
  /// recovery only). Interns the dictionaries in their original order (the
  /// dense ids baked into the records must resolve to the same symbols),
  /// installs node / relationship records — tombstones included, because
  /// the id space must come back hole-for-hole — rebuilds adjacency from
  /// the alive relationships in id order, and rebuilds the label index and
  /// alive counts. Record `id` fields are assigned from position; incoming
  /// adjacency lists are ignored. Property indexes are not touched: the
  /// caller re-creates them from the recovered definitions afterwards.
  Status LoadForRecovery(const std::vector<std::string>& labels,
                         const std::vector<std::string>& rel_types,
                         const std::vector<std::string>& prop_keys,
                         std::vector<NodeRecord> nodes,
                         std::vector<RelRecord> rels);

 private:
  NodeRecord* MutableNode(NodeId id);
  RelRecord* MutableRel(RelId id);
  void IndexNodeLabel(NodeId id, LabelId label);
  void UnindexNodeLabel(NodeId id, LabelId label);
  void Notify(const NodeChange& change) {
    for (NodeObserver* o : observers_) o->OnNodeChange(change);
  }

  StringInterner labels_;
  StringInterner rel_types_;
  StringInterner prop_keys_;
  std::vector<NodeRecord> nodes_;
  std::vector<RelRecord> rels_;
  // label -> alive node ids carrying it; std::set keeps scans deterministic.
  std::unordered_map<LabelId, std::set<uint64_t>> label_index_;
  index::IndexCatalog indexes_;
  std::vector<NodeObserver*> observers_;  // not owned; indexes_ first
  std::shared_ptr<SnapshotManager> snapshots_;  // open snapshots co-own it
  size_t alive_nodes_ = 0;
  size_t alive_rels_ = 0;
};

}  // namespace pgt

#endif  // PGTRIGGERS_STORAGE_GRAPH_STORE_H_
