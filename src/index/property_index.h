#ifndef PGTRIGGERS_INDEX_PROPERTY_INDEX_H_
#define PGTRIGGERS_INDEX_PROPERTY_INDEX_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "src/common/ids.h"
#include "src/common/value.h"
#include "src/index/index_def.h"

namespace pgt::index {

/// Index keys group values by *band*: numerics by their double value,
/// everything else by exact (TotalCompare) equality. Banding makes the key
/// relation a genuine equivalence even at magnitudes >= 2^53, where
/// Cypher's int/double coercion (`Equals`/`TotalCompare`) stops being
/// transitive: Int(2^53) and Int(2^53 + 1) both `=` Double(2^53.0) yet
/// differ from each other. Bands are complete — Equals(a, b) implies the
/// same band — so an index probe never misses a match; band members that
/// are not exactly equal are discarded by the caller's per-candidate
/// recheck (NodeMatches / WHERE evaluation).
struct ValueHash {
  size_t operator()(const Value& v) const;
};

/// Band equality (hash layout): numeric-numeric by double value, other
/// types by TotalCompare == 0.
struct IndexKeyEq {
  bool operator()(const Value& a, const Value& b) const;
};

/// Strict total order for the ordered layout: non-numerics by
/// TotalCompare; numerics lexicographically by (double value, kind,
/// exact int value), which keeps each band contiguous and the comparator
/// transitive (a plain TotalCompare order is not, see above).
struct IndexKeyLess {
  bool operator()(const Value& a, const Value& b) const;
};

/// One label+property index: value -> posting list of node ids.
///
/// Posting lists are std::set<uint64_t>, so every probe yields candidates in
/// ascending id order — the matcher's scans stay deterministic (id order)
/// regardless of which access path the planner picks.
///
/// The index stores only non-NULL values of alive nodes; a deleted node's
/// entries are erased when the store reports the removal, right after the
/// record turns into a tombstone, and rollback re-inserts them through the
/// same report (undo replays inverse mutations through the store), so
/// aborted transactions never leave stale entries.
class PropertyIndex {
 public:
  explicit PropertyIndex(IndexSpec spec);
  PropertyIndex(const PropertyIndex&) = delete;
  PropertyIndex& operator=(const PropertyIndex&) = delete;

  const IndexSpec& spec() const { return spec_; }
  bool unique() const { return spec_.unique; }
  bool SupportsRange() const { return spec_.kind == IndexKind::kOrdered; }

  /// Number of (value, node) entries / distinct values.
  size_t EntryCount() const { return entries_; }
  size_t DistinctValues() const;

  /// Inserts / removes one entry. NULL values are ignored (never indexed).
  void Insert(const Value& value, NodeId id);
  void Erase(const Value& value, NodeId id);

  /// Equality probe: appends the ids of nodes whose value lies in the same
  /// band as `value` (a superset of Cypher-`=` matches; callers re-check
  /// exact equality per candidate), in ascending id order.
  void Lookup(const Value& value, std::vector<uint64_t>* out) const;

  /// True if some node other than `self` holds a value in `value`'s band;
  /// returns its id. Used for write-time unique enforcement. Band
  /// granularity makes this conservatively strict for distinct integers
  /// beyond 2^53 that collapse to the same double.
  std::optional<NodeId> FindConflict(const Value& value,
                                     std::optional<NodeId> self) const;

  /// Range scan over an ordered index: appends ids of nodes whose value
  /// lies within [lo, hi] (each bound optional, inclusivity per bound).
  /// Only keys in the same comparison class as the present bound(s) are
  /// visited — mirroring the evaluator, where `<`/`>` across classes
  /// (numeric vs string vs date ...) yields NULL and never passes WHERE.
  /// Appended ids are NOT globally sorted (value order); callers sort.
  /// No-op on hash indexes.
  void Range(const std::optional<Value>& lo, bool lo_inclusive,
             const std::optional<Value>& hi, bool hi_inclusive,
             std::vector<uint64_t>* out) const;

  /// Invokes `fn` for every *band* with its complete posting list (sorted
  /// ascending). Ordered layouts merge band-spanning keys (huge int +
  /// double) into one call, keyed by the band's first key. This is how the
  /// snapshot sidecar (index/versioned_postings.h) baselines itself.
  void ForEachBandPosting(
      const std::function<void(const Value&, const std::vector<uint64_t>&)>&
          fn) const;

  /// Invokes `fn` for every value whose posting list holds >= 2 nodes.
  /// This is how deferred-unique (PG-Key) violations are read off the index
  /// at commit time: O(duplicated values) instead of a full rescan.
  void ForEachDuplicate(
      const std::function<void(const Value&, const std::set<uint64_t>&)>& fn)
      const;

  void Clear();

 private:
  using Postings = std::set<uint64_t>;

  IndexSpec spec_;
  // Exactly one of the two maps is populated, per spec_.kind.
  std::unordered_map<Value, Postings, ValueHash, IndexKeyEq> hash_;
  std::map<Value, Postings, IndexKeyLess> ordered_;
  size_t entries_ = 0;
};

/// Comparison class used by range planning: ordering comparisons are only
/// satisfiable within one class (see the evaluator's `comparable` rule).
enum class CompareClass {
  kNumeric,
  kString,
  kBool,
  kDate,
  kDateTime,
  kOther,  ///< lists, maps, nodes, rels, NULL: never range-comparable
};

CompareClass CompareClassOf(const Value& v);

}  // namespace pgt::index

#endif  // PGTRIGGERS_INDEX_PROPERTY_INDEX_H_
