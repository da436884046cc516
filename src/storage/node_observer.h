#ifndef PGTRIGGERS_STORAGE_NODE_OBSERVER_H_
#define PGTRIGGERS_STORAGE_NODE_OBSERVER_H_

#include <vector>

#include "src/common/ids.h"
#include "src/common/prop_map.h"
#include "src/common/value.h"

namespace pgt {

/// One node mutation, as GraphStore reports it to its observers. It is
/// reported once, after the record shows the change: `labels` and `props`
/// are the record's post-mutation image. A removed node is a tombstone
/// whose labels and props stay intact, so `labels`/`props` are its final
/// image; after a label removal `labels` no longer holds `label`.
struct NodeChange {
  enum class Kind {
    kAdded,
    kRemoved,
    kLabelAdded,
    kLabelRemoved,
    kPropChanged,
  };

  Kind kind;
  NodeId id;
  const std::vector<LabelId>& labels;
  const PropMap& props;
  LabelId label = 0;                 ///< kLabelAdded / kLabelRemoved
  PropKeyId key = 0;                 ///< kPropChanged
  const Value* old_value = nullptr;  ///< kPropChanged: the value before
};

/// Derived state that follows every node mutation of a GraphStore (the
/// property indexes, incremental WHEN maintenance). Transaction rollback
/// replays inverse mutations through the same store methods, so an
/// observer sees the inverse changes and needs no rollback handling.
class NodeObserver {
 public:
  virtual ~NodeObserver() = default;
  virtual void OnNodeChange(const NodeChange& change) = 0;
};

}  // namespace pgt

#endif  // PGTRIGGERS_STORAGE_NODE_OBSERVER_H_
