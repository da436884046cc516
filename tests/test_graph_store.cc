// Unit tests for the property graph store (src/storage/graph_store.h).

#include "src/storage/graph_store.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/tx/transaction.h"

namespace pgt {
namespace {

class GraphStoreTest : public ::testing::Test {
 protected:
  GraphStore store_;

  NodeId MakeNode(const std::string& label) {
    return store_.CreateNode({store_.InternLabel(label)}, {});
  }
};

TEST_F(GraphStoreTest, CreateNodeAssignsDenseIds) {
  EXPECT_EQ(MakeNode("A").value, 0u);
  EXPECT_EQ(MakeNode("A").value, 1u);
  EXPECT_EQ(store_.NodeCount(), 2u);
}

TEST_F(GraphStoreTest, LabelsAreSortedAndDeduped) {
  const LabelId b = store_.InternLabel("B");
  const LabelId a = store_.InternLabel("A");
  NodeId id = store_.CreateNode({b, a, b}, {});
  const NodeRecord* n = store_.GetNode(id);
  ASSERT_EQ(n->labels.size(), 2u);
  EXPECT_TRUE(std::is_sorted(n->labels.begin(), n->labels.end()));
  EXPECT_TRUE(n->HasLabel(a));
  EXPECT_TRUE(n->HasLabel(b));
}

TEST_F(GraphStoreTest, LabelIndexTracksMembership) {
  const LabelId a = store_.InternLabel("A");
  NodeId n1 = MakeNode("A");
  NodeId n2 = MakeNode("A");
  MakeNode("B");
  std::vector<NodeId> nodes = store_.NodesByLabel(a);
  ASSERT_EQ(nodes.size(), 2u);
  EXPECT_EQ(nodes[0], n1);
  EXPECT_EQ(nodes[1], n2);  // id order
}

TEST_F(GraphStoreTest, AddRemoveLabelUpdatesIndex) {
  const LabelId extra = store_.InternLabel("Extra");
  NodeId id = MakeNode("A");
  EXPECT_TRUE(store_.AddLabel(id, extra).value());
  EXPECT_FALSE(store_.AddLabel(id, extra).value());  // already present
  EXPECT_EQ(store_.NodesByLabel(extra).size(), 1u);
  EXPECT_TRUE(store_.RemoveLabel(id, extra).value());
  EXPECT_FALSE(store_.RemoveLabel(id, extra).value());
  EXPECT_TRUE(store_.NodesByLabel(extra).empty());
}

TEST_F(GraphStoreTest, PropertySetReturnsOldValue) {
  NodeId id = MakeNode("A");
  const PropKeyId k = store_.InternPropKey("x");
  EXPECT_TRUE(store_.SetNodeProp(id, k, Value::Int(1)).value().is_null());
  Value old = store_.SetNodeProp(id, k, Value::Int(2)).value();
  EXPECT_EQ(old.int_value(), 1);
  EXPECT_EQ(store_.GetNodeProp(id, k).int_value(), 2);
}

TEST_F(GraphStoreTest, SetNullRemovesProperty) {
  NodeId id = MakeNode("A");
  const PropKeyId k = store_.InternPropKey("x");
  ASSERT_TRUE(store_.SetNodeProp(id, k, Value::Int(1)).ok());
  ASSERT_TRUE(store_.SetNodeProp(id, k, Value::Null()).ok());
  EXPECT_TRUE(store_.GetNodeProp(id, k).is_null());
  EXPECT_TRUE(store_.GetNode(id)->props.empty());
}

TEST_F(GraphStoreTest, RemovePropReturnsOldValue) {
  NodeId id = MakeNode("A");
  const PropKeyId k = store_.InternPropKey("x");
  ASSERT_TRUE(store_.SetNodeProp(id, k, Value::String("v")).ok());
  EXPECT_EQ(store_.RemoveNodeProp(id, k).value().string_value(), "v");
  EXPECT_TRUE(store_.RemoveNodeProp(id, k).value().is_null());
}

TEST_F(GraphStoreTest, CreateRelLinksAdjacency) {
  NodeId a = MakeNode("A");
  NodeId b = MakeNode("B");
  const RelTypeId t = store_.InternRelType("R");
  RelId r = store_.CreateRel(a, t, b, {}).value();
  const RelRecord* rec = store_.GetRel(r);
  EXPECT_EQ(rec->src, a);
  EXPECT_EQ(rec->dst, b);
  EXPECT_EQ(store_.RelsOf(a, Direction::kOutgoing, std::nullopt).size(), 1u);
  EXPECT_EQ(store_.RelsOf(b, Direction::kIncoming, std::nullopt).size(), 1u);
  EXPECT_TRUE(store_.RelsOf(b, Direction::kOutgoing, std::nullopt).empty());
}

TEST_F(GraphStoreTest, CreateRelToDeadNodeFails) {
  NodeId a = MakeNode("A");
  NodeId b = MakeNode("B");
  ASSERT_TRUE(store_.DeleteNode(b).ok());
  const RelTypeId t = store_.InternRelType("R");
  EXPECT_EQ(store_.CreateRel(a, t, b, {}).status().code(),
            StatusCode::kNotFound);
}

TEST_F(GraphStoreTest, DeleteNodeRequiresDetachedState) {
  NodeId a = MakeNode("A");
  NodeId b = MakeNode("B");
  const RelTypeId t = store_.InternRelType("R");
  RelId r = store_.CreateRel(a, t, b, {}).value();
  EXPECT_EQ(store_.DeleteNode(a).code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(store_.DeleteRel(r).ok());
  EXPECT_TRUE(store_.DeleteNode(a).ok());
  EXPECT_FALSE(store_.NodeAlive(a));
  EXPECT_EQ(store_.NodeCount(), 1u);
}

TEST_F(GraphStoreTest, TombstonedNodeStaysAddressable) {
  NodeId a = MakeNode("A");
  const PropKeyId k = store_.InternPropKey("x");
  ASSERT_TRUE(store_.SetNodeProp(a, k, Value::Int(5)).ok());
  ASSERT_TRUE(store_.DeleteNode(a).ok());
  const NodeRecord* rec = store_.GetNode(a);
  ASSERT_NE(rec, nullptr);
  EXPECT_FALSE(rec->alive);
  // Mutations on a dead node fail.
  EXPECT_FALSE(store_.SetNodeProp(a, k, Value::Int(6)).ok());
  EXPECT_FALSE(store_.AddLabel(a, store_.InternLabel("B")).ok());
}

TEST_F(GraphStoreTest, ReviveRestoresNodeAndIndex) {
  const LabelId label_a = store_.InternLabel("A");
  NodeId a = MakeNode("A");
  ASSERT_TRUE(store_.DeleteNode(a).ok());
  EXPECT_TRUE(store_.NodesByLabel(label_a).empty());
  ASSERT_TRUE(store_.ReviveNode(a, {label_a},
                                {{store_.InternPropKey("x"), Value::Int(1)}})
                  .ok());
  EXPECT_TRUE(store_.NodeAlive(a));
  EXPECT_EQ(store_.NodesByLabel(label_a).size(), 1u);
  EXPECT_EQ(store_.GetNodeProp(a, store_.InternPropKey("x")).int_value(), 1);
}

TEST_F(GraphStoreTest, ReviveRelRequiresAliveEndpoints) {
  NodeId a = MakeNode("A");
  NodeId b = MakeNode("B");
  const RelTypeId t = store_.InternRelType("R");
  RelId r = store_.CreateRel(a, t, b, {}).value();
  ASSERT_TRUE(store_.DeleteRel(r).ok());
  ASSERT_TRUE(store_.DeleteNode(b).ok());
  EXPECT_EQ(store_.ReviveRel(r, {}).code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(store_.ReviveNode(b, {store_.InternLabel("B")}, {}).ok());
  EXPECT_TRUE(store_.ReviveRel(r, {}).ok());
  EXPECT_TRUE(store_.RelAlive(r));
}

TEST_F(GraphStoreTest, RelsOfFiltersByType) {
  NodeId a = MakeNode("A");
  NodeId b = MakeNode("B");
  const RelTypeId t1 = store_.InternRelType("R1");
  const RelTypeId t2 = store_.InternRelType("R2");
  ASSERT_TRUE(store_.CreateRel(a, t1, b, {}).ok());
  ASSERT_TRUE(store_.CreateRel(a, t2, b, {}).ok());
  EXPECT_EQ(store_.RelsOf(a, Direction::kOutgoing, t1).size(), 1u);
  EXPECT_EQ(store_.RelsOf(a, Direction::kBoth, std::nullopt).size(), 2u);
}

TEST_F(GraphStoreTest, SelfLoopReportedOnceForBoth) {
  NodeId a = MakeNode("A");
  const RelTypeId t = store_.InternRelType("R");
  ASSERT_TRUE(store_.CreateRel(a, t, a, {}).ok());
  EXPECT_EQ(store_.RelsOf(a, Direction::kBoth, std::nullopt).size(), 1u);
  EXPECT_EQ(store_.RelsOf(a, Direction::kOutgoing, std::nullopt).size(), 1u);
  EXPECT_EQ(store_.RelsOf(a, Direction::kIncoming, std::nullopt).size(), 1u);
}

TEST_F(GraphStoreTest, DeletedRelsSkippedInScans) {
  NodeId a = MakeNode("A");
  NodeId b = MakeNode("B");
  const RelTypeId t = store_.InternRelType("R");
  RelId r1 = store_.CreateRel(a, t, b, {}).value();
  RelId r2 = store_.CreateRel(a, t, b, {}).value();
  ASSERT_TRUE(store_.DeleteRel(r1).ok());
  std::vector<RelId> rels = store_.RelsOf(a, Direction::kOutgoing, t);
  ASSERT_EQ(rels.size(), 1u);
  EXPECT_EQ(rels[0], r2);
  EXPECT_EQ(store_.AllRels().size(), 1u);
}

TEST_F(GraphStoreTest, AllNodesInIdOrder) {
  MakeNode("A");
  NodeId b = MakeNode("B");
  MakeNode("C");
  ASSERT_TRUE(store_.DeleteNode(b).ok());
  std::vector<NodeId> all = store_.AllNodes();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_LT(all[0].value, all[1].value);
}

TEST_F(GraphStoreTest, DictionariesRoundTrip) {
  const LabelId l = store_.InternLabel("Person");
  const RelTypeId t = store_.InternRelType("KNOWS");
  const PropKeyId p = store_.InternPropKey("age");
  EXPECT_EQ(store_.LabelName(l), "Person");
  EXPECT_EQ(store_.RelTypeName(t), "KNOWS");
  EXPECT_EQ(store_.PropKeyName(p), "age");
  EXPECT_EQ(store_.LookupLabel("Person").value(), l);
  EXPECT_FALSE(store_.LookupLabel("Nobody").has_value());
}

// --- Node observers ---------------------------------------------------------

using Kind = NodeChange::Kind;

/// One reported change, with what the store showed for the node when it
/// was reported.
struct Seen {
  Kind kind;
  uint64_t id;
  std::vector<LabelId> labels;
  LabelId label;
  PropKeyId key;
  Value old_value;       // kPropChanged only
  bool reports_record;   // labels/props are the record's own members
  bool alive;            // the record's alive flag
  bool has_label;        // the record carries `label`
  Value record_value;    // the record's value of `key`
  std::vector<uint64_t> indexed;  // probe_value's hits in probe_index
};

/// Records every NodeChange. When `probe_index` is set, it also looks up
/// `probe_value` in that index at report time.
class RecordingObserver : public NodeObserver {
 public:
  explicit RecordingObserver(const GraphStore* store) : store_(store) {}

  void OnNodeChange(const NodeChange& c) override {
    const NodeRecord* n = store_->GetNode(c.id);
    Seen s{c.kind,
           c.id.value,
           c.labels,
           c.label,
           c.key,
           c.old_value != nullptr ? *c.old_value : Value::Null(),
           &c.labels == &n->labels && &c.props == &n->props,
           n->alive,
           n->HasLabel(c.label),
           store_->GetNodeProp(c.id, c.key),
           {}};
    if (probe_index != nullptr) probe_index->Lookup(probe_value, &s.indexed);
    seen.push_back(std::move(s));
  }

  std::vector<Seen> seen;
  const index::PropertyIndex* probe_index = nullptr;
  Value probe_value;

 private:
  const GraphStore* store_;
};

class NodeObserverTest : public ::testing::Test {
 protected:
  NodeObserverTest() {
    store_.AddNodeObserver(&rec_);
    a_ = store_.InternLabel("A");
    b_ = store_.InternLabel("B");
    x_ = store_.InternPropKey("x");
  }

  /// The changes reported since the last call.
  std::vector<Seen> Take() { return std::exchange(rec_.seen, {}); }

  RecordingObserver rec_{&store_};  // outlives store_ (declared first)
  GraphStore store_;
  LabelId a_ = 0, b_ = 0;
  PropKeyId x_ = 0;
};

TEST_F(NodeObserverTest, EachMutatorReportsOnceAfterTheRecordShowsIt) {
  PropMap props;
  props.Set(x_, Value::Int(1));
  const NodeId id = store_.CreateNode({a_}, props);
  std::vector<Seen> got = Take();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].kind, Kind::kAdded);
  EXPECT_EQ(got[0].id, id.value);
  EXPECT_EQ(got[0].labels, std::vector<LabelId>{a_});
  EXPECT_TRUE(got[0].reports_record);
  EXPECT_TRUE(got[0].alive);

  ASSERT_TRUE(store_.AddLabel(id, b_).value());
  got = Take();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].kind, Kind::kLabelAdded);
  EXPECT_EQ(got[0].label, b_);
  EXPECT_TRUE(got[0].has_label);
  EXPECT_EQ(got[0].labels, (std::vector<LabelId>{a_, b_}));

  ASSERT_TRUE(store_.RemoveLabel(id, b_).value());
  got = Take();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].kind, Kind::kLabelRemoved);
  EXPECT_EQ(got[0].label, b_);
  EXPECT_FALSE(got[0].has_label);
  EXPECT_EQ(got[0].labels, std::vector<LabelId>{a_});

  // No-op label changes report nothing.
  ASSERT_FALSE(store_.RemoveLabel(id, b_).value());
  ASSERT_TRUE(store_.AddLabel(id, a_).ok());
  EXPECT_TRUE(Take().empty());

  ASSERT_TRUE(store_.SetNodeProp(id, x_, Value::Int(2)).ok());
  got = Take();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].kind, Kind::kPropChanged);
  EXPECT_EQ(got[0].key, x_);
  EXPECT_EQ(got[0].old_value.ToString(), "1");
  EXPECT_EQ(got[0].record_value.ToString(), "2");

  ASSERT_TRUE(store_.SetNodeProp(id, x_, Value::Null()).ok());
  got = Take();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].kind, Kind::kPropChanged);
  EXPECT_EQ(got[0].old_value.ToString(), "2");
  EXPECT_TRUE(got[0].record_value.is_null());

  ASSERT_TRUE(store_.SetNodeProp(id, x_, Value::Int(3)).ok());
  Take();
  ASSERT_TRUE(store_.RemoveNodeProp(id, x_).ok());
  got = Take();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].kind, Kind::kPropChanged);
  EXPECT_EQ(got[0].old_value.ToString(), "3");
  EXPECT_TRUE(got[0].record_value.is_null());
  // Removing an absent property changes nothing and reports nothing.
  ASSERT_TRUE(store_.RemoveNodeProp(id, x_).ok());
  EXPECT_TRUE(Take().empty());

  ASSERT_TRUE(store_.SetNodeProp(id, x_, Value::Int(4)).ok());
  Take();
  ASSERT_TRUE(store_.DeleteNode(id).ok());
  got = Take();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].kind, Kind::kRemoved);
  EXPECT_TRUE(got[0].reports_record);
  EXPECT_FALSE(got[0].alive);
  // The tombstone keeps its final image.
  EXPECT_EQ(got[0].labels, std::vector<LabelId>{a_});
  EXPECT_EQ(got[0].record_value.ToString(), "4");

  ASSERT_TRUE(store_.ReviveNode(id, {a_, b_}, {}).ok());
  got = Take();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].kind, Kind::kAdded);
  EXPECT_TRUE(got[0].alive);
  EXPECT_EQ(got[0].labels, (std::vector<LabelId>{a_, b_}));

  // Relationship mutations are not node changes.
  const NodeId other = store_.CreateNode({}, {});
  Take();
  auto rel = store_.CreateRel(id, store_.InternRelType("R"), other, {});
  ASSERT_TRUE(rel.ok());
  ASSERT_TRUE(store_.SetRelProp(*rel, x_, Value::Int(1)).ok());
  ASSERT_TRUE(store_.DeleteRel(*rel).ok());
  EXPECT_TRUE(Take().empty());
}

TEST_F(NodeObserverTest, RolledBackTransactionReportsInverseChanges) {
  PropMap props;
  props.Set(x_, Value::Int(1));
  const NodeId kept = store_.CreateNode({a_}, props);
  const NodeId doomed = store_.CreateNode({a_}, props);
  Take();

  TransactionManager manager(&store_);
  auto tx = manager.Begin();
  ASSERT_TRUE(tx.ok());
  auto created = (*tx)->CreateNode({b_}, {});
  ASSERT_TRUE(created.ok());
  ASSERT_TRUE((*tx)->AddLabel(kept, b_).ok());
  ASSERT_TRUE((*tx)->SetNodeProp(kept, x_, Value::Int(5)).ok());
  ASSERT_TRUE((*tx)->DeleteNode(doomed, /*detach=*/false).ok());
  std::vector<Seen> got = Take();
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got[0].kind, Kind::kAdded);
  EXPECT_EQ(got[1].kind, Kind::kLabelAdded);
  EXPECT_EQ(got[2].kind, Kind::kPropChanged);
  EXPECT_EQ(got[3].kind, Kind::kRemoved);

  ASSERT_TRUE((*tx)->Rollback().ok());
  got = Take();
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got[0].kind, Kind::kAdded);
  EXPECT_EQ(got[0].id, doomed.value);
  EXPECT_TRUE(got[0].alive);
  EXPECT_EQ(got[1].kind, Kind::kPropChanged);
  EXPECT_EQ(got[1].id, kept.value);
  EXPECT_EQ(got[1].old_value.ToString(), "5");
  EXPECT_EQ(got[1].record_value.ToString(), "1");
  EXPECT_EQ(got[2].kind, Kind::kLabelRemoved);
  EXPECT_EQ(got[2].id, kept.value);
  EXPECT_EQ(got[2].label, b_);
  EXPECT_FALSE(got[2].has_label);
  EXPECT_EQ(got[3].kind, Kind::kRemoved);
  EXPECT_EQ(got[3].id, created->value);
  EXPECT_FALSE(got[3].alive);
}

TEST_F(NodeObserverTest, IndexesAreNotifiedBeforeLaterObservers) {
  auto idx = store_.CreateIndex(index::IndexSpec{a_, x_});
  ASSERT_TRUE(idx.ok()) << idx.status();
  rec_.probe_index = *idx;
  rec_.probe_value = Value::Int(7);
  const std::vector<uint64_t> none;

  PropMap props;
  props.Set(x_, Value::Int(7));
  const NodeId id = store_.CreateNode({a_}, props);
  const std::vector<uint64_t> just_id{id.value};
  ASSERT_TRUE(store_.SetNodeProp(id, x_, Value::Int(8)).ok());
  ASSERT_TRUE(store_.SetNodeProp(id, x_, Value::Int(7)).ok());
  ASSERT_TRUE(store_.RemoveLabel(id, a_).ok());
  ASSERT_TRUE(store_.AddLabel(id, a_).ok());
  ASSERT_TRUE(store_.DeleteNode(id).ok());
  ASSERT_TRUE(store_.ReviveNode(id, {a_}, props).ok());

  // Each report already sees the index updated for that change.
  const std::vector<Seen> got = Take();
  ASSERT_EQ(got.size(), 7u);
  EXPECT_EQ(got[0].indexed, just_id);  // created
  EXPECT_EQ(got[1].indexed, none);     // 7 -> 8
  EXPECT_EQ(got[2].indexed, just_id);  // 8 -> 7
  EXPECT_EQ(got[3].indexed, none);     // :A removed
  EXPECT_EQ(got[4].indexed, just_id);  // :A added
  EXPECT_EQ(got[5].indexed, none);     // deleted
  EXPECT_EQ(got[6].indexed, just_id);  // revived
}

}  // namespace
}  // namespace pgt
