#include "src/ivm/ivm_manager.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/common/fault.h"
#include "src/cypher/eval.h"
#include "src/cypher/plan/plan_executor.h"
#include "src/storage/graph_store.h"
#include "src/trigger/options.h"

namespace pgt::ivm {

namespace {

// Container-entry overhead charged against max_ivm_state_bytes, on top of
// the key value's own payload. Rough (node-pointer-sized) but consistent
// between insert and erase, which is what the accounting needs.
constexpr int64_t kUnkeyedEntryBytes = 16;
constexpr int64_t kKeyedEntryBytes = 48;

/// Approximate resident bytes of a value (string/list/map payloads).
int64_t ValueBytes(const Value& v) {
  int64_t b = static_cast<int64_t>(sizeof(Value));
  if (v.is_string()) {
    b += static_cast<int64_t>(v.string_value().size());
  } else if (v.is_list()) {
    for (const Value& e : v.list_value()) b += ValueBytes(e);
  } else if (v.is_map()) {
    for (const auto& [k, e] : v.map_value()) {
      b += static_cast<int64_t>(k.size()) + ValueBytes(e);
    }
  }
  return b;
}

/// Safe to key a band bucket: IndexKeyEq must make the value equal to
/// itself (NaN is not) and the band relation must cover every match
/// (scalar bands do; lists/maps take the linear odd_ path).
bool BandSafe(const Value& v) {
  if (v.is_list() || v.is_map()) return false;
  if (v.is_double() && std::isnan(v.double_value())) return false;
  return true;
}

/// One node-local predicate, under exactly the matcher's semantics for its
/// source form: inline property maps use Value::Equals with NULL failing
/// either side; WHERE comparisons use EvalBinaryOp (never errors for
/// comparison ops; NULL / incomparable yields NULL, which EvalPredicate
/// reads as false).
bool PredPasses(const IvmPred& p, const Value& have) {
  if (p.inline_eq) {
    return !have.is_null() && !p.literal.is_null() && have.Equals(p.literal);
  }
  auto r = cypher::EvalBinaryOp(p.op, have, p.literal, 0, 0);
  return r.ok() && r.value().is_bool() && r.value().bool_value();
}

/// Keyed-probe recheck: does a maintained key value match the comparand
/// under the keyed predicate's own equality family?
bool KeyMatches(const IvmPred& key_pred, const Value& have,
                const Value& want) {
  if (key_pred.inline_eq) {
    return !have.is_null() && !want.is_null() && have.Equals(want);
  }
  auto r = cypher::EvalBinaryOp(cypher::BinOp::kEq, have, want, 0, 0);
  return r.ok() && r.value().is_bool() && r.value().bool_value();
}

}  // namespace

const char* IvmModeName(IvmMode mode) {
  switch (mode) {
    case IvmMode::kPending:
      return "pending";
    case IvmMode::kMaintained:
      return "maintained";
    case IvmMode::kFallback:
      return "fallback";
    case IvmMode::kDegraded:
      return "degraded";
  }
  return "unknown";
}

// ============================================================================
// TriggerIvmState
// ============================================================================

bool TriggerIvmState::WatchesKey(PropKeyId key) const {
  if (shape_.keyed && keyed_key_id_ == key) return true;
  for (const IvmPred& p : shape_.preds) {
    if (p.key_id == key) return true;
  }
  return false;
}

void TriggerIvmState::Probe(const Value& want,
                            std::vector<uint64_t>* out) const {
  if (want.is_null()) return;  // NULL comparand matches nothing either way
  if (BandSafe(want)) {
    auto it = bands_.find(want);
    if (it != bands_.end()) {
      for (uint64_t id : it->second) {
        if (KeyMatches(shape_.key_pred, exact_.at(id), want)) {
          out->push_back(id);
        }
      }
    }
  }
  // Band-unsafe maintained keys (NaN/list/map) can only be found linearly;
  // a band-safe want can never match them except NaN==NaN under WHERE `=`
  // (total order), which the recheck decides either way.
  for (uint64_t id : odd_) {
    if (KeyMatches(shape_.key_pred, exact_.at(id), want)) out->push_back(id);
  }
  std::sort(out->begin(), out->end());  // firing emission is id-ordered
}

bool TriggerIvmState::CollectFrames(cypher::plan::PlanExecutor& exec,
                                    cypher::plan::Frame& seed,
                                    std::vector<cypher::plan::Frame>* out) {
  if (mode_ != IvmMode::kMaintained) return false;

  // Residual conjuncts (transition variables only) gate the whole firing:
  // the matcher would evaluate them unchanged on every emitted row. An
  // evaluation error must surface through the oracle path so the firing
  // fails exactly as it would have (and only if rows exist to fail on).
  for (const cypher::plan::PExpr* r : shape_.residuals) {
    auto pass = exec.EvalPredicate(*r, seed);
    if (!pass.ok()) {
      ++fallback_firings_;
      return false;
    }
    if (!pass.value()) {
      ++served_;
      return true;  // zero rows; out untouched
    }
  }

  std::vector<uint64_t> ids;
  if (shape_.keyed) {
    auto want = exec.Eval(*shape_.key_comparand, seed);
    if (!want.ok()) {
      ++fallback_firings_;
      return false;
    }
    Probe(want.value(), &ids);
  } else {
    ids.assign(rows_.begin(), rows_.end());
  }

  for (uint64_t id : ids) {
    cypher::plan::Frame f = exec.CopyFrame(seed);
    if (shape_.x_slot >= 0) f.Set(shape_.x_slot, Value::Node(NodeId{id}));
    out->push_back(std::move(f));
  }
  ++served_;
  return true;
}

// ============================================================================
// IvmManager
// ============================================================================

IvmManager::IvmManager(GraphStore* store, const EngineOptions* options)
    : store_(store), options_(options) {}

IvmManager::~IvmManager() = default;

TriggerIvmState* IvmManager::Acquire(
    const TriggerDef& def, const std::shared_ptr<const TriggerPlans>& plans,
    uint64_t epoch) {
  if (!pending_.empty()) TryResolvePending();
  auto it = states_.find(def.name);
  TriggerIvmState* st;
  if (it == states_.end()) {
    auto owned = std::make_unique<TriggerIvmState>();
    st = owned.get();
    st->name_ = def.name;
    st->plans_ = plans;
    st->epoch_ = epoch;
    IvmLowering low = LowerForIvm(def, plans->program);
    if (!low.supported) {
      st->mode_ = IvmMode::kFallback;
      st->reason_ = std::move(low.reason);
    } else {
      st->shape_ = std::move(low.shape);
      st->mode_ = IvmMode::kPending;
      if (!TryActivate(st)) pending_.push_back(st);
    }
    states_.emplace(def.name, std::move(owned));
  } else {
    st = it->second.get();
    if (st->epoch_ != epoch || st->plans_.get() != plans.get()) {
      Revalidate(st, def, plans, epoch);
    }
  }
  return st->mode_ == IvmMode::kMaintained ? st : nullptr;
}

void IvmManager::Revalidate(TriggerIvmState* st, const TriggerDef& def,
                            const std::shared_ptr<const TriggerPlans>& plans,
                            uint64_t epoch) {
  st->epoch_ = epoch;
  std::shared_ptr<const TriggerPlans> old_plans = std::move(st->plans_);
  st->plans_ = plans;
  if (st->mode_ == IvmMode::kFallback || st->mode_ == IvmMode::kDegraded) {
    // Sticky modes hold no pointers into the program; nothing to re-lower.
    return;
  }
  IvmLowering low = LowerForIvm(def, plans->program);
  // Lowering is a pure function of the (immutable) definition, so a
  // recompile yields the same shape with fresh expression pointers.
  const bool same_shape =
      low.supported && low.shape.labels == st->shape_.labels &&
      low.shape.preds.size() == st->shape_.preds.size() &&
      low.shape.keyed == st->shape_.keyed &&
      low.shape.x_slot == st->shape_.x_slot &&
      low.shape.residuals.size() == st->shape_.residuals.size() &&
      (!low.shape.keyed ||
       low.shape.key_pred.key == st->shape_.key_pred.key);
  if (same_shape && st->mode_ == IvmMode::kMaintained) {
    // Cheap revalidation: swap the expression pointers, keep the
    // maintained contents (their semantics depend only on the shape).
    st->shape_.key_comparand = low.shape.key_comparand;
    st->shape_.residuals = std::move(low.shape.residuals);
    ++st->revalidations_;
    return;
  }
  if (st->mode_ == IvmMode::kPending) {
    if (low.supported) {
      st->shape_ = std::move(low.shape);
      if (TryActivate(st)) {
        pending_.erase(std::remove(pending_.begin(), pending_.end(), st),
                       pending_.end());
      }
    } else {
      pending_.erase(std::remove(pending_.begin(), pending_.end(), st),
                     pending_.end());
      st->mode_ = IvmMode::kFallback;
      st->reason_ = std::move(low.reason);
    }
    return;
  }
  // Defensive full rebuild (shape drift should be impossible).
  RemoveDispatch(st);
  st->rows_.clear();
  st->bands_.clear();
  st->odd_.clear();
  st->exact_.clear();
  st->bytes_ = 0;
  st->label_ids_.clear();
  ++st->rebuilds_;
  if (!low.supported) {
    st->mode_ = IvmMode::kFallback;
    st->reason_ = std::move(low.reason);
    return;
  }
  st->shape_ = std::move(low.shape);
  st->mode_ = IvmMode::kPending;
  if (!TryActivate(st)) pending_.push_back(st);
}

bool IvmManager::TryActivate(TriggerIvmState* st) {
  std::vector<LabelId> lids;
  lids.reserve(st->shape_.labels.size());
  for (const std::string& name : st->shape_.labels) {
    auto id = store_->LookupLabel(name);
    if (!id.has_value()) return false;
    lids.push_back(*id);
  }
  for (IvmPred& p : st->shape_.preds) {
    auto id = store_->LookupPropKey(p.key);
    if (!id.has_value()) return false;
    p.key_id = *id;
  }
  if (st->shape_.keyed) {
    auto id = store_->LookupPropKey(st->shape_.key_pred.key);
    if (!id.has_value()) return false;
    st->shape_.key_pred.key_id = *id;
    st->keyed_key_id_ = *id;
  }
  st->label_ids_ = std::move(lids);
  st->mode_ = IvmMode::kMaintained;
  ++counters_.resolutions;

  std::vector<LabelId> dedup = st->label_ids_;
  std::sort(dedup.begin(), dedup.end());
  dedup.erase(std::unique(dedup.begin(), dedup.end()), dedup.end());
  for (LabelId l : dedup) by_label_[l].push_back(st);

  // Seed from the most selective required label; membership re-checks the
  // rest, so one scan suffices.
  LabelId best = st->label_ids_.front();
  size_t best_card = store_->LabelCardinality(best);
  for (LabelId l : st->label_ids_) {
    const size_t card = store_->LabelCardinality(l);
    if (card < best_card) {
      best = l;
      best_card = card;
    }
  }
  ++st->seeds_;
  ++counters_.seeds;
  for (NodeId id : store_->NodesByLabel(best)) {
    MaintainNode(st, id);
    if (st->mode_ != IvmMode::kMaintained) break;  // degraded mid-seed
  }
  return true;
}

void IvmManager::TryResolvePending() {
  if (pending_.empty()) return;
  std::vector<TriggerIvmState*> still;
  for (TriggerIvmState* st : pending_) {
    if (st->mode_ != IvmMode::kPending || TryActivate(st)) continue;
    still.push_back(st);
  }
  pending_ = std::move(still);
}

bool IvmManager::ComputeMembership(const TriggerIvmState& st, NodeId id,
                                   Value* key_out) const {
  const NodeRecord* n = store_->GetNode(id);
  if (n == nullptr || !n->alive) return false;
  for (LabelId l : st.label_ids_) {
    if (!n->HasLabel(l)) return false;
  }
  for (const IvmPred& p : st.shape_.preds) {
    if (!PredPasses(p, store_->GetNodeProp(id, p.key_id))) return false;
  }
  if (st.shape_.keyed) {
    Value kv = store_->GetNodeProp(id, st.keyed_key_id_);
    // NULL key values match nothing under either equality family, so they
    // are not materialized at all.
    if (kv.is_null()) return false;
    if (key_out != nullptr) *key_out = std::move(kv);
  }
  return true;
}

void IvmManager::MaintainNode(TriggerIvmState* st, NodeId id) {
  ++st->maintain_ops_;
  ++counters_.maintain_ops;
  // Chaos hook: an injected maintenance failure must not fail the mutation
  // that triggered it — the state degrades to the (semantically identical)
  // re-match path instead.
  if (Status f = FaultRegistry::Global().Hit("ivm.maintain"); !f.ok()) {
    Degrade(st, "maintenance fault: " + f.ToString());
    return;
  }
  StateErase(st, id.value);
  Value kv;
  if (!ComputeMembership(*st, id, &kv)) return;
  if (!st->shape_.keyed) {
    st->rows_.insert(id.value);
    st->bytes_ += kUnkeyedEntryBytes;
  } else {
    if (BandSafe(kv)) {
      st->bands_[kv].insert(id.value);
    } else {
      st->odd_.insert(id.value);
    }
    st->bytes_ += kKeyedEntryBytes + ValueBytes(kv);
    st->exact_.emplace(id.value, std::move(kv));
  }
  const int64_t cap = options_->max_ivm_state_bytes;
  if (cap > 0 && st->bytes_ > cap) {
    Degrade(st, "state exceeded max_ivm_state_bytes (" +
                    std::to_string(cap) + ")");
  }
}

void IvmManager::StateErase(TriggerIvmState* st, uint64_t id) {
  if (!st->shape_.keyed) {
    if (st->rows_.erase(id) > 0) st->bytes_ -= kUnkeyedEntryBytes;
    return;
  }
  auto it = st->exact_.find(id);
  if (it == st->exact_.end()) return;
  const Value& kv = it->second;
  if (BandSafe(kv)) {
    auto b = st->bands_.find(kv);
    if (b != st->bands_.end()) {
      b->second.erase(id);
      if (b->second.empty()) st->bands_.erase(b);
    }
  } else {
    st->odd_.erase(id);
  }
  st->bytes_ -= kKeyedEntryBytes + ValueBytes(kv);
  st->exact_.erase(it);
}

void IvmManager::Degrade(TriggerIvmState* st, std::string reason) {
  st->mode_ = IvmMode::kDegraded;
  st->reason_ = std::move(reason);
  st->rows_.clear();
  st->bands_.clear();
  st->odd_.clear();
  st->exact_.clear();
  st->bytes_ = 0;
  ++counters_.degradations;
  // Dispatch entries stay (OnNodeChange skips non-maintained states); they
  // are reclaimed when the trigger is dropped / disabled.
}

void IvmManager::RemoveDispatch(TriggerIvmState* st) {
  for (auto& [label, vec] : by_label_) {
    (void)label;
    vec.erase(std::remove(vec.begin(), vec.end(), st), vec.end());
  }
}

void IvmManager::Unregister(const std::string& name) {
  auto it = states_.find(name);
  if (it == states_.end()) return;
  TriggerIvmState* st = it->second.get();
  RemoveDispatch(st);
  pending_.erase(std::remove(pending_.begin(), pending_.end(), st),
                 pending_.end());
  states_.erase(it);
}

void IvmManager::UnregisterAll() {
  by_label_.clear();
  pending_.clear();
  states_.clear();
}

const TriggerIvmState* IvmManager::Find(const std::string& name) const {
  auto it = states_.find(name);
  return it == states_.end() ? nullptr : it->second.get();
}

std::vector<const TriggerIvmState*> IvmManager::States() const {
  std::vector<const TriggerIvmState*> out;
  out.reserve(states_.size());
  for (const auto& [name, st] : states_) {
    (void)name;
    out.push_back(st.get());
  }
  return out;
}

void IvmManager::OnNodeChange(const NodeChange& c) {
  if (states_.empty()) return;
  TryResolvePending();
  const uint64_t token = ++op_token_;
  const bool prop = c.kind == NodeChange::Kind::kPropChanged;
  auto touch = [&](LabelId l) {
    auto it = by_label_.find(l);
    if (it == by_label_.end()) return;
    for (TriggerIvmState* st : it->second) {
      if (st->mode_ != IvmMode::kMaintained || st->last_token_ == token ||
          (prop && !st->WatchesKey(c.key))) {
        continue;
      }
      st->last_token_ = token;
      MaintainNode(st, c.id);
    }
  };
  if (c.kind == NodeChange::Kind::kLabelAdded ||
      c.kind == NodeChange::Kind::kLabelRemoved) {
    touch(c.label);
  }
  for (LabelId l : c.labels) touch(l);
}

Status IvmManager::VerifyAgainstStore() const {
  for (const auto& [name, st_owned] : states_) {
    const TriggerIvmState& st = *st_owned;
    if (st.mode_ != IvmMode::kMaintained) continue;
    size_t expected = 0;
    const uint64_t bound = store_->NodeIdBound();
    for (uint64_t raw = 0; raw < bound; ++raw) {
      const NodeId id{raw};
      Value kv;
      const bool member =
          ComputeMembership(st, id, st.shape_.keyed ? &kv : nullptr);
      const bool held = st.shape_.keyed ? st.exact_.count(raw) > 0
                                        : st.rows_.count(raw) > 0;
      if (member != held) {
        return Status::Internal(
            "ivm state '" + name + "' diverges at node " +
            std::to_string(raw) + ": expected " +
            (member ? "member" : "absent") + ", state says " +
            (held ? "member" : "absent"));
      }
      if (member) {
        ++expected;
        if (st.shape_.keyed) {
          const Value& have = st.exact_.at(raw);
          if (!have.Equals(kv) && !(have.is_null() && kv.is_null())) {
            return Status::Internal("ivm state '" + name +
                                    "' holds a stale key value at node " +
                                    std::to_string(raw));
          }
          const bool in_band = BandSafe(have)
                                   ? [&] {
                                       auto b = st.bands_.find(have);
                                       return b != st.bands_.end() &&
                                              b->second.count(raw) > 0;
                                     }()
                                   : st.odd_.count(raw) > 0;
          if (!in_band) {
            return Status::Internal("ivm state '" + name +
                                    "' lost the band entry for node " +
                                    std::to_string(raw));
          }
        }
      }
    }
    if (expected != st.tuples()) {
      return Status::Internal(
          "ivm state '" + name + "' tuple count diverges: expected " +
          std::to_string(expected) + ", state holds " +
          std::to_string(st.tuples()));
    }
  }
  return Status::OK();
}

}  // namespace pgt::ivm
