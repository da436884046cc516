// Canonical digests for the correctness gate.
//
// The graph digest does not depend on node or relationship ids, nor on
// the order records were created in: each node hashes its sorted label
// names and its properties sorted by key name; each relationship hashes
// its type, properties and both endpoint hashes; the digest is the sum of
// all record hashes. A graph rebuilt by WAL replay, or produced by the
// traced write path, therefore agrees with the original.
#ifndef PGT_PERFBENCH_DIGEST_H_
#define PGT_PERFBENCH_DIGEST_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/trigger/database.h"

namespace perfbench {

inline uint64_t Mix(uint64_t h, uint64_t v) {
  uint64_t z = h ^ (v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2));
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

inline uint64_t HashStr(std::string_view s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) h = (h ^ c) * 0x100000001b3ull;
  return h;
}

struct GraphDigest {
  uint64_t graph = 0;
  uint64_t nodes = 0;
  uint64_t rels = 0;

  bool operator==(const GraphDigest& o) const {
    return graph == o.graph && nodes == o.nodes && rels == o.rels;
  }
  std::string Hex() const {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%016llx/%llu/%llu",
                  static_cast<unsigned long long>(graph),
                  static_cast<unsigned long long>(nodes),
                  static_cast<unsigned long long>(rels));
    return buf;
  }
};

/// Digest of the live graph.
inline GraphDigest DigestGraph(const pgt::GraphStore& store) {
  auto hash_props = [&](uint64_t h, const pgt::PropMap& props) {
    std::vector<std::pair<std::string_view, const pgt::Value*>> sorted;
    for (const auto& [key, value] : props) {
      sorted.emplace_back(store.PropKeyName(key), &value);
    }
    std::sort(sorted.begin(), sorted.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [key, value] : sorted) {
      h = Mix(Mix(h, HashStr(key)), HashStr(value->ToString()));
    }
    return h;
  };
  GraphDigest d;
  std::unordered_map<uint64_t, uint64_t> node_hash;
  for (pgt::NodeId id : store.AllNodes()) {
    const pgt::NodeRecord* n = store.GetNode(id);
    std::vector<std::string_view> labels;
    for (pgt::LabelId l : n->labels) labels.push_back(store.LabelName(l));
    std::sort(labels.begin(), labels.end());
    uint64_t h = 1;
    for (std::string_view l : labels) h = Mix(h, HashStr(l));
    h = hash_props(Mix(h, 0x6e6f6465), n->props);
    node_hash[id.value] = h;
    d.graph += h;
    ++d.nodes;
  }
  for (pgt::RelId id : store.AllRels()) {
    const pgt::RelRecord* r = store.GetRel(id);
    uint64_t h = Mix(2, HashStr(store.RelTypeName(r->type)));
    h = hash_props(
        Mix(Mix(h, node_hash.at(r->src.value)), node_hash.at(r->dst.value)),
        r->props);
    d.graph += h;
    ++d.rels;
  }
  return d;
}

/// Digest of per-trigger considered / fired / action_rows counters.
inline uint64_t DigestTriggerStats(pgt::Database& db) {
  uint64_t h = 3;
  for (const auto& [name, st] : db.stats().per_trigger) {
    h = Mix(Mix(Mix(Mix(h, HashStr(name)), st.considered), st.fired),
            st.action_rows);
  }
  return h;
}

}  // namespace perfbench

#endif  // PGT_PERFBENCH_DIGEST_H_
