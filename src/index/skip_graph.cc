#include "src/index/skip_graph.h"

#include <algorithm>

#include "src/util/assert.h"
#include "src/util/ckpt.h"

namespace presto {

SkipGraph::SkipGraph(uint64_t seed) : rng_(seed, /*stream=*/0x5347) {}

SkipGraph::Node* SkipGraph::EntryNode() const {
  if (nodes_.empty()) {
    return nullptr;
  }
  return nodes_.begin()->second.get();
}

// Descends from the entry node's top level toward the floor of `key` — the standard
// skip-graph search: at each level move right as far as possible without overshooting,
// then drop a level.
SkipGraph::Node* SkipGraph::FloorSearch(uint64_t key, int* hops) const {
  Node* cur = EntryNode();
  if (cur == nullptr) {
    return nullptr;
  }
  if (key < cur->key) {
    return nullptr;  // entry is leftmost, so nothing is <= key
  }
  for (int level = cur->Height() - 1; level >= 0; --level) {
    while (cur->right[static_cast<size_t>(level)] != nullptr &&
           cur->right[static_cast<size_t>(level)]->key <= key) {
      cur = cur->right[static_cast<size_t>(level)];
      if (hops != nullptr) {
        ++*hops;
      }
      // Invariant: a node linked at `level` has height > level, so indexing is safe
      // after the move. Descending within the same node costs nothing (local state).
    }
  }
  return cur;
}

int SkipGraph::Insert(uint64_t key, uint64_t value) {
  int hops = 0;
  auto existing = nodes_.find(key);
  if (existing != nodes_.end()) {
    existing->second->value = value;
    return 0;
  }

  auto owned = std::make_unique<Node>();
  Node* node = owned.get();
  node->key = key;
  node->value = value;
  node->membership = rng_.NextU64();

  // Level 0: splice into the global sorted list after the floor node.
  Node* floor = FloorSearch(key, &hops);
  node->left.assign(1, nullptr);
  node->right.assign(1, nullptr);
  if (floor == nullptr) {
    // New leftmost node: old entry (if any) becomes its right neighbour.
    Node* old_first = EntryNode();
    node->right[0] = old_first;
    if (old_first != nullptr) {
      old_first->left[0] = node;
    }
  } else {
    node->left[0] = floor;
    node->right[0] = floor->right[0];
    if (floor->right[0] != nullptr) {
      floor->right[0]->left[0] = node;
    }
    floor->right[0] = node;
  }

  // Higher levels: at level i, link with the nearest level-(i-1) neighbours sharing an
  // i-bit membership prefix; stop when neither side has one.
  for (int level = 1; level < 64; ++level) {
    Node* l = node->left[static_cast<size_t>(level - 1)];
    while (l != nullptr && !SharesPrefix(l->membership, node->membership, level)) {
      l = l->left[static_cast<size_t>(level - 1)];
      ++hops;
    }
    Node* r = node->right[static_cast<size_t>(level - 1)];
    while (r != nullptr && !SharesPrefix(r->membership, node->membership, level)) {
      r = r->right[static_cast<size_t>(level - 1)];
      ++hops;
    }
    if (l == nullptr && r == nullptr) {
      break;
    }
    node->left.push_back(l);
    node->right.push_back(r);
    if (l != nullptr) {
      if (l->Height() <= level) {
        l->left.resize(static_cast<size_t>(level) + 1, nullptr);
        l->right.resize(static_cast<size_t>(level) + 1, nullptr);
      }
      l->right[static_cast<size_t>(level)] = node;
    }
    if (r != nullptr) {
      if (r->Height() <= level) {
        r->left.resize(static_cast<size_t>(level) + 1, nullptr);
        r->right.resize(static_cast<size_t>(level) + 1, nullptr);
      }
      r->left[static_cast<size_t>(level)] = node;
    }
  }

  nodes_.emplace(key, std::move(owned));
  return hops;
}

bool SkipGraph::Erase(uint64_t key) {
  auto it = nodes_.find(key);
  if (it == nodes_.end()) {
    return false;
  }
  Node* node = it->second.get();
  for (int level = 0; level < node->Height(); ++level) {
    Node* l = node->left[static_cast<size_t>(level)];
    Node* r = node->right[static_cast<size_t>(level)];
    if (l != nullptr && l->Height() > level) {
      l->right[static_cast<size_t>(level)] = r;
    }
    if (r != nullptr && r->Height() > level) {
      r->left[static_cast<size_t>(level)] = l;
    }
  }
  nodes_.erase(it);
  return true;
}

SkipGraph::SearchStats SkipGraph::Search(uint64_t key) const {
  SearchStats stats;
  Node* floor = FloorSearch(key, &stats.hops);
  Node* entry = EntryNode();
  stats.levels_used = entry != nullptr ? entry->Height() : 0;
  if (floor != nullptr) {
    stats.key = floor->key;
    stats.value = floor->value;
    stats.found = floor->key == key;
  }
  return stats;
}

SkipGraph::SearchStats SkipGraph::SearchFloor(uint64_t key) const {
  SearchStats stats;
  Node* floor = FloorSearch(key, &stats.hops);
  if (floor != nullptr) {
    stats.found = true;
    stats.key = floor->key;
    stats.value = floor->value;
  }
  return stats;
}

std::vector<std::pair<uint64_t, uint64_t>> SkipGraph::RangeQuery(uint64_t lo, uint64_t hi,
                                                                 int* hops) const {
  std::vector<std::pair<uint64_t, uint64_t>> out;
  int local_hops = 0;
  Node* cur = FloorSearch(lo, &local_hops);
  if (cur == nullptr) {
    cur = EntryNode();  // everything is above lo; start from the leftmost node
  } else if (cur->key < lo) {
    cur = cur->right[0];
    ++local_hops;
  }
  while (cur != nullptr && cur->key <= hi) {
    out.emplace_back(cur->key, cur->value);
    cur = cur->right[0];
    ++local_hops;
  }
  if (hops != nullptr) {
    *hops += local_hops;
  }
  return out;
}

int SkipGraph::MaxLevel() const {
  int level = 0;
  for (const auto& [key, node] : nodes_) {
    (void)key;
    level = std::max(level, node->Height());
  }
  return level;
}

bool SkipGraph::CheckInvariants() const {
  for (const auto& [key, node] : nodes_) {
    (void)key;
    for (int level = 0; level < node->Height(); ++level) {
      Node* r = node->right[static_cast<size_t>(level)];
      if (r != nullptr) {
        if (r->key <= node->key) {
          return false;
        }
        if (r->Height() <= level || r->left[static_cast<size_t>(level)] != node.get()) {
          return false;
        }
        if (!SharesPrefix(r->membership, node->membership, level)) {
          return false;
        }
      }
      Node* l = node->left[static_cast<size_t>(level)];
      if (l != nullptr) {
        if (l->key >= node->key) {
          return false;
        }
        if (l->Height() <= level || l->right[static_cast<size_t>(level)] != node.get()) {
          return false;
        }
      }
    }
  }
  return true;
}

}  // namespace presto

namespace presto {

void SkipGraph::SaveState(ByteWriter& w) const {
  CkptWrite(w, rng_);
  w.WriteVarU64(nodes_.size());
  for (const auto& [key, node] : nodes_) {
    CkptWrite(w, key);
    CkptWrite(w, node->value);
    CkptWrite(w, node->membership);
    CkptWrite(w, static_cast<uint64_t>(node->Height()));
  }
}

void SkipGraph::LoadState(ByteReader& r) {
  CkptRead(r, rng_);
  const uint64_t count = r.ReadVarU64();
  if (!r.ok()) {
    return;
  }
  if (count > r.remaining()) {
    return r.Fail(DataLossError("skip graph restore: node count exceeds section bytes"));
  }
  nodes_.clear();
  int max_height = 0;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t key = 0;
    uint64_t value = 0;
    uint64_t membership = 0;
    uint64_t height = 0;
    CkptRead(r, key);
    CkptRead(r, value);
    CkptRead(r, membership);
    CkptRead(r, height);
    if (height == 0 || height > 64) {  // a failed read leaves it 0
      return r.Fail(DataLossError("skip graph restore: bad node height"));
    }
    auto node = std::make_unique<Node>();
    node->key = key;
    node->value = value;
    node->membership = membership;
    node->left.assign(static_cast<size_t>(height), nullptr);
    node->right.assign(static_cast<size_t>(height), nullptr);
    max_height = std::max(max_height, static_cast<int>(height));
    if (!nodes_.emplace(key, std::move(node)).second) {
      return r.Fail(DataLossError("skip graph restore: duplicate key"));
    }
  }
  // Relink: the level-L lists partition {nodes with Height > L} by the low L bits of
  // membership, sorted by key — the exact structure Insert/Erase maintain.
  for (int level = 0; level < max_height; ++level) {
    const uint64_t mask = level == 0 ? 0 : (1ULL << level) - 1;
    std::map<uint64_t, Node*> last_in_group;
    for (auto& [key, node] : nodes_) {
      (void)key;
      if (node->Height() <= level) {
        continue;
      }
      auto [it, inserted] = last_in_group.emplace(node->membership & mask, node.get());
      if (!inserted) {
        Node* prev = it->second;
        prev->right[static_cast<size_t>(level)] = node.get();
        node->left[static_cast<size_t>(level)] = prev;
        it->second = node.get();
      }
    }
  }
}

}  // namespace presto
