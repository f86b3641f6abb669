// Skip graph (Aspnes & Shah, SODA 2003), the order-preserving distributed index the
// paper proposes for the unified data abstraction (§5).
//
// We implement the full structure — membership vectors, per-level doubly linked rings,
// O(log n) search/insert/delete — as an in-memory index that *counts traversal hops*.
// In a deployment each hop is a proxy-to-proxy message, so hop counts are the
// distributed cost model benches report (ablation A6).

#ifndef SRC_INDEX_SKIP_GRAPH_H_
#define SRC_INDEX_SKIP_GRAPH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "src/util/result.h"
#include "src/util/rng.h"

namespace presto {

class ByteReader;
class ByteWriter;

class SkipGraph {
 public:
  explicit SkipGraph(uint64_t seed);
  SkipGraph(const SkipGraph&) = delete;
  SkipGraph& operator=(const SkipGraph&) = delete;

  struct SearchStats {
    bool found = false;
    uint64_t key = 0;    // key of the node where the search stopped (floor key)
    uint64_t value = 0;
    int hops = 0;        // inter-node traversals (messages in a distributed setting)
    int levels_used = 0;
  };

  // Inserts or overwrites. Returns the hop count of the placement search.
  int Insert(uint64_t key, uint64_t value);

  // Removes a key; false if absent.
  bool Erase(uint64_t key);

  // Exact lookup.
  SearchStats Search(uint64_t key) const;

  // Largest key <= `key` (useful for "which proxy owns this range" routing).
  SearchStats SearchFloor(uint64_t key) const;

  // All (key, value) pairs with key in [lo, hi], in order. `hops` accumulates the
  // search plus the level-0 walk.
  std::vector<std::pair<uint64_t, uint64_t>> RangeQuery(uint64_t lo, uint64_t hi,
                                                        int* hops) const;

  size_t size() const { return nodes_.size(); }
  int MaxLevel() const;

  // Structural invariant check for tests: every level list is sorted and doubly linked,
  // and level-i neighbours share i bits of membership prefix.
  bool CheckInvariants() const;

  // Checkpoint codec. Links are not serialized: the level-L lists partition the nodes
  // of height > L by the low L bits of membership, in key order, so (key, value,
  // membership, height) per node plus the RNG rebuild the structure exactly.
  void SaveState(ByteWriter& w) const;
  void LoadState(ByteReader& r);

 private:
  struct Node {
    uint64_t key = 0;
    uint64_t value = 0;
    uint64_t membership = 0;  // random bit string; level i groups share low i bits
    std::vector<Node*> left;   // per-level predecessor (nullptr at list ends)
    std::vector<Node*> right;  // per-level successor

    int Height() const { return static_cast<int>(left.size()); }
  };

  static bool SharesPrefix(uint64_t a, uint64_t b, int bits) {
    if (bits >= 64) {
      return a == b;
    }
    const uint64_t mask = (1ULL << bits) - 1;
    return (a & mask) == (b & mask);
  }

  // Entry point for searches: the leftmost node (a deployment would use any node).
  Node* EntryNode() const;
  // Level-0 floor search starting at `from`, counting hops.
  Node* FloorSearch(uint64_t key, int* hops) const;

  mutable Pcg32 rng_;
  std::map<uint64_t, std::unique_ptr<Node>> nodes_;  // ownership + O(log n) local access
};

}  // namespace presto

#endif  // SRC_INDEX_SKIP_GRAPH_H_
