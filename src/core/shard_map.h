// Sensor→proxy shard map (paper §5): the mutable, versioned ownership table that turns
// one logical deployment into N proxy shards.
//
// Two placement policies seed the initial assignment:
//  - kGeographic: contiguous blocks of the global sensor index. Sensor indices are the
//    spatial layout (the workload correlates nearby indices), so a block shard keeps a
//    proxy's sensors spatially close — one radio neighbourhood per proxy, and spatial
//    model sharing stays intra-proxy. Non-divisible populations spread the remainder so
//    shard sizes differ by at most one (no proxy is ever left with an empty shard).
//  - kHash: stateless integer hash of the global index. Spreads hot spatial regions
//    across proxies so query load balances even when user interest is localised.
//
// After construction the table is *live*: MigrateSensor reassigns one sensor to a new
// owner (the deployment's rebalancer and failover paths drive this), and every mutation
// bumps version() so downstream caches can detect staleness.
//
// On top of home ownership the map tracks a per-sensor *acting owner* overlay: while a
// home proxy is down its sensors are served by a promoted replica, and SetActingOwner
// records that indirection. ServedBy(p) is the incrementally maintained inverse index
// (proxy -> sensors it currently serves), which is what keeps the deployment's
// promotion, hand-back, and load-accounting paths O(shard) instead of O(total).
//
// Replication is K-way: each proxy's shard is replicated to the next
// `replication_factor - 1` distinct ring successors (ReplicaSetOf). Replica sets never
// contain the owner and never contain duplicates — with a single proxy the set is
// empty. ReplicaOf keeps the PR-1 single-successor view (the head of the set).

#ifndef SRC_CORE_SHARD_MAP_H_
#define SRC_CORE_SHARD_MAP_H_

#include <cstdint>
#include <vector>

#include "src/util/result.h"

namespace presto {

class ByteReader;
class ByteWriter;

enum class ShardPolicy : uint8_t {
  kGeographic = 0,  // contiguous index blocks (spatially local shards)
  kHash = 1,        // hashed spread (load-balanced shards)
};
constexpr bool CkptEnumValid(ShardPolicy v) { return v <= ShardPolicy::kHash; }

const char* ShardPolicyName(ShardPolicy policy);

class ShardMap {
 public:
  // `replication_factor` is the total copy count including the owner (K-way); the
  // effective standby count is min(replication_factor - 1, num_proxies - 1).
  ShardMap(int num_proxies, int total_sensors, ShardPolicy policy,
           int replication_factor = 2);

  int OwnerOf(int global_sensor_index) const;

  // Ordered standby successors holding replicas of `proxy_index`'s shard: the next
  // replication_factor - 1 distinct proxies on the ring. Excludes the owner, deduped;
  // empty when there is nowhere to replicate (single proxy).
  const std::vector<int>& ReplicaSetOf(int proxy_index) const;

  // First standby replica (PR-1 compatibility view of the set). With a single proxy
  // there is nowhere to replicate; returns `proxy_index` itself.
  int ReplicaOf(int proxy_index) const;

  // Global sensor indices owned by `proxy_index`, ascending.
  const std::vector<int>& SensorsOf(int proxy_index) const;

  // Reassigns one sensor to `new_owner` and bumps version(). Returns false (no
  // version bump) when `new_owner` already owns the sensor. Sensors currently in
  // failover (acting owner != home) must be handed back before migrating.
  bool MigrateSensor(int global_sensor_index, int new_owner);

  // --- acting-owner overlay (failover indirection) ---
  // The proxy currently serving the sensor: the home owner, or the promoted replica
  // recorded by SetActingOwner while the home proxy is down.
  int ActingOwnerOf(int global_sensor_index) const;
  // True while a promoted replica (not the home owner) serves the sensor.
  bool InFailover(int global_sensor_index) const;
  // Records `proxy_index` as the sensor's acting owner; passing the home owner clears
  // the overlay (hand-back). Updates ServedBy incrementally and bumps version() on
  // change. Returns false when `proxy_index` already serves the sensor.
  bool SetActingOwner(int global_sensor_index, int proxy_index);
  // Global sensor indices currently *served* by `proxy_index` (acting-owner view:
  // home sensors not promoted away, plus foreign sensors it was promoted for),
  // ascending.
  const std::vector<int>& ServedBy(int proxy_index) const;

  // Monotone mutation counter: 0 at construction, +1 per successful MigrateSensor or
  // acting-owner change.
  uint64_t version() const { return version_; }

  int num_proxies() const { return num_proxies_; }
  int total_sensors() const { return total_sensors_; }
  ShardPolicy policy() const { return policy_; }
  int replication_factor() const { return replication_factor_; }

  // Shard balance introspection (benches report the spread).
  int MinShardSize() const;
  int MaxShardSize() const;

  // Checkpoint codec: version counter plus the owner and acting-owner tables; the
  // by-proxy and served-by inverse indices are rebuilt (ascending, exactly as the
  // incremental maintenance leaves them). The replica ring is construction-static.
  void SaveState(ByteWriter& w) const;
  void LoadState(ByteReader& r);

 private:
  int num_proxies_;
  int total_sensors_;
  ShardPolicy policy_;
  int replication_factor_;
  uint64_t version_ = 0;
  std::vector<int> owner_;                     // global index -> home proxy index
  std::vector<int> acting_;                    // global index -> acting proxy (-1 = home)
  std::vector<std::vector<int>> by_proxy_;     // proxy index -> owned global indices
  std::vector<std::vector<int>> served_by_;    // proxy index -> served global indices
  std::vector<std::vector<int>> replica_set_;  // proxy index -> standby successors
};

}  // namespace presto

#endif  // SRC_CORE_SHARD_MAP_H_
