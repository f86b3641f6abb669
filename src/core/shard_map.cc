#include "src/core/shard_map.h"

#include <algorithm>
#include <set>

#include "src/util/assert.h"
#include "src/util/ckpt.h"

namespace presto {
namespace {

// SplitMix64 finalizer: cheap, stateless, and well-mixed — a sensor's shard never
// depends on deployment size history, only (index, proxy count).
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Balanced contiguous blocks: the first `total % proxies` shards take one extra
// sensor, so sizes differ by at most one and no shard is ever empty. The old
// ceil-block split (g / ceil(total/proxies)) left trailing proxies with nothing
// whenever the population didn't divide evenly.
int GeographicOwner(int g, int total_sensors, int num_proxies) {
  const int base = total_sensors / num_proxies;
  const int remainder = total_sensors % num_proxies;
  const int big_span = remainder * (base + 1);  // sensors living in the larger shards
  if (g < big_span) {
    return g / (base + 1);
  }
  return remainder + (g - big_span) / base;
}

}  // namespace

const char* ShardPolicyName(ShardPolicy policy) {
  switch (policy) {
    case ShardPolicy::kGeographic:
      return "geographic";
    case ShardPolicy::kHash:
      return "hash";
  }
  return "?";
}

ShardMap::ShardMap(int num_proxies, int total_sensors, ShardPolicy policy,
                   int replication_factor)
    : num_proxies_(num_proxies),
      total_sensors_(total_sensors),
      policy_(policy),
      replication_factor_(replication_factor) {
  PRESTO_CHECK(num_proxies >= 1);
  PRESTO_CHECK(total_sensors >= 1);
  PRESTO_CHECK(replication_factor >= 1);
  owner_.resize(static_cast<size_t>(total_sensors));
  acting_.assign(static_cast<size_t>(total_sensors), -1);
  by_proxy_.resize(static_cast<size_t>(num_proxies));
  for (int g = 0; g < total_sensors; ++g) {
    int p;
    switch (policy) {
      case ShardPolicy::kHash:
        p = static_cast<int>(Mix64(static_cast<uint64_t>(g)) %
                             static_cast<uint64_t>(num_proxies));
        break;
      case ShardPolicy::kGeographic:
      default:
        p = GeographicOwner(g, total_sensors, num_proxies);
        break;
    }
    owner_[static_cast<size_t>(g)] = p;
    by_proxy_[static_cast<size_t>(p)].push_back(g);
  }
  served_by_ = by_proxy_;  // no failover at construction: served == owned

  // K-way replica sets: the next replication_factor - 1 distinct ring successors.
  const int standbys = std::min(replication_factor - 1, num_proxies - 1);
  replica_set_.resize(static_cast<size_t>(num_proxies));
  for (int p = 0; p < num_proxies; ++p) {
    std::vector<int>& set = replica_set_[static_cast<size_t>(p)];
    for (int k = 1; k <= standbys; ++k) {
      set.push_back((p + k) % num_proxies);
    }
    // Invariant (regression for the PR-1 self-replica hazard): a replica set never
    // contains its owner and never a duplicate entry.
    std::set<int> unique(set.begin(), set.end());
    PRESTO_CHECK_MSG(unique.size() == set.size(), "replica set contains duplicates");
    PRESTO_CHECK_MSG(unique.count(p) == 0, "replica set contains the owner");
  }
}

int ShardMap::OwnerOf(int global_sensor_index) const {
  PRESTO_CHECK(global_sensor_index >= 0 && global_sensor_index < total_sensors_);
  return owner_[static_cast<size_t>(global_sensor_index)];
}

const std::vector<int>& ShardMap::ReplicaSetOf(int proxy_index) const {
  PRESTO_CHECK(proxy_index >= 0 && proxy_index < num_proxies_);
  return replica_set_[static_cast<size_t>(proxy_index)];
}

int ShardMap::ReplicaOf(int proxy_index) const {
  const std::vector<int>& set = ReplicaSetOf(proxy_index);
  return set.empty() ? proxy_index : set.front();
}

const std::vector<int>& ShardMap::SensorsOf(int proxy_index) const {
  PRESTO_CHECK(proxy_index >= 0 && proxy_index < num_proxies_);
  return by_proxy_[static_cast<size_t>(proxy_index)];
}

namespace {

void MoveBetween(std::vector<int>& from, std::vector<int>& to, int g) {
  from.erase(std::find(from.begin(), from.end(), g));
  to.insert(std::upper_bound(to.begin(), to.end(), g), g);
}

}  // namespace

bool ShardMap::MigrateSensor(int global_sensor_index, int new_owner) {
  PRESTO_CHECK(global_sensor_index >= 0 && global_sensor_index < total_sensors_);
  PRESTO_CHECK(new_owner >= 0 && new_owner < num_proxies_);
  PRESTO_CHECK_MSG(!InFailover(global_sensor_index),
                   "hand the sensor back before migrating it");
  const int old_owner = owner_[static_cast<size_t>(global_sensor_index)];
  if (old_owner == new_owner) {
    return false;
  }
  MoveBetween(by_proxy_[static_cast<size_t>(old_owner)],
              by_proxy_[static_cast<size_t>(new_owner)], global_sensor_index);
  MoveBetween(served_by_[static_cast<size_t>(old_owner)],
              served_by_[static_cast<size_t>(new_owner)], global_sensor_index);
  owner_[static_cast<size_t>(global_sensor_index)] = new_owner;
  ++version_;
  return true;
}

int ShardMap::ActingOwnerOf(int global_sensor_index) const {
  PRESTO_CHECK(global_sensor_index >= 0 && global_sensor_index < total_sensors_);
  const int acting = acting_[static_cast<size_t>(global_sensor_index)];
  return acting >= 0 ? acting : owner_[static_cast<size_t>(global_sensor_index)];
}

bool ShardMap::InFailover(int global_sensor_index) const {
  PRESTO_CHECK(global_sensor_index >= 0 && global_sensor_index < total_sensors_);
  return acting_[static_cast<size_t>(global_sensor_index)] >= 0;
}

bool ShardMap::SetActingOwner(int global_sensor_index, int proxy_index) {
  PRESTO_CHECK(global_sensor_index >= 0 && global_sensor_index < total_sensors_);
  PRESTO_CHECK(proxy_index >= 0 && proxy_index < num_proxies_);
  const int current = ActingOwnerOf(global_sensor_index);
  if (current == proxy_index) {
    return false;
  }
  MoveBetween(served_by_[static_cast<size_t>(current)],
              served_by_[static_cast<size_t>(proxy_index)], global_sensor_index);
  const int home = owner_[static_cast<size_t>(global_sensor_index)];
  acting_[static_cast<size_t>(global_sensor_index)] =
      proxy_index == home ? -1 : proxy_index;
  ++version_;
  return true;
}

const std::vector<int>& ShardMap::ServedBy(int proxy_index) const {
  PRESTO_CHECK(proxy_index >= 0 && proxy_index < num_proxies_);
  return served_by_[static_cast<size_t>(proxy_index)];
}

int ShardMap::MinShardSize() const {
  size_t min = by_proxy_[0].size();
  for (const auto& shard : by_proxy_) {
    min = std::min(min, shard.size());
  }
  return static_cast<int>(min);
}

int ShardMap::MaxShardSize() const {
  size_t max = 0;
  for (const auto& shard : by_proxy_) {
    max = std::max(max, shard.size());
  }
  return static_cast<int>(max);
}

void ShardMap::SaveState(ByteWriter& w) const {
  CkptWrite(w, version_);
  CkptWrite(w, owner_);
  CkptWrite(w, acting_);
}

void ShardMap::LoadState(ByteReader& r) {
  CkptRead(r, version_);
  std::vector<int> owner;
  std::vector<int> acting;
  CkptRead(r, owner);
  CkptRead(r, acting);
  if (owner.size() != static_cast<size_t>(total_sensors_) ||
      acting.size() != owner.size()) {
    return r.Fail(DataLossError("shard map restore: table size mismatch"));
  }
  for (size_t g = 0; g < owner.size(); ++g) {
    if (owner[g] < 0 || owner[g] >= num_proxies_ || acting[g] < -1 ||
        acting[g] >= num_proxies_) {
      return r.Fail(DataLossError("shard map restore: proxy index out of range"));
    }
  }
  owner_ = std::move(owner);
  acting_ = std::move(acting);
  // Rebuild the inverse indices ascending — the invariant the incremental
  // maintenance preserves, so a restored map is indistinguishable from a live one.
  for (auto& shard : by_proxy_) {
    shard.clear();
  }
  for (auto& served : served_by_) {
    served.clear();
  }
  for (int g = 0; g < total_sensors_; ++g) {
    by_proxy_[static_cast<size_t>(owner_[static_cast<size_t>(g)])].push_back(g);
    served_by_[static_cast<size_t>(ActingOwnerOf(g))].push_back(g);
  }
}

}  // namespace presto
