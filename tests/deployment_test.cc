// Sharded multi-proxy deployment engine tests: shard-map assignment policies,
// K-way replica sets, failover re-routing with replica promotion, live sensor
// migration and load-aware rebalancing, batched message pipelines, pull coalescing,
// and deterministic replay of a multi-proxy run.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>
#include <vector>

#include "src/core/deployment.h"
#include "src/core/shard_map.h"

namespace presto {
namespace {

// Collects tagged QueryAsync completions, in completion order; each must land in
// control context.
class RecordingQueryClient : public DeploymentQueryClient {
 public:
  explicit RecordingQueryClient(Deployment* deployment) : deployment_(deployment) {
    deployment_->SetQueryClient(this);
  }
  void OnDeploymentQueryDone(uint64_t tag, UnifiedQueryResult&& result) override {
    EXPECT_EQ(deployment_->sim().CurrentLane(), Simulator::kLaneControl);
    done.emplace_back(tag, std::move(result));
  }
  std::vector<std::pair<uint64_t, UnifiedQueryResult>> done;

 private:
  Deployment* deployment_;
};

// ---------- shard map ----------

TEST(ShardMapTest, GeographicPolicyAssignsContiguousBlocks) {
  ShardMap map(4, 32, ShardPolicy::kGeographic);
  for (int g = 0; g < 32; ++g) {
    EXPECT_EQ(map.OwnerOf(g), g / 8);
  }
  EXPECT_EQ(map.MinShardSize(), 8);
  EXPECT_EQ(map.MaxShardSize(), 8);
}

TEST(ShardMapTest, HashPolicyCoversEveryProxyAndStaysBalanced) {
  ShardMap map(8, 256, ShardPolicy::kHash);
  std::set<int> owners;
  int total = 0;
  for (int p = 0; p < 8; ++p) {
    total += static_cast<int>(map.SensorsOf(p).size());
    if (!map.SensorsOf(p).empty()) {
      owners.insert(p);
    }
  }
  EXPECT_EQ(total, 256);
  EXPECT_EQ(owners.size(), 8u) << "hash policy left a proxy empty";
  // A hashed spread of 256 over 8 shards should stay within a loose balance band.
  EXPECT_GE(map.MinShardSize(), 16);
  EXPECT_LE(map.MaxShardSize(), 64);
}

TEST(ShardMapTest, HashAssignmentIsStableAcrossInstances) {
  ShardMap a(4, 64, ShardPolicy::kHash);
  ShardMap b(4, 64, ShardPolicy::kHash);
  for (int g = 0; g < 64; ++g) {
    EXPECT_EQ(a.OwnerOf(g), b.OwnerOf(g));
  }
}

TEST(ShardMapTest, ReplicaRingWrapsAround) {
  ShardMap map(3, 9, ShardPolicy::kGeographic);
  EXPECT_EQ(map.ReplicaOf(0), 1);
  EXPECT_EQ(map.ReplicaOf(2), 0);
  ShardMap solo(1, 4, ShardPolicy::kGeographic);
  EXPECT_EQ(solo.ReplicaOf(0), 0);  // nowhere else to go
}

TEST(ShardMapTest, GeographicRemainderLeavesNoEmptyShards) {
  // Regression: the old ceil-block split (g / ceil(6/4) = g / 2) gave proxy 3
  // nothing at 6 sensors x 4 proxies. Balanced blocks differ by at most one.
  ShardMap map(4, 6, ShardPolicy::kGeographic);
  EXPECT_EQ(map.MinShardSize(), 1);
  EXPECT_EQ(map.MaxShardSize(), 2);
  EXPECT_EQ(map.OwnerOf(0), 0);
  EXPECT_EQ(map.OwnerOf(1), 0);
  EXPECT_EQ(map.OwnerOf(2), 1);
  EXPECT_EQ(map.OwnerOf(3), 1);
  EXPECT_EQ(map.OwnerOf(4), 2);
  EXPECT_EQ(map.OwnerOf(5), 3);

  ShardMap big(7, 30, ShardPolicy::kGeographic);  // 30 = 7*4 + 2
  EXPECT_EQ(big.MinShardSize(), 4);
  EXPECT_EQ(big.MaxShardSize(), 5);
  for (int g = 1; g < 30; ++g) {
    EXPECT_GE(big.OwnerOf(g), big.OwnerOf(g - 1)) << "blocks must stay contiguous";
  }
}

TEST(ShardMapTest, ReplicaSetsExcludeOwnerAndDedupe) {
  ShardMap map(4, 8, ShardPolicy::kGeographic, /*replication_factor=*/3);
  for (int p = 0; p < 4; ++p) {
    const std::vector<int>& set = map.ReplicaSetOf(p);
    ASSERT_EQ(set.size(), 2u);
    std::set<int> unique(set.begin(), set.end());
    EXPECT_EQ(unique.size(), set.size()) << "replica set has duplicates";
    EXPECT_EQ(unique.count(p), 0u) << "replica set contains its owner";
  }
  EXPECT_EQ(map.ReplicaOf(3), 0);  // head of the set still wraps the ring

  // Regression: a replication factor larger than the cluster clamps instead of
  // wrapping the ring back onto the owner (the PR-1 self-replica hazard).
  ShardMap clamped(2, 4, ShardPolicy::kGeographic, /*replication_factor=*/5);
  EXPECT_EQ(clamped.ReplicaSetOf(0), std::vector<int>({1}));
  EXPECT_EQ(clamped.ReplicaSetOf(1), std::vector<int>({0}));
  ShardMap solo(1, 4, ShardPolicy::kGeographic, /*replication_factor=*/3);
  EXPECT_TRUE(solo.ReplicaSetOf(0).empty());
}

TEST(ShardMapTest, ActingOwnerOverlayMaintainsServedByIndex) {
  ShardMap map(3, 9, ShardPolicy::kGeographic);  // contiguous shards of three
  EXPECT_EQ(map.ActingOwnerOf(0), 0);
  EXPECT_FALSE(map.InFailover(0));
  EXPECT_EQ(map.ServedBy(0), map.SensorsOf(0));

  const uint64_t before = map.version();
  EXPECT_TRUE(map.SetActingOwner(0, 1));
  EXPECT_EQ(map.ActingOwnerOf(0), 1);
  EXPECT_TRUE(map.InFailover(0));
  EXPECT_GT(map.version(), before);
  EXPECT_EQ(map.ServedBy(0), std::vector<int>({1, 2}));
  EXPECT_EQ(map.ServedBy(1), std::vector<int>({0, 3, 4, 5}))
      << "served-by index must stay sorted across overlay moves";
  EXPECT_EQ(map.OwnerOf(0), 0) << "home ownership is untouched by the overlay";
  EXPECT_EQ(map.SensorsOf(0).size(), 3u);
  EXPECT_FALSE(map.SetActingOwner(0, 1)) << "no-op overlay set must not bump version";

  // Passing the home owner clears the overlay (hand-back).
  EXPECT_TRUE(map.SetActingOwner(0, 0));
  EXPECT_FALSE(map.InFailover(0));
  EXPECT_EQ(map.ServedBy(0), map.SensorsOf(0));
  EXPECT_EQ(map.ServedBy(1), map.SensorsOf(1));
}

TEST(ShardMapTest, MigrateSensorMovesOwnershipAndBumpsVersion) {
  ShardMap map(2, 8, ShardPolicy::kGeographic);
  EXPECT_EQ(map.version(), 0u);
  EXPECT_TRUE(map.MigrateSensor(0, 1));
  EXPECT_EQ(map.OwnerOf(0), 1);
  EXPECT_EQ(map.version(), 1u);
  EXPECT_EQ(map.SensorsOf(0).size(), 3u);
  EXPECT_EQ(map.SensorsOf(1).size(), 5u);
  EXPECT_TRUE(std::is_sorted(map.SensorsOf(1).begin(), map.SensorsOf(1).end()));
  EXPECT_FALSE(map.MigrateSensor(0, 1)) << "no-op migration must not bump version";
  EXPECT_EQ(map.version(), 1u);
}

// ---------- sharded deployment ----------

TEST(ShardedDeploymentTest, ProxyOwnershipMatchesShardMap) {
  DeploymentConfig config;
  config.num_proxies = 4;
  config.sensors_per_proxy = 8;
  config.shard_policy = ShardPolicy::kHash;
  config.seed = 301;
  Deployment deployment(config);

  for (int g = 0; g < deployment.total_sensors(); ++g) {
    const int owner = deployment.shard().OwnerOf(g);
    EXPECT_TRUE(deployment.proxy(owner).ManagesSensor(deployment.GlobalSensorId(g)));
  }
  int indexed = 0;
  for (int p = 0; p < 4; ++p) {
    indexed += static_cast<int>(deployment.proxy(p).sensors().size());
  }
  EXPECT_EQ(indexed, 32);
}

TEST(ShardedDeploymentTest, HashShardedQueriesRouteToOwner) {
  DeploymentConfig config;
  config.num_proxies = 3;
  config.sensors_per_proxy = 4;
  config.shard_policy = ShardPolicy::kHash;
  config.seed = 302;
  Deployment deployment(config);
  deployment.Start();
  deployment.RunUntil(Days(1));

  for (int g = 0; g < deployment.total_sensors(); ++g) {
    QuerySpec spec;
    spec.type = QueryType::kNow;
    spec.sensor_id = deployment.GlobalSensorId(g);
    spec.tolerance = 2.0;
    UnifiedQueryResult result = deployment.QueryAndWait(spec);
    ASSERT_TRUE(result.answer.status.ok()) << result.answer.status.ToString();
    EXPECT_EQ(result.served_by, Deployment::ProxyId(deployment.shard().OwnerOf(g)));
  }
  EXPECT_EQ(deployment.store().stats().unroutable, 0u);
}

// ---------- failover re-routing ----------

TEST(ShardedDeploymentTest, KilledProxyFailsOverOnlyItsShard) {
  DeploymentConfig config;
  config.num_proxies = 4;
  config.sensors_per_proxy = 2;
  config.enable_replication = true;
  config.seed = 303;
  Deployment deployment(config);
  deployment.Start();
  deployment.RunUntil(Days(2));

  deployment.KillProxy(0);
  for (int g = 0; g < deployment.total_sensors(); ++g) {
    const int owner = deployment.shard().OwnerOf(g);
    QuerySpec spec;
    spec.type = QueryType::kNow;
    spec.sensor_id = deployment.GlobalSensorId(g);
    spec.tolerance = 3.0;
    UnifiedQueryResult result = deployment.QueryAndWait(spec);
    ASSERT_TRUE(result.answer.status.ok())
        << "sensor " << g << ": " << result.answer.status.ToString();
    if (owner == 0) {
      // Re-routed to the ring successor, served from replicated state.
      EXPECT_TRUE(result.used_replica);
      EXPECT_EQ(result.served_by, Deployment::ProxyId(deployment.shard().ReplicaOf(0)));
      EXPECT_NE(result.answer.source, AnswerSource::kSensorPull)
          << "replica must serve degraded (cache/extrapolation only)";
    } else {
      EXPECT_FALSE(result.used_replica) << "other shards must be unaffected";
      EXPECT_EQ(result.served_by, Deployment::ProxyId(owner));
    }
  }
  EXPECT_GT(deployment.proxy(deployment.shard().ReplicaOf(0)).stats().degraded_answers,
            0u);

  // Revival restores primary service.
  deployment.ReviveProxy(0);
  QuerySpec spec;
  spec.type = QueryType::kNow;
  spec.sensor_id = deployment.GlobalSensorId(deployment.shard().SensorsOf(0).front());
  spec.tolerance = 3.0;
  UnifiedQueryResult result = deployment.QueryAndWait(spec);
  ASSERT_TRUE(result.answer.status.ok());
  EXPECT_FALSE(result.used_replica);
  EXPECT_EQ(result.served_by, Deployment::ProxyId(0));
}

TEST(ShardedDeploymentTest, WithoutReplicationKilledShardIsUnavailable) {
  DeploymentConfig config;
  config.num_proxies = 2;
  config.sensors_per_proxy = 2;
  config.enable_replication = false;
  config.seed = 304;
  Deployment deployment(config);
  deployment.Start();
  deployment.RunUntil(Hours(6));

  deployment.KillProxy(0);
  QuerySpec spec;
  spec.sensor_id = Deployment::SensorId(0, 0);
  UnifiedQueryResult result = deployment.QueryAndWait(spec);
  EXPECT_EQ(result.answer.status.code(), StatusCode::kUnavailable);
}

// ---------- dynamic shard management ----------

QuerySpec NowSpec(NodeId sensor_id, double tolerance) {
  QuerySpec spec;
  spec.type = QueryType::kNow;
  spec.sensor_id = sensor_id;
  spec.tolerance = tolerance;
  return spec;
}

TEST(DynamicShardTest, LiveMigrationReroutesQueriesAndTransfersState) {
  DeploymentConfig config;
  config.num_proxies = 2;
  config.sensors_per_proxy = 4;
  config.enable_replication = true;
  config.seed = 310;
  Deployment deployment(config);
  deployment.Start();
  deployment.RunUntil(Days(1));

  const int g = 1;  // geographic: owned by proxy 0
  ASSERT_EQ(deployment.shard().OwnerOf(g), 0);
  const NodeId id = deployment.GlobalSensorId(g);

  deployment.MigrateSensor(g, 1);
  deployment.RunUntil(deployment.sim().Now() + Minutes(1));

  EXPECT_EQ(deployment.shard().OwnerOf(g), 1);
  EXPECT_EQ(deployment.shard().version(), 1u);
  EXPECT_EQ(deployment.shard_stats().migrations, 1u);
  EXPECT_TRUE(deployment.proxy(1).ManagesSensor(id));
  EXPECT_FALSE(deployment.proxy(1).IsReplicaFor(id)) << "new owner is not a standby";
  // With K=2 the old owner stays on as the new owner's ring replica.
  EXPECT_TRUE(deployment.proxy(0).IsReplicaFor(id));
  EXPECT_GE(deployment.proxy(0).stats().snapshots_sent, 1u) << "state must transfer";

  UnifiedQueryResult result = deployment.QueryAndWait(NowSpec(id, 2.0));
  ASSERT_TRUE(result.answer.status.ok()) << result.answer.status.ToString();
  EXPECT_EQ(result.served_by, Deployment::ProxyId(1));
  EXPECT_FALSE(result.used_replica);

  // Pushes re-target the new owner: its per-sensor load counter starts moving.
  const uint64_t before = deployment.proxy(1).SensorWindowLoad(id);
  deployment.RunUntil(deployment.sim().Now() + Hours(6));
  EXPECT_GT(deployment.proxy(1).SensorWindowLoad(id), before);
}

TEST(DynamicShardTest, DoubleProxyKillWithKTwoPromotesAndStaysAnswerable) {
  DeploymentConfig config;
  config.num_proxies = 4;
  config.sensors_per_proxy = 2;
  config.enable_replication = true;
  config.replication_factor = 2;
  config.promotion_delay = Seconds(5);
  config.seed = 311;
  Deployment deployment(config);
  deployment.Start();
  deployment.RunUntil(Days(2));

  // Kill two proxies whose shards fail over to disjoint replicas (0 -> 1, 2 -> 3).
  deployment.KillProxy(0);
  deployment.KillProxy(2);

  // Degraded window: the replica chain serves immediately, before promotion.
  {
    const int g = deployment.shard().SensorsOf(0).front();
    UnifiedQueryResult result =
        deployment.QueryAndWait(NowSpec(deployment.GlobalSensorId(g), 3.0));
    ASSERT_TRUE(result.answer.status.ok()) << result.answer.status.ToString();
    EXPECT_TRUE(result.used_replica);
    EXPECT_NE(result.answer.source, AnswerSource::kSensorPull);
  }

  // Past the promotion delay both orphaned shards have full owners again.
  deployment.RunUntil(deployment.sim().Now() + Minutes(1));
  EXPECT_EQ(deployment.shard_stats().promotions, 4u);
  EXPECT_GE(deployment.proxy(1).stats().promotions, 2u);
  EXPECT_GE(deployment.proxy(3).stats().promotions, 2u);

  int failures = 0;
  for (int killed : {0, 2}) {
    for (int g : deployment.shard().SensorsOf(killed)) {
      EXPECT_EQ(deployment.ActingOwner(g), killed + 1);
      UnifiedQueryResult result =
          deployment.QueryAndWait(NowSpec(deployment.GlobalSensorId(g), 3.0));
      if (!result.answer.status.ok()) {
        ++failures;
        continue;
      }
      EXPECT_EQ(result.served_by, Deployment::ProxyId(killed + 1));
      EXPECT_FALSE(result.used_replica) << "promoted owner serves first-class";
    }
  }
  EXPECT_EQ(failures, 0) << "no failed queries on shards with a live replica";

  // Unaffected shards never noticed.
  for (int g : deployment.shard().SensorsOf(1)) {
    UnifiedQueryResult result =
        deployment.QueryAndWait(NowSpec(deployment.GlobalSensorId(g), 3.0));
    ASSERT_TRUE(result.answer.status.ok());
    EXPECT_EQ(result.served_by, Deployment::ProxyId(1));
  }
}

TEST(DynamicShardTest, ReviveHandsOwnershipBackWithStateTransfer) {
  DeploymentConfig config;
  config.num_proxies = 2;
  config.sensors_per_proxy = 2;
  config.enable_replication = true;
  config.promotion_delay = Seconds(5);
  config.seed = 312;
  Deployment deployment(config);
  deployment.Start();
  deployment.RunUntil(Days(1));

  deployment.KillProxy(0);
  deployment.RunUntil(deployment.sim().Now() + Minutes(1));
  const int g = deployment.shard().SensorsOf(0).front();
  const NodeId id = deployment.GlobalSensorId(g);
  EXPECT_EQ(deployment.ActingOwner(g), 1);
  EXPECT_EQ(deployment.shard_stats().promotions, 2u);

  const uint64_t snapshots_before = deployment.proxy(1).stats().snapshots_sent;
  deployment.ReviveProxy(0);
  deployment.RunUntil(deployment.sim().Now() + Minutes(1));

  EXPECT_EQ(deployment.ActingOwner(g), 0);
  EXPECT_EQ(deployment.shard_stats().handbacks, 2u);
  EXPECT_GE(deployment.proxy(1).stats().snapshots_sent, snapshots_before + 2)
      << "hand-back must ship cache/model state to the revived owner";
  EXPECT_GE(deployment.proxy(1).stats().demotions, 2u);
  EXPECT_TRUE(deployment.proxy(1).IsReplicaFor(id)) << "back to standby duty";

  UnifiedQueryResult result = deployment.QueryAndWait(NowSpec(id, 3.0));
  ASSERT_TRUE(result.answer.status.ok()) << result.answer.status.ToString();
  EXPECT_EQ(result.served_by, Deployment::ProxyId(0));
  EXPECT_FALSE(result.used_replica);
}

TEST(DynamicShardTest, ActingOwnerFailureAndRevivalsReconcileOwnership) {
  // Regression for two failover-sequence bugs: (a) an acting owner that is down when
  // the shard is handed back kept phantom full ownership forever (two proxies
  // managing the same sensor), and (b) a shard whose owner and replicas all died was
  // never re-promoted when a replica revived.
  DeploymentConfig config;
  config.num_proxies = 2;
  config.sensors_per_proxy = 2;
  config.enable_replication = true;
  config.promotion_delay = Seconds(5);
  config.seed = 314;
  Deployment deployment(config);
  deployment.Start();
  deployment.RunUntil(Days(1));

  const int g0 = deployment.shard().SensorsOf(0).front();
  const int g1 = deployment.shard().SensorsOf(1).front();

  // Owner dies; the replica takes over shard 0.
  deployment.KillProxy(0);
  deployment.RunUntil(deployment.sim().Now() + Minutes(1));
  ASSERT_EQ(deployment.ActingOwner(g0), 1);

  // The acting owner dies too: every copy of both shards is now dark.
  deployment.KillProxy(1);
  deployment.RunUntil(deployment.sim().Now() + Minutes(1));

  // Reviving proxy 0 takes shard 0 home AND rescues stranded shard 1 by promotion.
  deployment.ReviveProxy(0);
  deployment.RunUntil(deployment.sim().Now() + Minutes(1));
  EXPECT_EQ(deployment.ActingOwner(g0), 0);
  EXPECT_EQ(deployment.ActingOwner(g1), 0)
      << "a revival must re-promote shards stranded with every replica down";
  UnifiedQueryResult rescued = deployment.QueryAndWait(
      NowSpec(deployment.GlobalSensorId(g1), 3.0));
  ASSERT_TRUE(rescued.answer.status.ok()) << rescued.answer.status.ToString();
  EXPECT_EQ(rescued.served_by, Deployment::ProxyId(0));

  // Reviving proxy 1 hands shard 1 back and demotes its stale shard-0 ownership.
  deployment.ReviveProxy(1);
  deployment.RunUntil(deployment.sim().Now() + Minutes(1));
  EXPECT_EQ(deployment.ActingOwner(g1), 1);
  EXPECT_TRUE(deployment.proxy(1).IsReplicaFor(deployment.GlobalSensorId(g0)))
      << "phantom full ownership from the old promotion must be demoted";
  UnifiedQueryResult home0 = deployment.QueryAndWait(
      NowSpec(deployment.GlobalSensorId(g0), 3.0));
  ASSERT_TRUE(home0.answer.status.ok());
  EXPECT_EQ(home0.served_by, Deployment::ProxyId(0));
  UnifiedQueryResult home1 = deployment.QueryAndWait(
      NowSpec(deployment.GlobalSensorId(g1), 3.0));
  ASSERT_TRUE(home1.answer.status.ok());
  EXPECT_EQ(home1.served_by, Deployment::ProxyId(1));
}

TEST(DynamicShardTest, RevivedStandbyIsReArmedAndCaughtUp) {
  // Regression: a replica that was down at promotion time was dropped from the
  // acting owner's replica targets and never re-added on revival, so a later
  // promotion would serve state frozen at its kill.
  DeploymentConfig config;
  config.num_proxies = 3;
  config.sensors_per_proxy = 2;
  config.enable_replication = true;
  config.replication_factor = 3;  // shard 0 stands by on proxies 1 and 2
  config.promotion_delay = Seconds(5);
  config.seed = 315;
  Deployment deployment(config);
  deployment.Start();
  deployment.RunUntil(Days(1));

  const int g0 = deployment.shard().SensorsOf(0).front();
  deployment.KillProxy(0);
  deployment.KillProxy(2);
  deployment.RunUntil(deployment.sim().Now() + Minutes(1));
  ASSERT_EQ(deployment.ActingOwner(g0), 1) << "only live replica takes over";

  // Standby 2 revives: the acting owner must re-arm it as a target and ship a
  // catch-up snapshot for every sensor it stands by.
  const uint64_t snapshots_before = deployment.proxy(1).stats().snapshots_sent;
  deployment.ReviveProxy(2);
  deployment.RunUntil(deployment.sim().Now() + Minutes(1));
  EXPECT_GT(deployment.proxy(1).stats().snapshots_sent, snapshots_before)
      << "revived standby must receive a catch-up snapshot";

  // The refreshed standby can now carry the shard when the acting owner dies.
  deployment.KillProxy(1);
  deployment.RunUntil(deployment.sim().Now() + Minutes(1));
  EXPECT_EQ(deployment.ActingOwner(g0), 2);
  UnifiedQueryResult result = deployment.QueryAndWait(
      NowSpec(deployment.GlobalSensorId(g0), 3.0));
  ASSERT_TRUE(result.answer.status.ok()) << result.answer.status.ToString();
  EXPECT_EQ(result.served_by, Deployment::ProxyId(2));
}

TEST(DynamicShardTest, ReviveRescueDoesNotPreemptPromotionWindow) {
  // Regression: a revival elsewhere in the cluster used to rescue-promote every down
  // proxy's shards immediately, erasing the modeled failure-detection delay.
  DeploymentConfig config;
  config.num_proxies = 4;
  config.sensors_per_proxy = 2;
  config.enable_replication = true;
  config.promotion_delay = Minutes(2);
  config.seed = 316;
  Deployment deployment(config);
  deployment.Start();
  deployment.RunUntil(Days(1));

  deployment.KillProxy(3);
  deployment.RunUntil(deployment.sim().Now() + Minutes(3));  // promoted to proxy 0
  const int g1 = deployment.shard().SensorsOf(1).front();
  deployment.KillProxy(1);  // detection window opens
  deployment.ReviveProxy(3);
  deployment.RunUntil(deployment.sim().Now() + Seconds(10));
  EXPECT_EQ(deployment.ActingOwner(g1), 1)
      << "rescue must not pre-empt an open promotion window";
  deployment.RunUntil(deployment.sim().Now() + Minutes(3));
  EXPECT_EQ(deployment.ActingOwner(g1), 2) << "scheduled promotion still fires";
}

TEST(DynamicShardTest, SecondFailureOfActingOwnerServesThroughPromotionWindow) {
  // Regression for the PR-2 known bug: failover chains were keyed by the *home*
  // proxy, so once a replica had been promoted to acting owner, killing *it* left
  // the adopted sensors unroutable until its own promotion event fired. Per-sensor
  // chains (plus promotion-time standby recruiting back up to K live copies) must
  // serve every query straight through that window.
  DeploymentConfig config;
  config.num_proxies = 4;
  config.sensors_per_proxy = 2;
  config.enable_replication = true;
  config.replication_factor = 2;
  config.promotion_delay = Minutes(2);
  config.seed = 317;
  Deployment deployment(config);
  deployment.Start();
  deployment.RunUntil(Days(2));

  deployment.KillProxy(0);
  deployment.RunUntil(deployment.sim().Now() + Minutes(3));  // promotion fired
  const int g = deployment.shard().SensorsOf(0).front();
  const NodeId id = deployment.GlobalSensorId(g);
  ASSERT_EQ(deployment.ActingOwner(g), 1);
  // Promotion topped the chain back up to K=2 live copies: proxy 2 was recruited.
  EXPECT_TRUE(deployment.proxy(2).IsReplicaFor(id))
      << "promotion must recruit a fresh standby for the adopted shard";

  // Second failure: the acting owner dies. Inside ITS promotion window, queries on
  // the adopted shard must fall through the per-sensor chain to the recruit.
  deployment.KillProxy(1);
  for (int s : deployment.shard().SensorsOf(0)) {
    UnifiedQueryResult result =
        deployment.QueryAndWait(NowSpec(deployment.GlobalSensorId(s), 3.0));
    ASSERT_TRUE(result.answer.status.ok())
        << "promotion-window query failed: " << result.answer.status.ToString();
    EXPECT_TRUE(result.used_replica) << "window service is degraded, not dead";
    EXPECT_EQ(result.served_by, Deployment::ProxyId(2));
    EXPECT_NE(result.answer.source, AnswerSource::kSensorPull);
  }
  // The dead acting owner's own home shard rides its build-time standby meanwhile.
  for (int s : deployment.shard().SensorsOf(1)) {
    UnifiedQueryResult result =
        deployment.QueryAndWait(NowSpec(deployment.GlobalSensorId(s), 3.0));
    ASSERT_TRUE(result.answer.status.ok()) << result.answer.status.ToString();
    EXPECT_EQ(result.served_by, Deployment::ProxyId(2));
  }

  // Past the window, the recruit is promoted to first-class owner.
  deployment.RunUntil(deployment.sim().Now() + Minutes(3));
  EXPECT_EQ(deployment.ActingOwner(g), 2);
  UnifiedQueryResult result = deployment.QueryAndWait(NowSpec(id, 3.0));
  ASSERT_TRUE(result.answer.status.ok()) << result.answer.status.ToString();
  EXPECT_EQ(result.served_by, Deployment::ProxyId(2));
  EXPECT_FALSE(result.used_replica);
}

TEST(DynamicShardTest, ReviveRestoresHomeChainSoImmediateReKillFailsOver) {
  // Hand-back re-chaining: ReviveProxy must rebuild the per-sensor chains (home
  // first, home standbys behind it), not just the index entry, so a kill right
  // after the revive still fails over. Recruits outside the home replica topology
  // drop their stale state at hand-back.
  DeploymentConfig config;
  config.num_proxies = 3;
  config.sensors_per_proxy = 2;
  config.enable_replication = true;
  config.replication_factor = 2;
  config.promotion_delay = Seconds(5);
  config.seed = 318;
  Deployment deployment(config);
  deployment.Start();
  deployment.RunUntil(Days(1));

  const int g = deployment.shard().SensorsOf(0).front();
  const NodeId id = deployment.GlobalSensorId(g);
  deployment.KillProxy(0);
  deployment.RunUntil(deployment.sim().Now() + Minutes(1));
  ASSERT_EQ(deployment.ActingOwner(g), 1);
  EXPECT_TRUE(deployment.proxy(2).IsReplicaFor(id)) << "promotion recruited proxy 2";

  deployment.ReviveProxy(0);
  deployment.RunUntil(deployment.sim().Now() + Minutes(1));
  ASSERT_EQ(deployment.ActingOwner(g), 0);
  EXPECT_TRUE(deployment.proxy(1).IsReplicaFor(id)) << "home standby restored";
  EXPECT_FALSE(deployment.proxy(2).ManagesSensor(id))
      << "recruit outside the home replica set must drop its state at hand-back";

  // Immediate re-kill: inside the fresh promotion window the restored chain serves.
  deployment.KillProxy(0);
  for (int s : deployment.shard().SensorsOf(0)) {
    UnifiedQueryResult result =
        deployment.QueryAndWait(NowSpec(deployment.GlobalSensorId(s), 3.0));
    ASSERT_TRUE(result.answer.status.ok())
        << "kill-after-revive query failed: " << result.answer.status.ToString();
    EXPECT_TRUE(result.used_replica);
    EXPECT_EQ(result.served_by, Deployment::ProxyId(1));
  }
  deployment.RunUntil(deployment.sim().Now() + Minutes(1));
  EXPECT_EQ(deployment.ActingOwner(g), 1) << "scheduled promotion still fires";
  UnifiedQueryResult result = deployment.QueryAndWait(NowSpec(id, 3.0));
  ASSERT_TRUE(result.answer.status.ok());
  EXPECT_EQ(result.served_by, Deployment::ProxyId(1));
  EXPECT_FALSE(result.used_replica);
}

TEST(DynamicShardTest, RebalancerDrainsOverloadedShard) {
  DeploymentConfig config;
  config.num_proxies = 4;
  config.sensors_per_proxy = 4;
  config.enable_replication = true;
  config.enable_rebalancing = true;
  config.rebalance_period = Minutes(10);
  config.rebalance_max_moves = 2;
  config.seed = 313;
  Deployment deployment(config);
  deployment.Start();
  deployment.RunUntil(Days(1));

  // Skewed interactive load: hammer shard 0's sensors across several rebalance
  // windows; the sweep should migrate hot sensors off proxy 0.
  for (int round = 0; round < 6; ++round) {
    for (int rep = 0; rep < 8; ++rep) {
      for (int g = 0; g < 4; ++g) {  // geographic: initial shard 0
        deployment.QueryAndWait(NowSpec(deployment.GlobalSensorId(g), 3.0));
      }
    }
    deployment.QueryAndWait(NowSpec(deployment.GlobalSensorId(14), 3.0));
    deployment.RunUntil(deployment.sim().Now() + Minutes(11));
  }

  EXPECT_GT(deployment.shard_stats().rebalance_sweeps, 0u);
  EXPECT_GT(deployment.shard_stats().migrations, 0u);
  EXPECT_LT(deployment.shard().SensorsOf(0).size(), 4u)
      << "hot sensors should have moved off the overloaded proxy";
  EXPECT_GE(deployment.shard().MinShardSize(), 1);

  // Every sensor still answers, wherever it landed.
  for (int g = 0; g < deployment.total_sensors(); ++g) {
    UnifiedQueryResult result =
        deployment.QueryAndWait(NowSpec(deployment.GlobalSensorId(g), 3.0));
    EXPECT_TRUE(result.answer.status.ok())
        << "sensor " << g << ": " << result.answer.status.ToString();
    EXPECT_EQ(result.served_by,
              Deployment::ProxyId(deployment.shard().OwnerOf(g)));
  }
  EXPECT_EQ(deployment.store().stats().unroutable, 0u);
}

TEST(DynamicShardTest, LptSweepConvergesMultiShardSkewInOneSweep) {
  // Three hot shards at once: the global LPT assignment must spread all of them
  // across every live proxy in a single sweep — the old busiest/calmest pairing
  // needed one sweep per pair.
  DeploymentConfig config;
  config.num_proxies = 6;
  config.sensors_per_proxy = 4;
  config.enable_replication = true;
  config.enable_rebalancing = true;
  config.rebalance_period = Minutes(30);
  config.rebalance_max_moves = 24;  // let one sweep carry the whole plan
  config.seed = 319;
  Deployment deployment(config);
  deployment.Start();
  deployment.RunUntil(Days(1));

  // Run to just past a sweep boundary so each phase below sits in a fresh window.
  auto align = [&] {
    const SimTime next =
        (deployment.sim().Now() / config.rebalance_period + 1) *
        config.rebalance_period;
    deployment.RunUntil(next + Minutes(1));
  };
  // Hammer every sensor of (geographic) shards 0-2: g 0..11 are the hot set.
  auto hammer = [&] {
    for (int rep = 0; rep < 12; ++rep) {
      for (int g = 0; g < 12; ++g) {
        deployment.QueryAndWait(NowSpec(deployment.GlobalSensorId(g), 3.0));
      }
    }
  };

  align();
  const uint64_t migrations_before = deployment.shard_stats().migrations;
  hammer();
  const uint64_t sweeps_before = deployment.shard_stats().rebalance_sweeps;
  align();  // exactly the one sweep that saw the skewed window fires here
  EXPECT_EQ(deployment.shard_stats().rebalance_sweeps, sweeps_before + 1);
  EXPECT_GT(deployment.shard_stats().migrations, migrations_before)
      << "the sweep must act on a three-shard skew";

  // A fresh window under the same skew measures the re-packed layout.
  hammer();
  uint64_t max_load = 0;
  uint64_t min_load = ~0ull;
  for (int p = 0; p < config.num_proxies; ++p) {
    const uint64_t load = deployment.ProxyWindowLoad(p);
    max_load = std::max(max_load, load);
    min_load = std::min(min_load, load);
  }
  EXPECT_LE(static_cast<double>(max_load),
            2.0 * static_cast<double>(std::max<uint64_t>(min_load, 1)))
      << "one LPT sweep must spread three hot shards across all proxies";
  EXPECT_EQ(deployment.shard_stats().rebalance_sweeps, sweeps_before + 1)
      << "measurement window must not have been swept mid-flight";

  // Every sensor still answers, wherever the re-pack landed it.
  for (int g = 0; g < deployment.total_sensors(); ++g) {
    UnifiedQueryResult result =
        deployment.QueryAndWait(NowSpec(deployment.GlobalSensorId(g), 3.0));
    EXPECT_TRUE(result.answer.status.ok())
        << "sensor " << g << ": " << result.answer.status.ToString();
  }
  EXPECT_EQ(deployment.store().stats().unroutable, 0u);
}

TEST(DynamicShardTest, RebalancerRespectsAntiThrashFloor) {
  // The LPT sweep still honours rebalance_min_load: below the floor, even a
  // grossly skewed window moves nothing.
  DeploymentConfig config;
  config.num_proxies = 4;
  config.sensors_per_proxy = 4;
  config.enable_replication = true;
  config.enable_rebalancing = true;
  config.rebalance_period = Minutes(30);
  config.rebalance_min_load = 1u << 20;  // unreachable floor
  config.seed = 320;
  Deployment deployment(config);
  deployment.Start();
  deployment.RunUntil(Days(1));

  for (int rep = 0; rep < 8; ++rep) {
    for (int g = 0; g < 4; ++g) {  // geographic: shard 0 is the hot set
      deployment.QueryAndWait(NowSpec(deployment.GlobalSensorId(g), 3.0));
    }
  }
  deployment.RunUntil(deployment.sim().Now() + Minutes(31));
  EXPECT_GT(deployment.shard_stats().rebalance_sweeps, 0u);
  EXPECT_EQ(deployment.shard_stats().migrations, 0u)
      << "below the anti-thrash floor the sweep must not migrate";
}

// ---------- batched pipelines ----------

TEST(BatchingTest, SameDestinationMessagesCoalesceIntoOneTransaction) {
  DeploymentConfig config;
  config.num_proxies = 2;
  config.sensors_per_proxy = 4;
  config.enable_replication = true;
  config.net.batch_epoch = Seconds(2);
  config.seed = 305;
  Deployment deployment(config);
  deployment.Start();
  deployment.RunUntil(Days(1));

  const NetStats& net = deployment.net().stats();
  EXPECT_GT(net.batch_flushes, 0u) << "no same-destination coalescing happened";
  EXPECT_GE(net.batched_messages, 2 * net.batch_flushes);

  // The batched fabric still answers queries correctly.
  QuerySpec spec;
  spec.type = QueryType::kNow;
  spec.sensor_id = Deployment::SensorId(1, 2);
  spec.tolerance = 2.0;
  UnifiedQueryResult result = deployment.QueryAndWait(spec);
  EXPECT_TRUE(result.answer.status.ok()) << result.answer.status.ToString();
}

TEST(BatchingTest, ConcurrentQueriesShareOnePull) {
  DeploymentConfig config;
  config.num_proxies = 1;
  config.sensors_per_proxy = 1;
  config.proxy_mode = ProxyMode::kAlwaysPull;  // every query needs the sensor
  config.seed = 306;
  Deployment deployment(config);
  deployment.Start();
  deployment.RunUntil(Hours(3));

  // Issued together, the three queries reach the proxy at the same instant.
  QuerySpec spec = NowSpec(Deployment::SensorId(0, 0), 1.0);
  spec.latency_bound = Seconds(30);
  RecordingQueryClient client(&deployment);
  for (uint64_t tag = 0; tag < 3; ++tag) {
    deployment.QueryAsync(spec, tag);
  }
  deployment.RunUntil(deployment.sim().Now() + Minutes(15));

  ASSERT_EQ(client.done.size(), 3u);
  const QueryAnswer& first_answer = client.done[0].second.answer;
  ASSERT_TRUE(first_answer.status.ok()) << first_answer.status.ToString();
  for (const auto& [tag, result] : client.done) {
    EXPECT_EQ(result.answer.value, first_answer.value)
        << "riders must see the pulled data";
  }
  EXPECT_EQ(deployment.proxy(0).stats().pulls, 1u) << "one radio transaction expected";
  EXPECT_EQ(deployment.proxy(0).stats().coalesced_pulls, 2u);
}

// ---------- deterministic replay ----------

// Runs a 4-proxy deployment through warmup, a query mix, and a failover, returning
// everything that should be bit-identical across replays of the same seed.
struct ReplayDigest {
  uint64_t fingerprint = 0;
  uint64_t events = 0;
  double energy = 0.0;
  uint64_t messages_sent = 0;
  std::vector<double> answers;

  bool operator==(const ReplayDigest& other) const {
    return fingerprint == other.fingerprint && events == other.events &&
           energy == other.energy && messages_sent == other.messages_sent &&
           answers == other.answers;
  }
};

ReplayDigest RunReplay(uint64_t seed) {
  DeploymentConfig config;
  config.num_proxies = 4;
  config.sensors_per_proxy = 4;
  config.shard_policy = ShardPolicy::kHash;
  config.enable_replication = true;
  config.net.batch_epoch = Seconds(1);
  config.seed = seed;
  Deployment deployment(config);
  deployment.Start();
  deployment.RunUntil(Days(1));

  ReplayDigest digest;
  for (int g = 0; g < deployment.total_sensors(); ++g) {
    QuerySpec spec;
    spec.type = QueryType::kNow;
    spec.sensor_id = deployment.GlobalSensorId(g);
    spec.tolerance = 2.0;
    UnifiedQueryResult result = deployment.QueryAndWait(spec);
    digest.answers.push_back(result.answer.status.ok() ? result.answer.value : -1e9);
  }
  deployment.KillProxy(2);
  for (int g : deployment.shard().SensorsOf(2)) {
    QuerySpec spec;
    spec.type = QueryType::kNow;
    spec.sensor_id = deployment.GlobalSensorId(g);
    spec.tolerance = 3.0;
    UnifiedQueryResult result = deployment.QueryAndWait(spec);
    digest.answers.push_back(result.answer.status.ok() ? result.answer.value : -1e9);
  }
  deployment.RunUntil(deployment.sim().Now() + Hours(1));

  digest.fingerprint = deployment.sim().fingerprint();
  digest.events = deployment.sim().events_executed();
  digest.energy = deployment.MeanSensorEnergy();
  digest.messages_sent = deployment.net().stats().messages_sent;
  return digest;
}

// Migration determinism: mid-run migrations, a kill/promotion cycle, a revive
// hand-back, and a rebalancer sweep must all execute as simulator events, so the
// same seed replays to the same fingerprint.
ReplayDigest RunMigrationReplay(uint64_t seed) {
  DeploymentConfig config;
  config.num_proxies = 4;
  config.sensors_per_proxy = 4;
  config.shard_policy = ShardPolicy::kHash;
  config.enable_replication = true;
  config.replication_factor = 3;
  config.promotion_delay = Seconds(10);
  config.enable_rebalancing = true;
  config.rebalance_period = Hours(2);
  config.net.batch_epoch = Seconds(1);
  config.seed = seed;
  Deployment deployment(config);
  deployment.Start();
  deployment.RunUntil(Days(1));

  deployment.MigrateSensor(0, deployment.shard().OwnerOf(0) == 3 ? 1 : 3);
  deployment.MigrateSensor(5, deployment.shard().OwnerOf(5) == 2 ? 0 : 2);
  deployment.RunUntil(deployment.sim().Now() + Minutes(5));

  ReplayDigest digest;
  for (int g = 0; g < deployment.total_sensors(); ++g) {
    UnifiedQueryResult result =
        deployment.QueryAndWait(NowSpec(deployment.GlobalSensorId(g), 2.0));
    digest.answers.push_back(result.answer.status.ok() ? result.answer.value : -1e9);
  }
  deployment.KillProxy(1);
  deployment.RunUntil(deployment.sim().Now() + Minutes(1));  // past promotion
  deployment.ReviveProxy(1);
  deployment.RunUntil(deployment.sim().Now() + Hours(3));    // hand-back + a sweep

  digest.fingerprint = deployment.sim().fingerprint();
  digest.events = deployment.sim().events_executed();
  digest.energy = deployment.MeanSensorEnergy();
  digest.messages_sent = deployment.net().stats().messages_sent;
  return digest;
}

TEST(ReplayTest, MidRunMigrationsReplayBitIdentically) {
  const ReplayDigest a = RunMigrationReplay(309);
  const ReplayDigest b = RunMigrationReplay(309);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_TRUE(a == b) << "same seed + same migrations must be bit-identical";
}

TEST(ReplayTest, FourProxyRunReplaysBitIdentically) {
  const ReplayDigest a = RunReplay(307);
  const ReplayDigest b = RunReplay(307);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_TRUE(a == b) << "same seed must give bit-identical metrics";

  const ReplayDigest c = RunReplay(308);
  EXPECT_NE(a.fingerprint, c.fingerprint) << "different seed should diverge";
}

// ---------- parallel shard-lane engine ----------

// A full deployment scenario on the lane engine: warmup, population-wide queries, a
// kill (degraded + promoted probes), a revive hand-back, and a live migration. The
// digest must be bit-identical for any worker count — that is the engine's contract.
ReplayDigest RunLaneEngineScenario(int threads) {
  DeploymentConfig config;
  config.num_proxies = 4;
  config.sensors_per_proxy = 8;
  config.enable_replication = true;
  config.replication_factor = 2;
  config.promotion_delay = Seconds(10);
  config.sim_threads = threads;
  config.net.batch_epoch = Seconds(1);  // exercise per-lane coalescing windows
  config.seed = 331;
  Deployment deployment(config);
  deployment.Start();
  deployment.RunUntil(Hours(8));

  ReplayDigest digest;
  auto probe = [&](int g) {
    UnifiedQueryResult result =
        deployment.QueryAndWait(NowSpec(deployment.GlobalSensorId(g), 3.0));
    digest.answers.push_back(result.answer.status.ok() ? result.answer.value : -1e9);
  };
  for (int g = 0; g < deployment.total_sensors(); ++g) {
    probe(g);
  }
  deployment.KillProxy(1);
  for (int g : deployment.shard().SensorsOf(1)) {
    probe(g);  // degraded window: served through the failover chain
  }
  deployment.RunUntil(deployment.sim().Now() + Seconds(30));  // past promotion
  for (int g : deployment.shard().SensorsOf(1)) {
    probe(g);
  }
  deployment.ReviveProxy(1);
  deployment.RunUntil(deployment.sim().Now() + Minutes(10));
  deployment.MigrateSensor(0, deployment.shard().OwnerOf(0) == 3 ? 2 : 3);
  deployment.RunUntil(deployment.sim().Now() + Minutes(5));
  for (int g = 0; g < deployment.total_sensors(); ++g) {
    probe(g);
  }

  digest.fingerprint = deployment.sim().fingerprint();
  digest.events = deployment.sim().events_executed();
  digest.energy = deployment.MeanSensorEnergy();
  digest.messages_sent = deployment.net().stats().messages_sent;
  return digest;
}

TEST(LaneEngineDeploymentTest, DigestIdenticalAcrossWorkerCounts) {
  const ReplayDigest one = RunLaneEngineScenario(1);
  const ReplayDigest two = RunLaneEngineScenario(2);
  const ReplayDigest eight = RunLaneEngineScenario(8);
  EXPECT_EQ(one.fingerprint, two.fingerprint);
  EXPECT_EQ(one.fingerprint, eight.fingerprint);
  EXPECT_TRUE(one == two) << "worker count must not change any observable";
  EXPECT_TRUE(one == eight) << "worker count must not change any observable";
  // And the threaded run replays bit-identically against itself.
  const ReplayDigest again = RunLaneEngineScenario(8);
  EXPECT_EQ(eight.fingerprint, again.fingerprint);
  EXPECT_TRUE(eight == again);
}

// Past a day of warmup most sensors run a fitted model that their proxy mirrors, and
// NOW queries on stale caches are answered from multi-step proxy forecasts. Each
// model copy's forecast cursor and horizon table are mutable caches behind const
// methods, pinned to the lane that owns the copy: the threaded run must match the
// single-worker one bit for bit (and, under TSan, race-free).
ReplayDigest RunLaneEngineModelScenario(int threads, uint64_t* extrapolated) {
  DeploymentConfig config;
  config.num_proxies = 2;
  config.sensors_per_proxy = 8;
  config.sim_threads = threads;
  config.seed = 359;
  Deployment deployment(config);
  deployment.Start();
  deployment.RunUntil(Hours(27));

  ReplayDigest digest;
  *extrapolated = 0;
  for (int round = 0; round < 3; ++round) {
    deployment.RunUntil(deployment.sim().Now() + Minutes(7));
    for (int g = 0; g < deployment.total_sensors(); ++g) {
      UnifiedQueryResult result =
          deployment.QueryAndWait(NowSpec(deployment.GlobalSensorId(g), 5.0));
      digest.answers.push_back(result.answer.status.ok() ? result.answer.value : -1e9);
      digest.answers.push_back(result.answer.error_estimate);
      *extrapolated += result.answer.source == AnswerSource::kExtrapolated ? 1 : 0;
    }
  }
  int with_model = 0;
  for (int p = 0; p < config.num_proxies; ++p) {
    for (int s = 0; s < config.sensors_per_proxy; ++s) {
      with_model += deployment.sensor(p, s).stats().model_updates > 0 ? 1 : 0;
    }
  }
  EXPECT_GT(2 * with_model, deployment.total_sensors())
      << "most sensors must run an installed model";
  digest.fingerprint = deployment.sim().fingerprint();
  digest.events = deployment.sim().events_executed();
  digest.energy = deployment.MeanSensorEnergy();
  digest.messages_sent = deployment.net().stats().messages_sent;
  return digest;
}

TEST(LaneEngineDeploymentTest, ModelForecastCachesAreLanePinned) {
  uint64_t extrapolated_one = 0;
  uint64_t extrapolated_two = 0;
  const ReplayDigest one = RunLaneEngineModelScenario(1, &extrapolated_one);
  const ReplayDigest two = RunLaneEngineModelScenario(2, &extrapolated_two);
  EXPECT_GT(extrapolated_one, 0u) << "queries must reach the proxies' model forecasts";
  EXPECT_EQ(extrapolated_one, extrapolated_two);
  EXPECT_EQ(one.fingerprint, two.fingerprint);
  EXPECT_TRUE(one == two) << "worker count must not change any observable";
}

// The temperature field keeps every node's independent weather front in one
// [hour][node] table: the barrier hook grows its rows, and each lane fills only its
// own nodes' cells. Past three sim hours the table has grown at several barriers
// under four concurrently running lanes; every observable, and each node's field
// value read back afterwards, must equal the single-worker run's bit for bit (and,
// under TSan, be race-free).
ReplayDigest RunFrontTableScenario(int threads, std::vector<double>* truths) {
  DeploymentConfig config;
  config.num_proxies = 4;
  config.sensors_per_proxy = 6;
  config.sim_threads = threads;
  config.seed = 373;
  Deployment deployment(config);
  deployment.Start();
  deployment.RunUntil(Hours(3) + Minutes(40));

  truths->clear();
  for (int g = 0; g < deployment.total_sensors(); ++g) {
    const SimTime t = Hours(2) + Minutes(17) + g * Seconds(7);
    truths->push_back(deployment.field().TruthAt(g, t));
  }
  ReplayDigest digest;
  digest.fingerprint = deployment.sim().fingerprint();
  digest.events = deployment.sim().events_executed();
  digest.energy = deployment.MeanSensorEnergy();
  digest.messages_sent = deployment.net().stats().messages_sent;
  return digest;
}

TEST(LaneEngineDeploymentTest, FrontTableGrowsAtBarriersAcrossLanes) {
  std::vector<double> truths_one;
  std::vector<double> truths_four;
  const ReplayDigest one = RunFrontTableScenario(1, &truths_one);
  const ReplayDigest four = RunFrontTableScenario(4, &truths_four);
  EXPECT_EQ(one.fingerprint, four.fingerprint);
  EXPECT_TRUE(one == four) << "worker count must not change any observable";
  ASSERT_EQ(truths_one.size(), truths_four.size());
  for (size_t g = 0; g < truths_one.size(); ++g) {
    EXPECT_EQ(truths_one[g], truths_four[g]) << g;
  }
}

// ---------- barrier-time lane re-binding on migration ----------

TEST(LaneEngineDeploymentTest, MigrationRebindsSensorLaneAndDropsCrossLaneSends) {
  DeploymentConfig config;
  config.num_proxies = 2;
  config.sensors_per_proxy = 4;
  config.sim_threads = 2;
  config.seed = 353;
  Deployment deployment(config);
  deployment.Start();
  deployment.RunUntil(Hours(2));

  const int g = 1;  // geographic: owned by proxy 0, so home lane 0
  const NodeId id = deployment.GlobalSensorId(g);
  EXPECT_EQ(deployment.net().NodeLane(id), 0);

  deployment.MigrateSensor(g, 1);
  // Lane membership changes at the migration barrier; give it one epoch to land.
  deployment.RunUntil(deployment.sim().Now() + deployment.sim().epoch());
  EXPECT_EQ(deployment.net().NodeLane(id), 1)
      << "migrated sensor must re-home to the new owner's lane";

  // From here on, the migrated sensor's pushes execute in the acting owner's own
  // lane: no cross-lane radio sends (and no LPL worst-case preamble tax).
  const uint64_t before = deployment.net().node_stats(id).cross_lane_sends;
  deployment.RunUntil(deployment.sim().Now() + Hours(4));
  EXPECT_EQ(deployment.net().node_stats(id).cross_lane_sends - before, 0u)
      << "after one epoch a re-bound sensor's sends must stay in-lane";
  EXPECT_GT(deployment.sensor(0, g).stats().pushes, 0u)
      << "scenario must actually exercise the push path";
}

// ---------- conservative lookahead ----------

TEST(LookaheadTest, OneProxyControlIssuedQueryCompletesAtItsTrueTime) {
  // One proxy has no cross-lane wired link, so only the store's route hop (control
  // lane -> the proxy's lane) bounds the epoch. A query a control-lane event issues
  // between barriers must reach the proxy and come back at its true route + answer
  // time; an epoch left at the simulator's 500 ms default would push the route hop
  // forward to the next barrier.
  DeploymentConfig config;
  config.num_proxies = 1;
  config.sensors_per_proxy = 4;
  config.policy = PushPolicy::kEverySample;  // a fresh cache answers at the proxy
  config.seed = 367;
  Deployment deployment(config);
  const Duration hop = deployment.store().per_hop_latency();
  EXPECT_EQ(deployment.sim().epoch(), hop);
  deployment.Start();
  deployment.RunUntil(Hours(2));

  // Issues one query through QueryAsync when its control-lane event fires.
  struct Issuer : EventSink {
    Deployment* deployment = nullptr;
    void OnSimEvent(EventKind, EventPayload&) override {
      deployment->QueryAsync(NowSpec(deployment->GlobalSensorId(0), 1.0), /*tag=*/0);
    }
  } issuer;
  issuer.deployment = &deployment;
  RecordingQueryClient client(&deployment);
  const SimTime issue_at = deployment.sim().Now() + Millis(123);
  deployment.sim().ScheduleEventAt(issue_at, EventKind::kQuery, &issuer, EventPayload{},
                                   Simulator::kLaneControl);
  deployment.RunUntil(issue_at + Seconds(10));
  ASSERT_EQ(client.done.size(), 1u);
  const UnifiedQueryResult& result = client.done[0].second;
  ASSERT_TRUE(result.answer.status.ok());
  EXPECT_EQ(result.answer.source, AnswerSource::kCacheHit)
      << "the answer must come from the proxy, with no radio latency";
  EXPECT_EQ(result.issued_at, issue_at);
  EXPECT_EQ(result.completed_at, issue_at + 2 * hop) << "route there and back";
  EXPECT_NE(result.completed_at % Millis(500), 0) << "not a default-grid multiple";
}

TEST(LookaheadTest, LaneEngineFalseIsRejected) {
  DeploymentConfig config;
  config.num_proxies = 1;
  config.sensors_per_proxy = 1;
  config.lane_engine = false;
  EXPECT_DEATH(Deployment deployment(config), "lane_engine must be true");
}

// ---------- archive-backed backfill on promotion ----------

TEST(BackfillTest, PromotionBackfillsArchiveGapsIntoCache) {
  // Model-driven push keeps the replicated cache sparse (suppressed samples never
  // leave the sensor), so a freshly promoted standby holds holes across its serving
  // window. With backfill on, promotion repairs the window from the sensor's flash
  // archive in the background: a PAST query then answers from cache; without it, the
  // same query has to pull on demand.
  auto run = [](bool backfill, AnswerSource* source, uint64_t* backfill_pulls) {
    DeploymentConfig config;
    config.num_proxies = 2;
    config.sensors_per_proxy = 2;
    config.enable_replication = true;
    config.replication_factor = 2;
    config.promotion_delay = Seconds(10);
    config.model_tolerance = 2.0;  // sparse pushes → real cache holes
    config.promotion_backfill = backfill;
    config.seed = 337;
    Deployment deployment(config);
    deployment.Start();
    deployment.RunUntil(Hours(10));

    deployment.KillProxy(0);
    // Promotion fires at +10 s; give the background archive pull time to complete.
    deployment.RunUntil(deployment.sim().Now() + Minutes(3));
    EXPECT_EQ(deployment.ActingOwner(0), 1);
    *backfill_pulls = deployment.proxy(1).stats().backfill_pulls;

    // A range well inside the backfill horizon (handoff_history = 4 h). The tiny
    // tolerance defeats model extrapolation, so the answer provenance exposes
    // whether the cache was repaired.
    const SimTime now = deployment.sim().Now();
    QuerySpec spec;
    spec.type = QueryType::kPast;
    spec.sensor_id = deployment.GlobalSensorId(0);
    spec.range = TimeInterval{now - Hours(3), now - Hours(2)};
    spec.tolerance = 0.01;
    UnifiedQueryResult result = deployment.QueryAndWait(spec);
    ASSERT_TRUE(result.answer.status.ok()) << result.answer.status.ToString();
    EXPECT_FALSE(result.answer.samples.empty());
    *source = result.answer.source;
  };

  AnswerSource with_backfill = AnswerSource::kFailed;
  AnswerSource without_backfill = AnswerSource::kFailed;
  uint64_t pulls_on = 0;
  uint64_t pulls_off = 0;
  run(true, &with_backfill, &pulls_on);
  run(false, &without_backfill, &pulls_off);
  EXPECT_GE(pulls_on, 1u) << "promotion must issue a background archive pull";
  EXPECT_EQ(pulls_off, 0u);
  EXPECT_EQ(with_backfill, AnswerSource::kCacheHit)
      << "backfilled window must serve from cache";
  EXPECT_EQ(without_backfill, AnswerSource::kSensorPull)
      << "without backfill the promoted owner still degrades to per-query pulls";
}

// ---------- rebalancer knobs ----------

TEST(DynamicShardTest, RebalanceKnobsStillConverge) {
  // alpha = 1 (no smoothing) with the sticky rule off is the most trigger-happy
  // setting: a pure LPT re-pack against each raw window. It must still drain the hot
  // shard, never empty a shard, and keep every sensor answerable.
  DeploymentConfig config;
  config.num_proxies = 4;
  config.sensors_per_proxy = 4;
  config.enable_replication = true;
  config.enable_rebalancing = true;
  config.rebalance_period = Minutes(10);
  config.rebalance_max_moves = 2;
  config.rebalance_ema_alpha = 1.0;
  config.rebalance_sticky = false;
  config.seed = 341;
  Deployment deployment(config);
  deployment.Start();
  deployment.RunUntil(Days(1));

  for (int round = 0; round < 6; ++round) {
    for (int rep = 0; rep < 8; ++rep) {
      for (int g = 0; g < 4; ++g) {  // geographic: initial shard 0
        deployment.QueryAndWait(NowSpec(deployment.GlobalSensorId(g), 3.0));
      }
    }
    deployment.QueryAndWait(NowSpec(deployment.GlobalSensorId(14), 3.0));
    deployment.RunUntil(deployment.sim().Now() + Minutes(11));
  }

  EXPECT_GT(deployment.shard_stats().migrations, 0u);
  EXPECT_LT(deployment.shard().SensorsOf(0).size(), 4u);
  EXPECT_GE(deployment.shard().MinShardSize(), 1);
  for (int g = 0; g < deployment.total_sensors(); ++g) {
    UnifiedQueryResult result =
        deployment.QueryAndWait(NowSpec(deployment.GlobalSensorId(g), 3.0));
    EXPECT_TRUE(result.answer.status.ok())
        << "sensor " << g << ": " << result.answer.status.ToString();
  }
  EXPECT_EQ(deployment.store().stats().unroutable, 0u);
}

// ---------- external query entry (QueryAsync + in-sim driver) ----------

TEST(ExternalQueryTest, QueryAsyncCompletesOnControlContextWithoutHostStepping) {
  DeploymentConfig config;
  config.num_proxies = 2;
  config.sensors_per_proxy = 4;
  config.seed = 351;
  Deployment deployment(config);
  deployment.Start();
  deployment.RunUntil(Hours(2));

  // A batch of async queries issued up front, then one plain RunUntil: no per-query
  // host loop. Every completion must arrive in control context, under its own tag.
  RecordingQueryClient client(&deployment);
  for (int g = 0; g < deployment.total_sensors(); ++g) {
    deployment.QueryAsync(NowSpec(deployment.GlobalSensorId(g), 3.0),
                          static_cast<uint64_t>(g));
  }
  deployment.RunUntil(deployment.sim().Now() + Minutes(5));
  ASSERT_EQ(client.done.size(), static_cast<size_t>(deployment.total_sensors()));
  std::set<uint64_t> tags;
  for (const auto& [tag, result] : client.done) {
    tags.insert(tag);
    EXPECT_TRUE(result.answer.status.ok()) << "tag " << tag;
    EXPECT_GE(result.completed_at, result.issued_at);
  }
  EXPECT_EQ(tags.size(), client.done.size()) << "each tag completes once";
}

TEST(ExternalQueryTest, TimedOutQueryAndWaitBlocksCheckpointsUntilItsPullLands) {
  DeploymentConfig config;
  config.num_proxies = 1;
  config.sensors_per_proxy = 1;
  config.proxy_mode = ProxyMode::kAlwaysPull;  // every query needs the sensor
  config.sensor_radio.lpl_interval = Seconds(8);  // a pull waits out a long preamble
  config.seed = 371;
  Deployment deployment(config);
  deployment.Start();
  deployment.RunUntil(Hours(1));

  const UnifiedQueryResult late =
      deployment.QueryAndWait(NowSpec(deployment.GlobalSensorId(0), 1.0), Millis(100));
  EXPECT_EQ(late.answer.status.code(), StatusCode::kDeadlineExceeded);
  Checkpoint refused;
  EXPECT_EQ(deployment.SaveCheckpoint(&refused).code(), StatusCode::kFailedPrecondition)
      << "the abandoned query's pull is still in flight";
  EXPECT_TRUE(refused.sections().empty()) << "a refused save writes nothing";

  // The late completion lands and drops the abandoned entry.
  deployment.RunUntil(deployment.sim().Now() + Minutes(15));
  EXPECT_EQ(deployment.proxy(0).stats().pulls, 1u);
  Checkpoint ckpt;
  ASSERT_TRUE(deployment.SaveCheckpoint(&ckpt).ok());
  Deployment restored(config);
  restored.Start();
  ASSERT_TRUE(restored.LoadCheckpoint(ckpt).ok());
  const SimTime end = deployment.sim().Now() + Minutes(5);
  deployment.RunUntil(end);
  restored.RunUntil(end);
  EXPECT_EQ(restored.sim().fingerprint(), deployment.sim().fingerprint());
  const UnifiedQueryResult answered =
      restored.QueryAndWait(NowSpec(restored.GlobalSensorId(0), 1.0));
  EXPECT_TRUE(answered.answer.status.ok()) << answered.answer.status.ToString();
  Checkpoint after;
  EXPECT_TRUE(restored.SaveCheckpoint(&after).ok()) << "an answered wait leaves nothing";
}

TEST(ExternalQueryTest, AttachedDriverCarriesAWorkloadInOneRunUntil) {
  auto run = [](int threads) {
    DeploymentConfig config;
    config.num_proxies = 4;
    config.sensors_per_proxy = 4;
    config.sim_threads = threads;
    config.seed = 353;
    Deployment deployment(config);
    deployment.Start();
    deployment.RunUntil(Hours(1));

    QueryDriverParams params;
    params.mix.queries_per_hour = 720.0;  // one every 5 s
    params.mix.num_sensors = 0;           // whole population
    params.mix.past_fraction = 0.25;
    params.mix.mean_past_age = Minutes(15);
    params.mix.max_past_age = Minutes(30);
    params.mix.min_tolerance = 2.0;
    params.mix.max_tolerance = 3.0;
    params.mix.seed = 354;
    QueryDriver& driver = deployment.AttachQueryDriver(params);
    driver.Start(Minutes(20));
    deployment.RunUntil(deployment.sim().Now() + Minutes(30));
    return std::make_tuple(driver.stats().issued, driver.stats().failed,
                           driver.stats().latency.Hash(),
                           deployment.sim().fingerprint());
  };
  const auto one = run(1);
  EXPECT_GT(std::get<0>(one), 200u);
  EXPECT_EQ(std::get<1>(one), 0u) << "healthy deployment must answer every query";
  const auto four = run(4);
  EXPECT_EQ(std::get<2>(one), std::get<2>(four))
      << "driver histogram must not depend on the worker count";
  EXPECT_EQ(std::get<3>(one), std::get<3>(four))
      << "fingerprint must not depend on the worker count";
}

}  // namespace
}  // namespace presto
