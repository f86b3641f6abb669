// Scale bench for the sharded multi-proxy deployment engine: sweeps proxy count ×
// sensor population × shard policy, reporting query latency, energy (J/sensor/day),
// shard balance, batching efficiency, and failover behaviour.
//
// Failover phase: *two* distinct proxies are killed mid-run (one on small clusters).
// With K-way replication (replication_factor = 2) every affected shard must keep
// answering — degraded through the replica chain immediately, then first-class once
// the replica is promoted to full owner — with zero failed queries; the table reports
// both the first-answer recovery time and the promotion lag.
//
// Double-kill phase: the home proxy dies, its replica is promoted to acting owner,
// then the acting owner dies too. Probes run both *inside* the second promotion
// window (per-sensor chains must fall through to the recruited standby — the PR-2
// known bug left this window unroutable) and after the second promotion; zero failed
// queries are required at K=2.
//
// Rebalance phase: a skewed interactive workload hammers one shard; the load-aware
// rebalancer must migrate hot sensors until the max/min per-proxy load ratio drops
// to <= the configured bound (1.5).
//
// The whole sweep is deterministic — representative cells are run twice and their
// Simulator::fingerprint()s compared. The process exits non-zero if any availability,
// balance, or determinism requirement is violated.
//
// `--smoke` runs a reduced grid (small cells, no 8/16-proxy rows) with the same
// violation checks — the CI bench-smoke job's entry point. `--csv` writes the
// summary table to scale_sharding.csv (never by default: dumps stay out of the tree).
//
// Warm starts (docs/ARCHITECTURE.md "Checkpoint format"): `--ckpt-out <path>`
// saves the first failover cell's 20 h post-warmup state; `--resume <path>`
// starts that cell from such a file instead of re-simulating the warmup and then
// drives the same healthy/failover phases from the revived state.

// Engine phase: the same deployment engine on the parallel shard-lane simulator
// (lane = shard, epoch barriers, typed pooled events). Every engine cell runs at
// several worker counts and the fingerprints must be bit-identical — a divergence is
// a violation (non-zero exit). The 16 x 4096 cell must clear >= 2x events/sec at 8
// workers over 1 (checked when the host has >= 8 hardware threads), and a
// ~100k-sensor cell must finish inside a fixed wall-clock budget.

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_report.h"
#include "src/core/deployment.h"
#include "src/core/shard_map.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/util/table.h"

using namespace presto;

namespace {

constexpr uint64_t kSeed = 20260731;

struct CellResult {
  double now_latency_ms_mean = 0.0;
  double now_latency_ms_p95 = 0.0;
  double success = 0.0;
  double energy_j_per_sensor_day = 0.0;
  double batched_share = 0.0;       // app messages that rode a coalesced flush
  // Failover phase.
  int kills = 0;
  int killed_probes = 0;
  int killed_failures = 0;          // must be 0 with replication
  double degraded_share = 0.0;      // pre-promotion answers served from replicas
  double recovery_ms = -1.0;        // kill -> first successful killed-shard answer
  double promotion_ms = -1.0;       // kill -> last replica promoted to full owner
  double other_shard_success = 0.0;
  uint64_t promotions = 0;
  uint64_t fingerprint = 0;
  bool ckpt_failed = false;  // --ckpt-out / --resume file operation failed
  bool resumed = false;      // warm-started from a checkpoint (warmup skipped)
};

QuerySpec NowQuery(const Deployment& deployment, int global, double tolerance) {
  QuerySpec spec;
  spec.type = QueryType::kNow;
  spec.sensor_id = deployment.GlobalSensorId(global);
  spec.tolerance = tolerance;
  return spec;
}

CellResult RunCell(int num_proxies, int total_sensors, ShardPolicy policy,
                   bool replication, Duration batch_epoch,
                   const std::string& ckpt_out = "",
                   const std::string& resume_path = "") {
  DeploymentConfig config;
  config.num_proxies = num_proxies;
  config.sensors_per_proxy = total_sensors / num_proxies;
  config.shard_policy = policy;
  config.enable_replication = replication;
  config.replication_factor = 2;
  config.promotion_delay = Seconds(10);
  config.net.batch_epoch = batch_epoch;
  config.seed = kSeed;
  Deployment deployment(config);
  deployment.Start();

  Pcg32 rng(kSeed ^ 0xbe4c);
  CellResult out;
  if (!resume_path.empty()) {
    // Warm start: restore the 20 h post-warmup state instead of re-simulating it.
    // The resumed timeline is bit-identical to the cold one (restore invariant).
    auto loaded = Checkpoint::ReadFile(resume_path);
    if (!loaded.ok()) {
      std::printf("  CKPT: cannot read %s: %s\n", resume_path.c_str(),
                  loaded.status().message().c_str());
      out.ckpt_failed = true;
      return out;
    }
    const Status restored = deployment.LoadCheckpoint(*loaded);
    if (!restored.ok()) {
      std::printf("  CKPT: restore failed: %s\n", restored.message().c_str());
      out.ckpt_failed = true;
      return out;
    }
    out.resumed = true;
    std::printf("  resumed from %s at sim t=%.0f s (warmup skipped)\n",
                resume_path.c_str(), ToSeconds(deployment.sim().Now()));
  } else {
    deployment.RunUntil(Hours(20));
    if (!ckpt_out.empty()) {
      Checkpoint ckpt;
      Status saved = deployment.SaveCheckpoint(&ckpt);
      if (saved.ok()) {
        saved = ckpt.WriteFile(ckpt_out);
      }
      if (!saved.ok()) {
        std::printf("  CKPT: save failed: %s\n", saved.message().c_str());
        out.ckpt_failed = true;
      } else {
        std::printf("  warmed checkpoint (%zu sections, digest %016llx) -> %s\n",
                    ckpt.sections().size(),
                    static_cast<unsigned long long>(ckpt.Digest()),
                    ckpt_out.c_str());
      }
    }
  }

  // Healthy phase: a spread of NOW queries across the whole population.
  SampleSet latency_ms;
  const int healthy_queries = std::min(total_sensors, 192);
  int ok = 0;
  for (int i = 0; i < healthy_queries; ++i) {
    const int g = static_cast<int>(rng.UniformInt(0, total_sensors - 1));
    UnifiedQueryResult result = deployment.QueryAndWait(NowQuery(deployment, g, 1.5));
    if (result.answer.status.ok()) {
      ++ok;
      latency_ms.Add(ToMillis(result.Latency()));
    }
    deployment.RunUntil(deployment.sim().Now() + Seconds(20));
  }
  out.now_latency_ms_mean = latency_ms.mean();
  out.now_latency_ms_p95 = latency_ms.Quantile(0.95);
  out.success = static_cast<double>(ok) / healthy_queries;

  // Failover phase: kill two distinct proxies (their shards fail over to disjoint
  // ring successors when the cluster is big enough; one kill on 2-proxy cells).
  std::vector<int> kills = {0};
  if (num_proxies >= 4) {
    kills.push_back(num_proxies / 2);
  }
  const SimTime killed_at = deployment.sim().Now();
  for (int k : kills) {
    deployment.KillProxy(k);
  }
  out.kills = static_cast<int>(kills.size());

  // Degraded window: probe each killed shard before the promotion fires.
  int killed_ok = 0;
  int killed_degraded = 0;
  for (int k : kills) {
    const std::vector<int>& shard = deployment.shard().SensorsOf(k);
    for (size_t i = 0; i < shard.size() && i < 8; ++i) {
      ++out.killed_probes;
      UnifiedQueryResult result =
          deployment.QueryAndWait(NowQuery(deployment, shard[i], 3.0));
      if (result.answer.status.ok()) {
        ++killed_ok;
        if (result.used_replica) {
          ++killed_degraded;
        }
        if (out.recovery_ms < 0.0) {
          out.recovery_ms = ToMillis(result.completed_at - killed_at);
        }
      } else {
        ++out.killed_failures;
      }
    }
  }
  out.degraded_share =
      killed_ok > 0 ? static_cast<double>(killed_degraded) / killed_ok : 0.0;

  // Promoted window: past the promotion delay every affected shard must be back to
  // first-class service (the promoted owner pulls, manages models, owns the index).
  deployment.RunUntil(killed_at + Seconds(30));
  if (replication && deployment.shard_stats().last_promotion_at >= 0) {
    out.promotion_ms = ToMillis(deployment.shard_stats().last_promotion_at - killed_at);
  }
  out.promotions = deployment.shard_stats().promotions;
  for (int k : kills) {
    const std::vector<int>& shard = deployment.shard().SensorsOf(k);
    for (size_t i = 0; i < shard.size() && i < 24; ++i) {
      ++out.killed_probes;
      UnifiedQueryResult result =
          deployment.QueryAndWait(NowQuery(deployment, shard[i], 3.0));
      if (result.answer.status.ok()) {
        if (out.recovery_ms < 0.0) {
          out.recovery_ms = ToMillis(result.completed_at - killed_at);
        }
      } else {
        ++out.killed_failures;
      }
      deployment.RunUntil(deployment.sim().Now() + Seconds(5));
    }
  }

  // Isolation: every untouched shard keeps answering as if nothing happened.
  int other_ok = 0;
  int other_probes = 0;
  for (int p = 0; p < num_proxies && other_probes < 32; ++p) {
    if (std::find(kills.begin(), kills.end(), p) != kills.end()) {
      continue;
    }
    for (int g : deployment.shard().SensorsOf(p)) {
      if (other_probes >= 32) {
        break;
      }
      ++other_probes;
      UnifiedQueryResult result = deployment.QueryAndWait(NowQuery(deployment, g, 3.0));
      if (result.answer.status.ok()) {
        ++other_ok;
      }
    }
  }
  out.other_shard_success =
      other_probes > 0 ? static_cast<double>(other_ok) / other_probes : 1.0;
  for (int k : kills) {
    deployment.ReviveProxy(k);
  }
  deployment.RunUntil(deployment.sim().Now() + Hours(1));

  const double days = ToSeconds(deployment.sim().Now()) / 86400.0;
  out.energy_j_per_sensor_day = deployment.MeanSensorEnergy() / days;
  const NetStats& net = deployment.net().stats();
  // messages_sent counts radio transactions (each coalesced frame once); the app
  // message total replaces each frame with its batched_messages constituents.
  const uint64_t app_messages =
      net.messages_sent - net.batch_flushes + net.batched_messages;
  out.batched_share =
      app_messages > 0 ? static_cast<double>(net.batched_messages) / app_messages : 0.0;
  out.fingerprint = deployment.sim().fingerprint();
  return out;
}

struct RebalanceResult {
  double ratio_before = 0.0;   // max/min per-proxy load under the skew, no rebalancer
  double ratio_after = 0.0;    // same workload after the rebalancer has swept
  uint64_t migrations = 0;
  uint64_t sweeps = 0;
  int hot_shard_size_before = 0;
  int hot_shard_size_after = 0;
  double success = 0.0;
  uint64_t fingerprint = 0;
};

double LoadRatio(const Deployment& deployment) {
  uint64_t max_load = 0;
  uint64_t min_load = ~0ull;
  for (int p = 0; p < deployment.config().num_proxies; ++p) {
    const uint64_t load = deployment.ProxyWindowLoad(p);
    max_load = std::max(max_load, load);
    min_load = std::min(min_load, load);
  }
  return static_cast<double>(max_load) /
         static_cast<double>(std::max<uint64_t>(min_load, 1));
}

// Skewed interactive workload: 80% of queries hit the (initially co-located) hot
// sensor set, the rest spread uniformly. The rebalancer must pull the per-proxy load
// ratio under the bound by migrating hot sensors off the overloaded proxy.
RebalanceResult RunRebalanceCell(int num_proxies, int total_sensors) {
  DeploymentConfig config;
  config.num_proxies = num_proxies;
  config.sensors_per_proxy = total_sensors / num_proxies;
  config.shard_policy = ShardPolicy::kGeographic;
  config.enable_replication = true;
  config.enable_rebalancing = true;
  config.rebalance_period = Minutes(10);
  config.rebalance_max_moves = 4;
  config.seed = kSeed;
  Deployment deployment(config);
  deployment.Start();
  deployment.RunUntil(Hours(20));

  RebalanceResult out;
  const std::vector<int> hot = deployment.shard().SensorsOf(0);  // snapshot: moves later
  out.hot_shard_size_before = static_cast<int>(hot.size());

  Pcg32 rng(kSeed ^ 0x5eb5);
  int ok = 0;
  int total_queries = 0;
  const int queries_per_round = 160;
  const int rounds = 8;
  for (int round = 0; round <= rounds; ++round) {
    for (int q = 0; q < queries_per_round; ++q) {
      int g;
      if (rng.NextDouble() < 0.8) {
        g = hot[static_cast<size_t>(rng.UniformInt(0, static_cast<int>(hot.size()) - 1))];
      } else {
        g = static_cast<int>(rng.UniformInt(0, total_sensors - 1));
      }
      UnifiedQueryResult result = deployment.QueryAndWait(NowQuery(deployment, g, 3.0));
      ++total_queries;
      if (result.answer.status.ok()) {
        ++ok;
      }
    }
    if (round == 0) {
      out.ratio_before = LoadRatio(deployment);  // before any sweep saw this skew
    }
    if (round < rounds) {
      // Let one rebalance period elapse (the sweep closes the load window).
      deployment.RunUntil(deployment.sim().Now() + Minutes(11));
    }
  }
  // The final round's window has not been swept yet: measure the steady-state skew.
  out.ratio_after = LoadRatio(deployment);
  out.migrations = deployment.shard_stats().migrations;
  out.sweeps = deployment.shard_stats().rebalance_sweeps;
  out.hot_shard_size_after = static_cast<int>(deployment.shard().SensorsOf(0).size());
  out.success = static_cast<double>(ok) / total_queries;
  out.fingerprint = deployment.sim().fingerprint();
  return out;
}

// ---------- double-kill: home proxy, then the acting owner ----------

struct DoubleKillResult {
  int probes = 0;
  int failures_inside = 0;   // probes while the acting owner's promotion is pending
  int failures_outside = 0;  // probes after the second promotion completed
  int chain_answers = 0;     // inside-window answers served via the sensor chain
  uint64_t promotions = 0;
  uint64_t fingerprint = 0;
};

// Kills the home proxy, waits past its promotion, then kills the acting owner and
// probes the orphaned shards inside *and* outside the second promotion window. With
// per-sensor failover chains (and promotion-time standby recruiting) every probe
// must answer at K=2.
DoubleKillResult RunDoubleKillCell(int num_proxies, int total_sensors) {
  DeploymentConfig config;
  config.num_proxies = num_proxies;
  config.sensors_per_proxy = total_sensors / num_proxies;
  config.shard_policy = ShardPolicy::kGeographic;
  config.enable_replication = true;
  config.replication_factor = 2;
  config.promotion_delay = Seconds(10);
  config.seed = kSeed;
  Deployment deployment(config);
  deployment.Start();
  deployment.RunUntil(Hours(20));

  DoubleKillResult out;
  deployment.KillProxy(0);
  deployment.RunUntil(deployment.sim().Now() + Seconds(30));  // first promotion done
  const int acting = deployment.ActingOwner(deployment.shard().SensorsOf(0).front());
  deployment.KillProxy(acting);
  const SimTime second_kill = deployment.sim().Now();

  // Inside the acting owner's promotion window: shard 0 (twice orphaned) and the
  // acting owner's own home shard must both ride their per-sensor chains.
  for (int killed : {0, acting}) {
    const std::vector<int>& shard = deployment.shard().SensorsOf(killed);
    for (size_t i = 0; i < shard.size() && i < 8; ++i) {
      ++out.probes;
      UnifiedQueryResult result =
          deployment.QueryAndWait(NowQuery(deployment, shard[i], 3.0));
      if (!result.answer.status.ok()) {
        ++out.failures_inside;
      } else if (result.used_replica) {
        ++out.chain_answers;
      }
    }
  }

  // Past the second promotion: first-class service from the re-promoted owner.
  deployment.RunUntil(second_kill + Seconds(30));
  for (int killed : {0, acting}) {
    const std::vector<int>& shard = deployment.shard().SensorsOf(killed);
    for (size_t i = 0; i < shard.size() && i < 16; ++i) {
      ++out.probes;
      UnifiedQueryResult result =
          deployment.QueryAndWait(NowQuery(deployment, shard[i], 3.0));
      if (!result.answer.status.ok()) {
        ++out.failures_outside;
      }
      deployment.RunUntil(deployment.sim().Now() + Seconds(2));
    }
  }
  out.promotions = deployment.shard_stats().promotions;
  deployment.ReviveProxy(0);
  deployment.ReviveProxy(acting);
  deployment.RunUntil(deployment.sim().Now() + Minutes(30));
  out.fingerprint = deployment.sim().fingerprint();
  return out;
}

// ---------- parallel shard-lane engine ----------

struct EngineResult {
  uint64_t events = 0;
  double wall_s = 0.0;
  double events_per_sec = 0.0;
  uint64_t fingerprint = 0;
  int failed_queries = 0;
};

// One lane-engine run: warm shard-local traffic, a mid-run kill and revive (barrier
// mutations + cross-lane failover traffic), then a routability probe. Wall clock
// covers the simulation only; the probe runs untimed.
EngineResult RunEngineCell(int num_proxies, int total_sensors, int threads,
                           Duration span, bool tiny_flash) {
  DeploymentConfig config;
  config.num_proxies = num_proxies;
  config.sensors_per_proxy = total_sensors / num_proxies;
  config.shard_policy = ShardPolicy::kGeographic;
  config.enable_replication = true;
  config.replication_factor = 2;
  config.promotion_delay = Seconds(10);
  config.sim_threads = threads;
  config.seed = kSeed;
  if (tiny_flash) {
    // ~100k sensors: a 16 KiB archive per sensor keeps the cell inside laptop RAM
    // while still exercising the flash path on every sample.
    config.flash.num_blocks = 4;
  }
  Deployment deployment(config);
  deployment.Start();

  const auto wall_start = std::chrono::steady_clock::now();
  deployment.RunUntil(span / 3);
  deployment.KillProxy(num_proxies / 2);
  deployment.RunUntil(2 * span / 3);
  deployment.ReviveProxy(num_proxies / 2);
  deployment.RunUntil(span);
  const auto wall_end = std::chrono::steady_clock::now();

  EngineResult out;
  out.events = deployment.sim().events_executed();
  out.wall_s = std::chrono::duration<double>(wall_end - wall_start).count();
  out.events_per_sec = static_cast<double>(out.events) / std::max(out.wall_s, 1e-9);
  for (int i = 0; i < 8; ++i) {
    const int g = (i * total_sensors) / 8;
    UnifiedQueryResult result = deployment.QueryAndWait(NowQuery(deployment, g, 3.0));
    if (!result.answer.status.ok()) {
      ++out.failed_queries;
    }
  }
  out.fingerprint = deployment.sim().fingerprint();
  return out;
}

std::string FmtMs(double ms) {
  if (ms < 0.0) {
    return "never";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", ms);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = ConsumeJsonFlag(&argc, argv);
  bool smoke = false;
  bool write_csv = false;
  std::string ckpt_out;
  std::string resume_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--csv") {
      write_csv = true;
    } else if (arg == "--ckpt-out" && i + 1 < argc) {
      ckpt_out = argv[++i];
    } else if (arg == "--resume" && i + 1 < argc) {
      resume_path = argv[++i];
    }
  }
  BenchReport report("scale_sharding");
  report.set_grid(smoke ? "smoke" : "full");
  report.Config("seed", static_cast<double>(kSeed));
  std::printf("PRESTO scale bench: sharded multi-proxy deployments with dynamic\n");
  std::printf("shard management (K-way replication, promotion, rebalancing).\n");
  std::printf("Two proxies are killed mid-run (one on 2-proxy cells); 'killed fail'\n");
  std::printf("must be 0 with replication. Deterministic seed %llu.%s\n\n",
              static_cast<unsigned long long>(kSeed),
              smoke ? " [--smoke: reduced grid]" : "");

  struct Cell {
    int proxies;
    int sensors;
    ShardPolicy policy;
    bool replication;
    Duration batch_epoch;
  };
  // The {4, 256, geographic, replicated} cell must stay at index 2 in both grids:
  // the determinism check re-runs it by position.
  std::vector<Cell> cells = {
      {1, 64, ShardPolicy::kGeographic, false, 0},
      {2, 64, ShardPolicy::kGeographic, true, 0},
      {4, 256, ShardPolicy::kGeographic, true, 0},
  };
  if (!smoke) {
    cells.push_back({4, 256, ShardPolicy::kHash, true, 0});
    cells.push_back({4, 256, ShardPolicy::kHash, false, 0});
    cells.push_back({8, 512, ShardPolicy::kHash, true, Seconds(2)});
    cells.push_back({16, 1024, ShardPolicy::kGeographic, true, Seconds(2)});
    cells.push_back({16, 1024, ShardPolicy::kHash, true, Seconds(2)});
    // Promotion cost is O(shard) via the served-by index: a 16 x 4096 cell (256
    // sensors per shard) runs its kill/promotion cycle without any full-population
    // rescan on the kill path.
    cells.push_back({16, 4096, ShardPolicy::kHash, true, Seconds(2)});
  }

  int violations = 0;

  TextTable table;
  table.SetHeader({"proxies", "sensors", "policy", "repl", "lat ms", "p95 ms", "ok",
                   "J/sens/day", "batched", "kills", "killed fail", "degraded",
                   "other ok", "recovery ms", "promo ms"});
  std::vector<CellResult> results;
  bool first_run = true;
  for (const Cell& cell : cells) {
    // --ckpt-out / --resume apply to the first failover cell only (the warm-start
    // pair must describe the same cell shape on both sides).
    const CellResult r = RunCell(cell.proxies, cell.sensors, cell.policy,
                                 cell.replication, cell.batch_epoch,
                                 first_run ? ckpt_out : std::string(),
                                 first_run ? resume_path : std::string());
    first_run = false;
    if (r.ckpt_failed) {
      ++violations;
      results.push_back(r);
      continue;
    }
    results.push_back(r);
    table.AddRow({TextTable::Int(cell.proxies), TextTable::Int(cell.sensors),
                  ShardPolicyName(cell.policy), cell.replication ? "yes" : "no",
                  TextTable::Num(r.now_latency_ms_mean, 1),
                  TextTable::Num(r.now_latency_ms_p95, 1), TextTable::Num(r.success, 2),
                  TextTable::Num(r.energy_j_per_sensor_day, 1),
                  TextTable::Num(r.batched_share, 3), TextTable::Int(r.kills),
                  TextTable::Int(r.killed_failures), TextTable::Num(r.degraded_share, 2),
                  TextTable::Num(r.other_shard_success, 2), FmtMs(r.recovery_ms),
                  FmtMs(r.promotion_ms)});
    std::printf("  done: %2d proxies x %4d sensors (%s, repl=%s) fingerprint=%016llx\n",
                cell.proxies, cell.sensors, ShardPolicyName(cell.policy),
                cell.replication ? "yes" : "no",
                static_cast<unsigned long long>(r.fingerprint));
    char key_buf[96];
    std::snprintf(key_buf, sizeof(key_buf), "failover/p%dxs%d/%s/repl%d",
                  cell.proxies, cell.sensors, ShardPolicyName(cell.policy),
                  cell.replication ? 1 : 0);
    BenchReport::Row& row = report.AddRow(key_buf);
    row.Config("proxies", cell.proxies)
        .Config("sensors", cell.sensors)
        .Config("policy", ShardPolicyName(cell.policy))
        .Config("replication", cell.replication ? 1 : 0)
        .Config("batch_epoch_s", ToSeconds(cell.batch_epoch))
        .Config("resumed", r.resumed ? 1 : 0);
    row.Metric("success", r.success)
        .Metric("batched_share", r.batched_share)
        .Metric("kills", r.kills)
        .Metric("killed_failures", r.killed_failures)
        .Metric("degraded_share", r.degraded_share)
        .Metric("other_shard_success", r.other_shard_success)
        .Metric("recovery_ms", r.recovery_ms)
        .Metric("promotion_ms", r.promotion_ms)
        .Metric("promotions", static_cast<double>(r.promotions));
    row.LatencyMs("mean", r.now_latency_ms_mean).LatencyMs("p95", r.now_latency_ms_p95);
    row.Energy("j_per_sensor_day", r.energy_j_per_sensor_day);
    row.Fingerprint("simulator", r.fingerprint);
    if (cell.replication && r.killed_failures > 0) {
      std::printf("  VIOLATION: %d failed queries on killed shards with replication\n",
                  r.killed_failures);
      ++violations;
    }
    if (cell.replication && r.promotions == 0) {
      std::printf("  VIOLATION: no replica promotions recorded\n");
      ++violations;
    }
  }
  std::printf("\n");
  table.Print();
  if (write_csv) {
    // Opt-in only: bench dumps do not belong in the tree (and .gitignore backstops
    // the ones a local run leaves behind).
    table.WriteCsvFile("scale_sharding.csv");
  }

  // --- double kill: home proxy, then its promoted acting owner ---
  const int dk_proxies = smoke ? 4 : 8;
  const int dk_sensors = smoke ? 64 : 256;
  std::printf("\nDouble kill (%d proxies x %d sensors, K=2): home proxy, then the\n",
              dk_proxies, dk_sensors);
  std::printf("acting owner; probes inside and outside the promotion window:\n");
  const DoubleKillResult dk = RunDoubleKillCell(dk_proxies, dk_sensors);
  std::printf("  probes %d | failed inside window %d | failed after promotion %d |"
              " chain answers %d | promotions %llu | fingerprint=%016llx\n",
              dk.probes, dk.failures_inside, dk.failures_outside, dk.chain_answers,
              static_cast<unsigned long long>(dk.promotions),
              static_cast<unsigned long long>(dk.fingerprint));
  if (dk.failures_inside > 0) {
    std::printf("  VIOLATION: %d queries failed inside the acting owner's promotion"
                " window (per-sensor chain did not fall through)\n",
                dk.failures_inside);
    ++violations;
  }
  if (dk.failures_outside > 0) {
    std::printf("  VIOLATION: %d queries failed after the second promotion\n",
                dk.failures_outside);
    ++violations;
  }
  if (dk.chain_answers == 0) {
    std::printf("  VIOLATION: no inside-window answer rode the failover chain\n");
    ++violations;
  }
  report.AddRow("double_kill")
      .Config("proxies", dk_proxies)
      .Config("sensors", dk_sensors)
      .Metric("probes", dk.probes)
      .Metric("failures_inside", dk.failures_inside)
      .Metric("failures_outside", dk.failures_outside)
      .Metric("chain_answers", dk.chain_answers)
      .Metric("promotions", static_cast<double>(dk.promotions))
      .Fingerprint("simulator", dk.fingerprint);

  // --- rebalancing under a skewed workload ---
  std::printf("\nRebalancing sweep (4 proxies, skewed 80/20 workload, bound 1.5):\n");
  const RebalanceResult reb = RunRebalanceCell(4, 64);
  std::printf("  load ratio before %.2f -> after %.2f | migrations %llu | sweeps %llu |"
              " hot shard %d -> %d sensors | ok %.2f\n",
              reb.ratio_before, reb.ratio_after,
              static_cast<unsigned long long>(reb.migrations),
              static_cast<unsigned long long>(reb.sweeps), reb.hot_shard_size_before,
              reb.hot_shard_size_after, reb.success);
  if (reb.ratio_after > 1.5) {
    std::printf("  VIOLATION: rebalanced load ratio %.2f > 1.5\n", reb.ratio_after);
    ++violations;
  }
  if (reb.migrations == 0) {
    std::printf("  VIOLATION: rebalancer never migrated a sensor\n");
    ++violations;
  }
  report.AddRow("rebalance")
      .Config("proxies", 4)
      .Config("sensors", 64)
      .Metric("ratio_before", reb.ratio_before)
      .Metric("ratio_after", reb.ratio_after)
      .Metric("migrations", static_cast<double>(reb.migrations))
      .Metric("sweeps", static_cast<double>(reb.sweeps))
      .Metric("success", reb.success)
      .Fingerprint("simulator", reb.fingerprint);

  // --- parallel shard-lane engine: threads sweep + scale cells ---
  {
    struct EngineCell {
      int proxies;
      int sensors;
      Duration span;
    };
    std::vector<EngineCell> engine_cells;
    std::vector<int> thread_counts;
    if (smoke) {
      engine_cells.push_back({4, 256, Hours(1)});
      thread_counts = {1, 2};
    } else {
      engine_cells.push_back({4, 256, Hours(1)});
      engine_cells.push_back({16, 1024, Hours(1)});
      engine_cells.push_back({16, 4096, Hours(2)});
      thread_counts = {1, 2, 8};
    }
    const unsigned hw_threads = std::thread::hardware_concurrency();
    std::printf("\nShard-lane engine (lane = shard, epoch barriers; %u hardware "
                "threads):\n", hw_threads);
    TextTable engine_table;
    engine_table.SetHeader({"proxies", "sensors", "threads", "events", "wall s",
                            "events/s", "vs 1thr", "fingerprint"});
    for (const EngineCell& cell : engine_cells) {
      double base_eps = 0.0;
      double best_speedup = 0.0;
      uint64_t base_fp = 0;
      for (int threads : thread_counts) {
        const EngineResult r = RunEngineCell(cell.proxies, cell.sensors, threads,
                                             cell.span, /*tiny_flash=*/false);
        if (threads == 1) {
          base_eps = r.events_per_sec;
          base_fp = r.fingerprint;
        }
        const double speedup = base_eps > 0.0 ? r.events_per_sec / base_eps : 0.0;
        best_speedup = std::max(best_speedup, speedup);
        char fp_buf[32];
        std::snprintf(fp_buf, sizeof(fp_buf), "%016llx",
                      static_cast<unsigned long long>(r.fingerprint));
        engine_table.AddRow({TextTable::Int(cell.proxies), TextTable::Int(cell.sensors),
                             TextTable::Int(threads),
                             TextTable::Int(static_cast<long long>(r.events)),
                             TextTable::Num(r.wall_s, 2),
                             TextTable::Num(r.events_per_sec / 1e6, 2),
                             TextTable::Num(speedup, 2), fp_buf});
        char key_buf[96];
        std::snprintf(key_buf, sizeof(key_buf), "engine/p%dxs%d/threads%d",
                      cell.proxies, cell.sensors, threads);
        report.AddRow(key_buf)
            .Config("proxies", cell.proxies)
            .Config("sensors", cell.sensors)
            .Config("threads", threads)
            .Metric("events", static_cast<double>(r.events))
            .Metric("events_per_s", r.events_per_sec)
            .Metric("speedup_vs_1thr", speedup)
            .Metric("wall_s", r.wall_s)
            .Fingerprint("simulator", r.fingerprint);
        if (r.fingerprint != base_fp) {
          std::printf("  VIOLATION: %dx%d fingerprint diverges at threads=%d\n",
                      cell.proxies, cell.sensors, threads);
          ++violations;
        }
        if (r.failed_queries > 0) {
          std::printf("  VIOLATION: %d failed probes on the lane engine (%dx%d, "
                      "threads=%d)\n", r.failed_queries, cell.proxies, cell.sensors,
                      threads);
          ++violations;
        }
      }
      const bool speedup_cell = cell.sensors >= 4096;
      if (speedup_cell && hw_threads >= 8 && best_speedup < 2.0) {
        std::printf("  VIOLATION: %dx%d best speedup %.2fx < 2x at 8 threads\n",
                    cell.proxies, cell.sensors, best_speedup);
        ++violations;
      }
    }
    engine_table.Print();

    if (!smoke) {
      // ~100k sensors in one cell, 128 lanes. Budgeted:
      // blowing the wall clock is a violation, not a shrug.
      constexpr double kWallBudgetS = 300.0;
      const int big_proxies = 128;
      const int big_sensors = 128 * 781;  // 99,968
      std::printf("\n100k-sensor cell (%d proxies x %d sensors, threads=8, 1 h "
                  "simulated):\n", big_proxies, big_sensors);
      const EngineResult big = RunEngineCell(big_proxies, big_sensors, /*threads=*/8,
                                             Hours(1), /*tiny_flash=*/true);
      std::printf("  %llu events in %.1f s wall (%.2fM events/s) | failed probes %d |"
                  " fingerprint=%016llx\n",
                  static_cast<unsigned long long>(big.events), big.wall_s,
                  big.events_per_sec / 1e6, big.failed_queries,
                  static_cast<unsigned long long>(big.fingerprint));
      if (big.wall_s > kWallBudgetS) {
        std::printf("  VIOLATION: 100k cell took %.1f s (> %.0f s budget)\n",
                    big.wall_s, kWallBudgetS);
        ++violations;
      }
      if (big.failed_queries > 0) {
        std::printf("  VIOLATION: %d failed probes on the 100k cell\n",
                    big.failed_queries);
        ++violations;
      }
      report.AddRow("engine/p128xs99968/threads8")
          .Config("proxies", big_proxies)
          .Config("sensors", big_sensors)
          .Config("threads", 8)
          .Metric("events", static_cast<double>(big.events))
          .Metric("events_per_s", big.events_per_sec)
          .Metric("wall_s", big.wall_s)
          .Fingerprint("simulator", big.fingerprint);
    }
  }

  // --- determinism: same seed, bit-identical replay ---
  std::printf("\nDeterminism check (same seed, re-run):\n");
  const CellResult again = RunCell(4, 256, ShardPolicy::kGeographic, true, 0);
  const bool cell_ok = again.fingerprint == results[2].fingerprint;
  std::printf("  failover cell fingerprint %016llx vs %016llx: %s\n",
              static_cast<unsigned long long>(results[2].fingerprint),
              static_cast<unsigned long long>(again.fingerprint),
              cell_ok ? "MATCH" : "MISMATCH");
  const RebalanceResult reb2 = RunRebalanceCell(4, 64);
  const bool reb_ok = reb2.fingerprint == reb.fingerprint;
  std::printf("  rebalance cell fingerprint %016llx vs %016llx: %s\n",
              static_cast<unsigned long long>(reb.fingerprint),
              static_cast<unsigned long long>(reb2.fingerprint),
              reb_ok ? "MATCH" : "MISMATCH");
  if (!cell_ok || !reb_ok) {
    ++violations;
  }

  if (!report.WriteJson(json_path)) {
    ++violations;
  }
  if (violations > 0) {
    std::printf("\n%d violation(s) — see above.\n", violations);
    return 1;
  }
  std::printf("\nAll availability, balance, and determinism requirements hold.\n");
  return 0;
}
