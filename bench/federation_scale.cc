// Federation scale bench: many proxy cells under one global sensor namespace, with
// the open-loop *in-sim* query driver carrying the interactive workload — every
// query is issued as a control-lane event inside the simulation, so a cell grid of
// thousands of sensors runs its whole query stream with zero host round-trips.
//
// Each cell of the sweep (cells × proxies/cell × sensors/cell) runs three phases
// with one driver per gateway cell targeting the whole federation namespace:
//
//   healthy   — every query must answer (zero failures; cross-cell share tracks
//               1 - 1/cells for uniform targeting).
//   cell kill — one whole cell is killed. Queries into its namespace block fail
//               *fast* at the serving store (no replica survives a whole-cell
//               kill); everything else keeps answering. The failed share must stay
//               near the killed block's share of the namespace — and an in-cell
//               single-proxy kill is also probed (replication keeps that at zero).
//   revive    — the cell returns; failures must stop.
//
// Self-checks (non-zero exit on violation):
//   - the acceptance cell (>= 4 cells x 8 proxies x 4096 sensors/cell) sustains
//     >= 100 queries/sim-minute federation-wide,
//   - healthy-phase failures are zero; kill-phase failures stay inside the killed
//     cell's namespace share band; revive-phase failures are zero,
//   - the acceptance cell re-runs at sim_threads in {1, 8}, again with
//     cell-parallel stepping (cell_threads = num_cells), again with the cells
//     forked into presto_cell worker processes (cell_processes > 1, the
//     byte-serialized federation seam), and again over localhost TCP against
//     `presto_cell --listen` workers (cell_endpoints, the multi-machine
//     transport) — all with a bit-identical federation fingerprint and
//     bit-identical driver latency histograms,
//   - cell-parallel stepping clears >= 1.5x events/s over sequential stepping on
//     the 4 x 8 x 16k acceptance cell (checked when the host has >= 8 hardware
//     threads).
//
// Report keys are unchanged from earlier baselines for in-process rows; rows run
// under multi-process stepping append a "/procsN" suffix and rows run over the
// TCP socket transport append "/sockN", so bench_compare lines each up against
// its own kind.
//
// `--smoke` runs a reduced grid with the same checks (the CI entry point).
// `--mega` appends the 16-cell x ~100k-sensor cell (16 x 8 x 6144 = 98304
// sensors, tiny per-sensor flash, cell-parallel stepping) and re-runs it with
// one worker process per cell and with one TCP socket worker per cell — the
// committed BENCH_federation_scale.json baseline rows; too slow for per-PR CI.
// `--csv` writes the summary table to federation_scale.csv (never by default:
// bench dumps do not belong in the tree). `--json <path>` writes the
// machine-readable report (schema: bench/bench_report.h, docs/BENCHMARKS.md).
//
// Checkpoint/restore (docs/ARCHITECTURE.md "Checkpoint format"):
//   - a round-trip determinism self-check always runs: a small federation is
//     checkpointed at a barrier mid-workload, a fresh federation restores from the
//     bytes, and both must finish with bit-identical fingerprints and latency
//     histograms — swept over sim_threads {1, 8} x cell_threads {1, 4}.
//   - `--ckpt-out <path>` saves the first grid run's post-warmup barrier state;
//     `--resume <path>` starts the first grid run from such a file instead of
//     re-running warmup (the warm-start row in docs/BENCHMARKS.md) and then drives
//     the same kill/revive phases from the revived state.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_report.h"
#include "src/core/cell_worker.h"
#include "src/core/federation.h"
#include "src/util/ckpt.h"
#include "src/util/stats.h"
#include "src/util/table.h"
#include "src/workload/query_driver.h"

using namespace presto;

namespace {

constexpr uint64_t kSeed = 20260731;

struct PhaseWindow {
  uint64_t issued = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t cross_cell = 0;
};

struct FedCellResult {
  double sim_minutes_driven = 0.0;
  double queries_per_min = 0.0;
  uint64_t events = 0;
  double events_per_sec = 0.0;
  double cross_share = 0.0;
  double now_latency_ms_mean = 0.0;
  double now_latency_ms_p95 = 0.0;
  PhaseWindow healthy;
  PhaseWindow killed;
  PhaseWindow revived;
  uint64_t trunk_messages = 0;
  uint64_t trunk_bytes = 0;
  uint64_t fingerprint = 0;
  uint64_t histogram = 0;
  bool spawn_failed = false;  // could not launch the localhost socket workers
  double wall_s = 0.0;
  double fed_epoch_ms = 0.0;  // the federation epoch the row ran on
  // Per-query energy attribution: sensor radio joules the drivers' queries cost,
  // split by query class and by serving (source) cell.
  double energy_j = 0.0;
  double energy_now_j = 0.0;
  double energy_past_j = 0.0;
  uint64_t energized = 0;
  std::map<int, double> energy_by_cell_j;
  bool ckpt_failed = false;  // --ckpt-out / --resume file operation failed
  bool resumed = false;      // warm-started from a checkpoint (warmup skipped)
};

struct DriverSnapshot {
  uint64_t issued = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t cross_cell = 0;
};

// Everything below reads drivers through the mode-independent facade (driver
// indices + Federation::DriverStats), so the same bench body runs in-process,
// cell-parallel, and with cells forked into presto_cell worker processes.
DriverSnapshot Snapshot(const Federation& fed, const std::vector<int>& drivers) {
  DriverSnapshot snap;
  for (const int d : drivers) {
    const QueryDriverStats stats = fed.DriverStats(d);
    snap.issued += stats.issued;
    snap.completed += stats.completed;
    snap.failed += stats.failed;
    snap.cross_cell += stats.cross_cell;
  }
  return snap;
}

// Localhost `presto_cell --listen` workers for the /sockN rows — the TCP
// transport measured end to end on one machine. Each federation spawns its own
// set: a worker's listen loop exits after the federation it served shuts down.
// Declared before the Federation so its destructor reaps only after the
// federation's clean kShutdown.
struct BenchSocketWorkers {
  std::vector<SpawnedCellWorker> workers;
  bool ok = true;
  explicit BenchSocketWorkers(int n) {
    for (int i = 0; i < n; ++i) {
      auto spawned = SpawnCellWorkerListening();
      if (!spawned.ok()) {
        std::printf("  VIOLATION: cannot spawn socket worker %d: %s\n", i,
                    spawned.status().message().c_str());
        ok = false;
        return;
      }
      workers.push_back(*spawned);
    }
  }
  BenchSocketWorkers(const BenchSocketWorkers&) = delete;
  BenchSocketWorkers& operator=(const BenchSocketWorkers&) = delete;
  ~BenchSocketWorkers() {
    for (SpawnedCellWorker& worker : workers) {
      StopCellWorker(worker);
    }
  }
  void Fill(FederationConfig& config) const {
    config.cell_endpoints.clear();
    for (const SpawnedCellWorker& worker : workers) {
      config.cell_endpoints.push_back({"127.0.0.1", worker.port});
    }
  }
};

PhaseWindow Delta(const DriverSnapshot& before, const DriverSnapshot& after) {
  PhaseWindow window;
  window.issued = after.issued - before.issued;
  window.completed = after.completed - before.completed;
  window.failed = after.failed - before.failed;
  window.cross_cell = after.cross_cell - before.cross_cell;
  return window;
}

FedCellResult RunFederationCell(int num_cells, int proxies, int sensors_per_cell,
                                int sim_threads, int cell_threads,
                                int cell_processes, int sockets,
                                double rate_per_cell_per_hour, Duration warmup,
                                Duration phase, bool tiny_flash,
                                const std::string& ckpt_out = "",
                                const std::string& resume_path = "") {
  FederationConfig config;
  config.num_cells = num_cells;
  config.cell.num_proxies = proxies;
  config.cell.sensors_per_proxy = sensors_per_cell / proxies;
  config.cell.enable_replication = true;
  config.cell.replication_factor = 2;
  config.cell.promotion_delay = Seconds(10);
  // Interactive operating point — and the phase accounting depends on it: a pull
  // in flight when its cell is killed fails by timeout, so the timeout must expire
  // inside the kill window, not leak a stale failure into the revived window.
  config.cell.pull_timeout = Seconds(30);
  // 256 KiB archive per sensor keeps the 16k-sensor acceptance cell inside laptop
  // RAM (default 1 MiB x 16384 sensors is 16 GiB) while exercising the flash path
  // on every sample. The ~100k-sensor mega cell drops to 16 KiB (as in
  // scale_sharding's 100k cell).
  config.cell.flash.num_blocks = tiny_flash ? 4 : 64;
  config.cell.sim_threads = sim_threads;
  // Conservative-lookahead operating point: long-haul 250 ms trunks and a
  // federation epoch equal to the trunk latency (cells step on their own 2 ms
  // route-hop grid to each federation barrier). The barrier clamp then never
  // binds on trunk mail, so cross-cell latency is trunk latency plus real
  // serialization time instead of being quantized up to barrier multiples — the
  // p95 self-check below holds the bench to that.
  config.link.latency = Millis(250);
  config.epoch = Millis(250);
  config.cell_threads = cell_threads;
  config.cell_processes = cell_processes;
  config.seed = kSeed;

  std::unique_ptr<BenchSocketWorkers> socket_workers;
  if (sockets > 0) {
    socket_workers = std::make_unique<BenchSocketWorkers>(sockets);
    if (!socket_workers->ok) {
      FedCellResult failed;
      failed.spawn_failed = true;
      return failed;
    }
    socket_workers->Fill(config);
  }

  Federation fed(config);

  std::vector<int> drivers;
  for (int c = 0; c < num_cells; ++c) {
    QueryDriverParams params;
    params.mix.queries_per_hour = rate_per_cell_per_hour;
    params.mix.num_sensors = 0;  // whole federation namespace
    params.mix.past_fraction = 0.2;
    params.mix.mean_past_age = Minutes(30);
    params.mix.max_past_age = Hours(1);
    params.mix.min_tolerance = 1.5;
    params.mix.max_tolerance = 3.0;
    params.mix.seed = kSeed ^ (0xd1e5 + static_cast<uint64_t>(c));
    drivers.push_back(fed.AttachDriver(c, params));
  }
  fed.Start();

  // Queries routed just before a topology change complete a couple of federation
  // epochs later (trunk hop + barrier clamps), and a pull already in flight at the
  // transition can only fail by timeout expiry up to pull_timeout later: the grace
  // window after each transition must cover both so stragglers are attributed to
  // the phase that issued them.
  const Duration grace = config.cell.pull_timeout + Seconds(15);

  const auto wall_start = std::chrono::steady_clock::now();
  FedCellResult out;
  if (!resume_path.empty()) {
    // Warm start: restore the post-warmup barrier state instead of re-simulating
    // the warmup window. The resumed timeline is bit-identical to the cold one
    // (same fingerprint and histograms at the end) — the restore invariant.
    auto loaded = Checkpoint::ReadFile(resume_path);
    if (!loaded.ok()) {
      std::printf("  CKPT: cannot read %s: %s\n", resume_path.c_str(),
                  loaded.status().message().c_str());
      out.ckpt_failed = true;
      return out;
    }
    const Status restored = fed.LoadCheckpoint(*loaded);
    if (!restored.ok()) {
      std::printf("  CKPT: restore failed: %s\n", restored.message().c_str());
      out.ckpt_failed = true;
      return out;
    }
    out.resumed = true;
    std::printf("  resumed from %s at sim t=%.0f s (warmup skipped)\n",
                resume_path.c_str(), ToSeconds(fed.Now()));
  } else {
    fed.RunUntil(warmup);
    if (!ckpt_out.empty()) {
      Checkpoint ckpt;
      Status saved = fed.SaveCheckpoint(&ckpt);
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
  for (const int d : drivers) {
    fed.StartDriver(d, 3 * phase + grace);
  }

  // Healthy phase.
  const DriverSnapshot at_start = Snapshot(fed, drivers);
  fed.RunUntil(fed.Now() + phase);
  const DriverSnapshot at_kill = Snapshot(fed, drivers);
  out.healthy = Delta(at_start, at_kill);

  // Kill phase: one whole cell goes dark; a proxy inside a *surviving* cell dies
  // too (in-cell replication must absorb that one without a single failed query —
  // it is accounted inside the same window).
  const int victim_cell = num_cells / 2;
  fed.KillCell(victim_cell);
  // Probed on every row, including the ~100k mega cell: with barrier-time lane
  // re-binding the re-homed 768-sensor shard stops paying the cross-lane radio tax
  // one epoch after each ownership flip, so the promotion + revive hand-back cycle
  // fits the bench window that used to force skipping it here.
  const bool proxy_kill = true;
  if (proxy_kill) {
    fed.KillProxyInCell((victim_cell + 1) % num_cells, 0);
  }
  fed.RunUntil(fed.Now() + phase);

  // Revive, then let kill-window stragglers drain before judging the new window.
  fed.ReviveCell(victim_cell);
  if (proxy_kill) {
    fed.ReviveProxyInCell((victim_cell + 1) % num_cells, 0);
  }
  fed.RunUntil(fed.Now() + grace);
  const DriverSnapshot at_revive = Snapshot(fed, drivers);
  out.killed = Delta(at_kill, at_revive);

  fed.RunUntil(fed.Now() + phase + Minutes(2));  // trailing settle drains in-flight
  const DriverSnapshot at_end = Snapshot(fed, drivers);
  out.revived = Delta(at_revive, at_end);
  const auto wall_end = std::chrono::steady_clock::now();
  out.wall_s = std::chrono::duration<double>(wall_end - wall_start).count();

  out.sim_minutes_driven = ToMinutes(3 * phase + grace);
  out.queries_per_min = static_cast<double>(at_end.issued) / out.sim_minutes_driven;
  out.events = fed.EventsExecuted();
  out.events_per_sec = static_cast<double>(out.events) / std::max(out.wall_s, 1e-9);
  out.cross_share = at_end.issued > 0
                        ? static_cast<double>(at_end.cross_cell) /
                              static_cast<double>(at_end.issued)
                        : 0.0;

  out.fed_epoch_ms = ToMillis(fed.config().epoch);
  SampleSet latency_ms;
  LatencyHistogram merged;
  for (const int d : drivers) {
    const QueryDriverStats stats = fed.DriverStats(d);
    merged.Merge(stats.latency);
    for (double ms : stats.latency_ms.samples()) {
      latency_ms.Add(ms);
    }
    out.energy_j += stats.energy_j;
    out.energy_now_j += stats.energy_now_j;
    out.energy_past_j += stats.energy_past_j;
    out.energized += stats.energized;
    for (const auto& [cell, joules] : stats.energy_by_cell_j) {
      out.energy_by_cell_j[cell] += joules;
    }
  }
  out.now_latency_ms_mean = latency_ms.mean();
  out.now_latency_ms_p95 = latency_ms.Quantile(0.95);
  out.histogram = merged.Hash();
  const FederationTrunkTotals trunks = fed.TrunkTotals();
  out.trunk_messages = trunks.messages;
  out.trunk_bytes = trunks.bytes;
  out.fingerprint = fed.fingerprint();
  return out;
}

// --- checkpoint round-trip determinism self-check -----------------------------
//
// One small federation runs a live workload, checkpoints at a barrier mid-run, and
// keeps going to `end`; a second, freshly constructed federation restores from the
// checkpoint bytes and runs the remaining window. Restore at a barrier must be
// observationally identical to never stopping: both fingerprints and both merged
// driver latency histograms must match bit for bit — at every (sim_threads,
// cell_threads) combination.

FederationConfig RoundTripConfig(int sim_threads, int cell_threads,
                                 int cell_processes) {
  FederationConfig config;
  config.num_cells = 4;
  config.cell.num_proxies = 2;
  config.cell.sensors_per_proxy = 16;
  config.cell.enable_replication = true;
  config.cell.replication_factor = 2;
  config.cell.promotion_delay = Seconds(10);
  config.cell.pull_timeout = Seconds(30);
  config.cell.flash.num_blocks = 4;
  config.cell.sim_threads = sim_threads;
  config.link.latency = Millis(250);
  config.epoch = Millis(250);
  config.cell_threads = cell_threads;
  config.cell_processes = cell_processes;
  config.seed = kSeed;
  return config;
}

std::vector<int> AttachRoundTripDrivers(Federation& fed) {
  std::vector<int> drivers;
  for (int c = 0; c < fed.num_cells(); ++c) {
    QueryDriverParams params;
    params.mix.queries_per_hour = 2400.0;
    params.mix.num_sensors = 0;  // whole federation namespace
    params.mix.past_fraction = 0.2;
    params.mix.mean_past_age = Minutes(5);
    params.mix.max_past_age = Minutes(10);
    params.mix.min_tolerance = 1.5;
    params.mix.max_tolerance = 3.0;
    params.mix.seed = kSeed ^ (0xd1e5 + static_cast<uint64_t>(c));
    drivers.push_back(fed.AttachDriver(c, params));
  }
  return drivers;
}

uint64_t MergedHistogramHash(const Federation& fed, const std::vector<int>& drivers) {
  LatencyHistogram merged;
  for (const int d : drivers) {
    merged.Merge(fed.DriverStats(d).latency);
  }
  return merged.Hash();
}

int RunRoundTripCheck(int sim_threads, int cell_threads, int cell_processes,
                      int sockets, BenchReport& report) {
  const Duration warm = Minutes(5);
  const Duration ckpt_at = warm + Minutes(2);
  const Duration end = ckpt_at + Minutes(4);
  int violations = 0;
  Checkpoint ckpt;
  uint64_t fp_cont = 0;
  uint64_t hist_cont = 0;
  // Each federation spawns its own socket workers (the listen loop exits with
  // the federation it served), so save-side and restore-side both cross TCP.
  {
    std::unique_ptr<BenchSocketWorkers> socket_workers;
    FederationConfig config =
        RoundTripConfig(sim_threads, cell_threads, cell_processes);
    if (sockets > 0) {
      socket_workers = std::make_unique<BenchSocketWorkers>(sockets);
      if (!socket_workers->ok) {
        return 1;
      }
      socket_workers->Fill(config);
    }
    Federation fed(config);
    std::vector<int> drivers = AttachRoundTripDrivers(fed);
    fed.Start();
    fed.RunUntil(warm);
    for (const int d : drivers) {
      fed.StartDriver(d, 0);
    }
    fed.RunUntil(ckpt_at);
    const Status saved = fed.SaveCheckpoint(&ckpt);
    if (!saved.ok()) {
      std::printf("  VIOLATION: round-trip save failed (sim=%d cell=%d "
                  "procs=%d): %s\n",
                  sim_threads, cell_threads, cell_processes,
                  saved.message().c_str());
      return 1;
    }
    fed.RunUntil(end);
    fp_cont = fed.fingerprint();
    hist_cont = MergedHistogramHash(fed, drivers);
  }
  // Encode/decode through the wire format so section checksums are exercised too.
  auto decoded = Checkpoint::Decode(span<const uint8_t>(ckpt.Encode()));
  if (!decoded.ok()) {
    std::printf("  VIOLATION: round-trip decode failed: %s\n",
                decoded.status().message().c_str());
    return 1;
  }
  uint64_t fp_resumed = 0;
  uint64_t hist_resumed = 0;
  {
    std::unique_ptr<BenchSocketWorkers> socket_workers;
    FederationConfig config =
        RoundTripConfig(sim_threads, cell_threads, cell_processes);
    if (sockets > 0) {
      socket_workers = std::make_unique<BenchSocketWorkers>(sockets);
      if (!socket_workers->ok) {
        return 1;
      }
      socket_workers->Fill(config);
    }
    Federation fed(config);
    std::vector<int> drivers = AttachRoundTripDrivers(fed);
    fed.Start();
    const Status restored = fed.LoadCheckpoint(*decoded);
    if (!restored.ok()) {
      std::printf("  VIOLATION: round-trip restore failed (sim=%d cell=%d "
                  "procs=%d): %s\n",
                  sim_threads, cell_threads, cell_processes,
                  restored.message().c_str());
      return 1;
    }
    fed.RunUntil(end);
    fp_resumed = fed.fingerprint();
    hist_resumed = MergedHistogramHash(fed, drivers);
  }
  if (fp_resumed != fp_cont) {
    std::printf("  VIOLATION: resumed fingerprint %016llx != continuous %016llx "
                "(sim=%d cell=%d procs=%d)\n",
                static_cast<unsigned long long>(fp_resumed),
                static_cast<unsigned long long>(fp_cont), sim_threads,
                cell_threads, cell_processes);
    ++violations;
  }
  if (hist_resumed != hist_cont) {
    std::printf("  VIOLATION: resumed latency histogram %016llx != continuous "
                "%016llx (sim=%d cell=%d procs=%d)\n",
                static_cast<unsigned long long>(hist_resumed),
                static_cast<unsigned long long>(hist_cont), sim_threads,
                cell_threads, cell_processes);
    ++violations;
  }
  char key_buf[80];
  int key_len = std::snprintf(key_buf, sizeof(key_buf), "ckpt_roundtrip/sim%d/cell%d",
                              sim_threads, cell_threads);
  if (cell_processes > 1) {
    key_len += std::snprintf(key_buf + key_len, sizeof(key_buf) - key_len,
                             "/procs%d", cell_processes);
  }
  if (sockets > 0) {
    std::snprintf(key_buf + key_len, sizeof(key_buf) - key_len, "/sock%d",
                  sockets);
  }
  BenchReport::Row& row = report.AddRow(key_buf);
  row.Config("sim_threads", sim_threads)
      .Config("cell_threads", cell_threads)
      .Config("cell_processes", cell_processes)
      .Config("sockets", sockets);
  row.Metric("roundtrip_match", violations == 0 ? 1.0 : 0.0)
      .Metric("ckpt_bytes", static_cast<double>(ckpt.Encode().size()))
      .Metric("ckpt_sections", static_cast<double>(ckpt.sections().size()));
  row.Fingerprint("continuous", fp_cont).Fingerprint("resumed", fp_resumed);
  if (violations == 0) {
    std::printf("  ckpt round-trip ok: sim=%d cell=%d procs=%d socks=%d "
                "fingerprint=%016llx histogram=%016llx (%zu sections)\n",
                sim_threads, cell_threads, cell_processes, sockets,
                static_cast<unsigned long long>(fp_cont),
                static_cast<unsigned long long>(hist_cont),
                ckpt.sections().size());
  }
  return violations;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = ConsumeJsonFlag(&argc, argv);
  bool smoke = false;
  bool mega = false;
  bool write_csv = false;
  std::string ckpt_out;
  std::string resume_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--mega") {
      mega = true;
    } else if (arg == "--csv") {
      write_csv = true;
    } else if (arg == "--ckpt-out" && i + 1 < argc) {
      ckpt_out = argv[++i];
    } else if (arg == "--resume" && i + 1 < argc) {
      resume_path = argv[++i];
    }
  }
  const unsigned hw_threads = std::thread::hardware_concurrency();
  std::printf("PRESTO federation bench: multi-cell deployments under one global\n");
  std::printf("namespace, queries driven from inside the simulation (open-loop\n");
  std::printf("control-lane arrivals), one whole cell killed and revived mid-run.\n");
  std::printf("Deterministic seed %llu, %u hardware threads.%s%s\n\n",
              static_cast<unsigned long long>(kSeed), hw_threads,
              smoke ? " [--smoke: reduced grid]" : "",
              mega ? " [--mega: 16-cell ~100k row]" : "");

  // (sim_threads, cell_threads, cell_processes, sockets): lane workers inside
  // each cell x host threads stepping the cells concurrently within each
  // federation epoch x presto_cell worker processes the cells are forked into
  // (1 = in-process) x localhost `presto_cell --listen` workers reached over TCP
  // (0 = no socket transport; when set, cell_processes stays 1 and placement
  // follows FederationConfig::cell_endpoints).
  struct Combo {
    int sim_threads;
    int cell_threads;
    int cell_processes = 1;
    int sockets = 0;
  };
  struct Cell {
    int cells;
    int proxies;
    int sensors_per_cell;
    double rate_per_cell_per_hour;
    Duration warmup;
    Duration phase;
    bool acceptance;   // the >= 100 queries/sim-minute + determinism/speedup cell
    bool tiny_flash;   // 16 KiB per-sensor archive (the ~100k mega cell)
  };
  std::vector<Cell> grid;
  std::vector<Combo> acceptance_combos;
  if (smoke) {
    grid.push_back({2, 2, 32, 1200.0, Minutes(30), Minutes(4), false, false});
    grid.push_back({4, 4, 64, 1800.0, Minutes(30), Minutes(4), true, false});
    acceptance_combos.push_back({1, 1});
    acceptance_combos.push_back({2, 1});
    acceptance_combos.push_back({1, 4});
    acceptance_combos.push_back({1, 1, 4});
    acceptance_combos.push_back({1, 1, 1, 4});
  } else {
    grid.push_back({2, 4, 256, 1800.0, Hours(1), Minutes(8), false, false});
    grid.push_back({4, 8, 1024, 1800.0, Hours(1), Minutes(8), false, false});
    // Acceptance: 4 cells x 8 proxies x 4096 sensors/cell = 16384 sensors, four
    // gateways at 30 q/min each -> 120 queries/sim-minute federation-wide.
    grid.push_back({4, 8, 4096, 1800.0, Hours(1), Minutes(8), true, false});
    acceptance_combos.push_back({1, 1});
    acceptance_combos.push_back({8, 1});
    acceptance_combos.push_back({1, 4});
    acceptance_combos.push_back({1, 1, 4});
    acceptance_combos.push_back({1, 1, 1, 4});
  }
  if (mega) {
    // 16 cells x 8 proxies x 6144 sensors/cell = 98304 sensors under one
    // namespace, stepped cell-parallel — the committed baseline's headline row.
    grid.push_back({16, 8, 6144, 1800.0, Minutes(15), Minutes(2), false, true});
  }

  int violations = 0;
  TextTable table;
  table.SetHeader({"cells", "proxies", "sensors", "threads", "cell_thr", "procs",
                   "socks", "q/min",
                   "cross", "lat ms", "p95 ms", "healthy fail", "killed fail",
                   "fail share", "revived fail", "trunk msgs", "Mev/s", "wall s",
                   "fingerprint"});
  BenchReport report("federation_scale");
  report.set_grid(std::string(smoke ? "smoke" : "full") + (mega ? "+mega" : ""));
  report.Config("seed", static_cast<double>(kSeed));
  report.Config("hardware_threads", static_cast<double>(hw_threads));

  // Checkpoint/restore determinism sweep: the full sim_threads x cell_threads
  // grid, always on (small federation — seconds of wall time) — plus one
  // multi-process row and one localhost-TCP row exercising save/restore across
  // both flavors of the worker seam.
  std::printf("checkpoint round-trip determinism sweep:\n");
  for (const int sim_threads : {1, 8}) {
    for (const int cell_threads : {1, 4}) {
      violations += RunRoundTripCheck(sim_threads, cell_threads, 1, 0, report);
    }
  }
  violations += RunRoundTripCheck(1, 1, 4, 0, report);
  violations += RunRoundTripCheck(1, 1, 1, 4, report);
  std::printf("\n");

  bool first_run = true;
  for (const Cell& cell : grid) {
    uint64_t base_fp = 0;
    uint64_t base_hist = 0;
    double sequential_eps = 0.0;
    double parallel_eps = 0.0;
    std::vector<Combo> combos;
    if (cell.acceptance) {
      for (const Combo combo : acceptance_combos) {
        combos.push_back(combo);
      }
    } else if (cell.tiny_flash) {
      // The mega cell runs cell-parallel (the committed baseline row), again
      // with one presto_cell worker process per cell, and again with one TCP
      // socket worker per cell — the ~100k-sensor row must complete under both
      // seams with the same fingerprint.
      combos.push_back({1, 4});
      combos.push_back({1, 1, 16});
      combos.push_back({1, 1, 1, 16});
    } else {
      combos.push_back(acceptance_combos.front());
    }
    for (const Combo combo : combos) {
      // --ckpt-out / --resume apply to the first run of the grid (the warm-start
      // pair must describe the same cell shape on both sides).
      const FedCellResult r = RunFederationCell(
          cell.cells, cell.proxies, cell.sensors_per_cell, combo.sim_threads,
          combo.cell_threads, combo.cell_processes, combo.sockets,
          cell.rate_per_cell_per_hour, cell.warmup, cell.phase, cell.tiny_flash,
          first_run ? ckpt_out : std::string(),
          first_run ? resume_path : std::string());
      first_run = false;
      if (r.ckpt_failed || r.spawn_failed) {
        ++violations;
        continue;
      }
      char fp_buf[32];
      std::snprintf(fp_buf, sizeof(fp_buf), "%016llx",
                    static_cast<unsigned long long>(r.fingerprint));
      const double fail_share =
          r.killed.completed > 0 ? static_cast<double>(r.killed.failed) /
                                       static_cast<double>(r.killed.completed)
                                 : 0.0;
      table.AddRow({TextTable::Int(cell.cells), TextTable::Int(cell.proxies),
                    TextTable::Int(cell.cells * cell.sensors_per_cell),
                    TextTable::Int(combo.sim_threads),
                    TextTable::Int(combo.cell_threads),
                    TextTable::Int(combo.cell_processes),
                    TextTable::Int(combo.sockets),
                    TextTable::Num(r.queries_per_min, 1),
                    TextTable::Num(r.cross_share, 2),
                    TextTable::Num(r.now_latency_ms_mean, 1),
                    TextTable::Num(r.now_latency_ms_p95, 1),
                    TextTable::Int(static_cast<long long>(r.healthy.failed)),
                    TextTable::Int(static_cast<long long>(r.killed.failed)),
                    TextTable::Num(fail_share, 2),
                    TextTable::Int(static_cast<long long>(r.revived.failed)),
                    TextTable::Int(static_cast<long long>(r.trunk_messages)),
                    TextTable::Num(r.events_per_sec / 1e6, 2),
                    TextTable::Num(r.wall_s, 1), fp_buf});
      std::printf("  done: %d cells x %d proxies x %d sensors, threads=%d "
                  "cell_threads=%d procs=%d socks=%d (%.1f q/min, "
                  "%.2fM events/s, %.1f s wall) fingerprint=%016llx\n",
                  cell.cells, cell.proxies, cell.cells * cell.sensors_per_cell,
                  combo.sim_threads, combo.cell_threads, combo.cell_processes,
                  combo.sockets, r.queries_per_min, r.events_per_sec / 1e6,
                  r.wall_s, static_cast<unsigned long long>(r.fingerprint));

      char key_buf[96];
      int key_len = std::snprintf(key_buf, sizeof(key_buf),
                                  "c%dxp%dxs%d/sim%d/cell%d", cell.cells,
                                  cell.proxies, cell.sensors_per_cell,
                                  combo.sim_threads, combo.cell_threads);
      if (combo.cell_processes > 1) {
        // In-process keys stay byte-identical to earlier baselines; only
        // multi-process and socket rows grow a suffix.
        key_len += std::snprintf(key_buf + key_len, sizeof(key_buf) - key_len,
                                 "/procs%d", combo.cell_processes);
      }
      if (combo.sockets > 0) {
        std::snprintf(key_buf + key_len, sizeof(key_buf) - key_len, "/sock%d",
                      combo.sockets);
      }
      BenchReport::Row& row = report.AddRow(key_buf);
      row.Config("cells", cell.cells)
          .Config("proxies", cell.proxies)
          .Config("sensors_per_cell", cell.sensors_per_cell)
          .Config("sim_threads", combo.sim_threads)
          .Config("cell_threads", combo.cell_threads)
          .Config("cell_processes", combo.cell_processes)
          .Config("sockets", combo.sockets)
          .Config("rate_per_cell_per_hour", cell.rate_per_cell_per_hour)
          .Config("resumed", r.resumed ? 1 : 0);
      row.Metric("queries_per_min", r.queries_per_min)
          .Metric("queries_per_s", r.queries_per_min / 60.0)
          .Metric("events", static_cast<double>(r.events))
          .Metric("events_per_s", r.events_per_sec)
          .Metric("cross_share", r.cross_share)
          .Metric("healthy_failed", static_cast<double>(r.healthy.failed))
          .Metric("killed_failed", static_cast<double>(r.killed.failed))
          .Metric("revived_failed", static_cast<double>(r.revived.failed))
          .Metric("trunk_messages", static_cast<double>(r.trunk_messages))
          .Metric("trunk_bytes", static_cast<double>(r.trunk_bytes))
          .Metric("wall_s", r.wall_s);
      row.Metric("fed_epoch_ms", r.fed_epoch_ms);
      row.LatencyMs("mean", r.now_latency_ms_mean)
          .LatencyMs("p95", r.now_latency_ms_p95);
      // J/query attribution by class and serving cell (queries that never touched
      // a sensor radio — cache hits, extrapolations — cost zero by construction).
      const uint64_t completed_total =
          r.healthy.completed + r.killed.completed + r.revived.completed;
      row.Energy("query_j_total", r.energy_j)
          .Energy("query_j_now", r.energy_now_j)
          .Energy("query_j_past", r.energy_past_j)
          .Energy("j_per_query",
                  completed_total > 0
                      ? r.energy_j / static_cast<double>(completed_total)
                      : 0.0)
          .Energy("energized_queries", static_cast<double>(r.energized));
      for (const auto& [cell_index, joules] : r.energy_by_cell_j) {
        row.Energy("query_j_cell" + std::to_string(cell_index), joules);
      }
      row.Fingerprint("federation", r.fingerprint).Fingerprint("histogram",
                                                               r.histogram);

      if (r.healthy.failed > 0) {
        std::printf("  VIOLATION: %llu failed queries in the healthy phase\n",
                    static_cast<unsigned long long>(r.healthy.failed));
        ++violations;
      }
      if (r.revived.failed > 0) {
        std::printf("  VIOLATION: %llu failed queries after the cell revived\n",
                    static_cast<unsigned long long>(r.revived.failed));
        ++violations;
      }
      // A dead cell's namespace block is 1/cells of a uniform target draw; the
      // kill-phase failed share must stay inside a generous band around it. Too
      // high means healthy cells failed too; zero means the kill never bit.
      const double expected = 1.0 / cell.cells;
      if (r.killed.failed == 0 || fail_share > 1.8 * expected) {
        std::printf("  VIOLATION: kill-phase failed share %.2f outside (0, %.2f]\n",
                    fail_share, 1.8 * expected);
        ++violations;
      }
      if (r.cross_share <= 0.0) {
        std::printf("  VIOLATION: no cross-cell queries in a multi-cell run\n");
        ++violations;
      }
      // The lookahead contract, held end to end: with the federation epoch at
      // (or under) trunk latency the DrainMail clamp never binds, so the p95 must
      // carry real trunk serialization time — not sit on a barrier multiple the
      // way a 1 s epoch pinned it.
      const double p95_mod_epoch =
          std::fmod(r.now_latency_ms_p95, r.fed_epoch_ms);
      if (r.healthy.completed > 0 &&
          (p95_mod_epoch < 1e-3 || r.fed_epoch_ms - p95_mod_epoch < 1e-3)) {
        std::printf("  VIOLATION: p95 %.3f ms is pinned to the %.0f ms barrier "
                    "grid\n", r.now_latency_ms_p95, r.fed_epoch_ms);
        ++violations;
      }
      if (cell.acceptance && r.queries_per_min < 100.0) {
        std::printf("  VIOLATION: %.1f queries/sim-minute < 100 on the acceptance "
                    "cell\n", r.queries_per_min);
        ++violations;
      }
      if (combo.sim_threads == combos.front().sim_threads &&
          combo.cell_threads == combos.front().cell_threads &&
          combo.cell_processes == combos.front().cell_processes &&
          combo.sockets == combos.front().sockets) {
        base_fp = r.fingerprint;
        base_hist = r.histogram;
      } else {
        if (r.fingerprint != base_fp) {
          std::printf("  VIOLATION: federation fingerprint diverges at threads=%d "
                      "cell_threads=%d procs=%d socks=%d\n",
                      combo.sim_threads, combo.cell_threads,
                      combo.cell_processes, combo.sockets);
          ++violations;
        }
        if (r.histogram != base_hist) {
          std::printf("  VIOLATION: latency histogram diverges at threads=%d "
                      "cell_threads=%d procs=%d socks=%d\n",
                      combo.sim_threads, combo.cell_threads,
                      combo.cell_processes, combo.sockets);
          ++violations;
        }
      }
      if (combo.sim_threads == 1 && combo.cell_threads == 1 &&
          combo.cell_processes == 1 && combo.sockets == 0) {
        sequential_eps = r.events_per_sec;
      }
      if (combo.sim_threads == 1 && combo.cell_threads > 1) {
        parallel_eps = r.events_per_sec;
      }
    }
    // Cell-parallel stepping must actually pay on the 16k acceptance cell: with
    // >= 8 hardware threads, cells-in-parallel clears 1.5x sequential events/s.
    if (cell.acceptance && cell.sensors_per_cell >= 4096 && hw_threads >= 8 &&
        sequential_eps > 0.0 && parallel_eps < 1.5 * sequential_eps) {
      std::printf("  VIOLATION: cell-parallel stepping %.2fx sequential events/s "
                  "(< 1.5x)\n", parallel_eps / sequential_eps);
      ++violations;
    }
  }

  std::printf("\n");
  table.Print();
  if (write_csv) {
    table.WriteCsvFile("federation_scale.csv");
  }
  if (!report.WriteJson(json_path)) {
    ++violations;
  }

  if (violations > 0) {
    std::printf("\n%d violation(s) — see above.\n", violations);
    return 1;
  }
  std::printf("\nAll federation availability, throughput, and determinism "
              "requirements hold.\n");
  return 0;
}
