// presto_perf: the repository benchmark (see perfbench/README.md).
//
//   presto_perf --workload ingest|query|fed_procs --seed N --seconds S --trace 0|1
//               [--setups K] [--in-process] [--trace-out PATH]
//
// Every workload runs PRESTO in its model regime: set-up builds the system,
// starts it and warms it past the PredictionEngine's 26 h training span, so the
// timed phase answers from the cache, from installed models and from sensor
// pulls — the paper's epsilon-bounded answer cascade. Queries come from seeded
// open-loop Poisson QueryDrivers inside the simulation; latency counts from each
// query's intended arrival. The timed phase is a fixed simulated length (scaled
// from --seconds), stepped in fixed sim-length RunUntil slices, so every
// simulated-time output repeats exactly for a seed while host times vary.
//
// An untraced run makes three repeats (set-up, timed phase, settle) of the same
// work and reports host times in reference units, scaled by a fixed reference
// workload timed next to them (host.cc), so other tenants slowing the host for
// minutes do not move the numbers.
//
// The last stdout line is one JSON object: {"correct", "attempted", "failed",
// "metrics"}; the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. A traced run wraps spans around every call the benchmark makes into a
// layer, reads the layers' public counters at the same points, replays its timed
// phase untraced from a checkpoint to report its own overhead, and writes the
// spans as Chrome trace-event JSON to --trace-out.
//
// Only public API is used: Deployment, Federation and its mode-independent
// facade, QueryDriver, the per-layer *Stats accessors and Checkpoint.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/host.h"
#include "perfbench/src/trace.h"
#include "src/core/deployment.h"
#include "src/core/federation.h"
#include "src/util/ckpt.h"
#include "src/util/stats.h"
#include "src/workload/query_driver.h"

namespace perfbench {
namespace {

using presto::Checkpoint;
using presto::Deployment;
using presto::DeploymentConfig;
using presto::Duration;
using presto::Federation;
using presto::FederationConfig;
using presto::QueryDriver;
using presto::QueryDriverParams;
using presto::QueryDriverStats;
using presto::SampleSet;
using presto::SimTime;
using presto::Status;

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- workloads ------------------------------------------------------------------

enum class Kind { kIngest, kQuery, kFedProcs };

// Warm-up bounds: PredictionEngineParams::min_training_span is 26 h; a warm-up
// that reaches the cap with a sensor still model-less fails the regime gate.
constexpr Duration kMinWarmup = presto::Hours(27);
constexpr Duration kMaxWarmup = presto::Hours(48);
// After the drivers stop, in-flight queries get a pull timeout (10 min) plus
// margin to complete before the accounting identities are checked.
constexpr Duration kSettle = presto::Minutes(11);
// The sensor world (temperature field, clock drift, radio loss) is fixed per
// workload; --seed picks the query streams, the workload's inputs.
constexpr uint64_t kWorldSeed = 2005;

// Sim length of one timed RunUntil slice.
constexpr Duration kSlice = presto::Minutes(1);

struct Shape {
  const char* name;
  Kind kind;
  double queries_per_hour;  // per driver; one driver per gateway cell
  // Timed sim seconds per --seconds: about 0.8 x the rate measured on the
  // calibration host when quiet, so a run's three timed phases take about
  // --seconds there.
  double sim_per_wall;
};

constexpr Shape kShapes[] = {
    {"ingest", Kind::kIngest, 600.0, 30000.0},       // sparse: the write path
    {"query", Kind::kQuery, 20000.0, 4700.0},        // dense: the read path
    {"fed_procs", Kind::kFedProcs, 3000.0, 10700.0},  // moderate, cross-cell
};

struct Options {
  const Shape* shape = nullptr;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  int setups = 3;
  bool in_process = false;  // fed_procs: keep the timed phase in-process
  std::string trace_out;
};

uint64_t Mix(uint64_t seed, uint64_t salt) {
  // SplitMix64 finalizer: decorrelates the per-purpose seeds drawn from --seed.
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

DeploymentConfig CellConfig(int proxies, int sensors_per_proxy) {
  DeploymentConfig config;
  config.num_proxies = proxies;
  config.sensors_per_proxy = sensors_per_proxy;
  config.enable_replication = true;
  config.replication_factor = 2;
  // 32 KiB of archive per sensor: the flash fills during warm-up, so aging passes
  // recur throughout the timed phase.
  config.flash.num_blocks = 8;
  config.lane_engine = true;
  config.sim_threads = 1;
  config.seed = kWorldSeed;
  return config;
}

QueryDriverParams DriverParams(double per_hour, uint64_t seed) {
  QueryDriverParams params;
  params.mix.queries_per_hour = per_hour;
  params.mix.num_sensors = 0;  // the whole namespace
  params.mix.past_fraction = 0.3;
  params.mix.mean_past_age = presto::Hours(1);
  params.mix.max_past_age = presto::Hours(3);
  params.mix.min_tolerance = 0.1;
  params.mix.max_tolerance = 1.5;
  params.mix.seed = seed;
  return params;
}

FederationConfig FedConfig(const Options& opts, bool process_mode) {
  FederationConfig config;
  const bool procs = opts.shape->kind == Kind::kFedProcs;
  config.num_cells = procs ? 4 : 2;
  config.cell = CellConfig(procs ? 2 : 4, 64);
  config.cell_threads = 1;
  config.cell_processes = process_mode ? 2 : 1;
  config.seed = kWorldSeed;
  return config;
}

// --- the system under test ----------------------------------------------------------

// A Deployment (ingest) or a Federation (query, fed_procs) with its drivers.
struct Subject {
  std::unique_ptr<Deployment> dep;
  std::unique_ptr<Federation> fed;
  std::vector<QueryDriver*> dep_drivers;
  std::vector<int> fed_drivers;

  bool process_mode() const { return fed != nullptr && fed->process_mode(); }
  SimTime Now() const { return dep ? dep->sim().Now() : fed->Now(); }
  void RunUntil(SimTime t) { dep ? dep->RunUntil(t) : fed->RunUntil(t); }
  Duration FedEpoch() const { return fed ? fed->config().epoch : 0; }

  void StartDrivers(Duration duration) {
    for (QueryDriver* driver : dep_drivers) {
      driver->Start(duration);
    }
    for (const int d : fed_drivers) {
      fed->StartDriver(d, duration);
    }
  }

  std::vector<QueryDriverStats> DriverStats() const {
    std::vector<QueryDriverStats> out;
    for (const QueryDriver* driver : dep_drivers) {
      out.push_back(driver->stats());
    }
    for (const int d : fed_drivers) {
      out.push_back(fed->DriverStats(d));
    }
    return out;
  }

  uint64_t Fingerprint() const { return dep ? dep->sim().fingerprint() : fed->fingerprint(); }

  std::vector<int> WorkerPids() const {
    std::vector<int> pids;
    if (process_mode()) {
      for (int w = 0; w < fed->num_workers(); ++w) {
        if (fed->worker_alive(w)) {
          pids.push_back(fed->worker_pid(w));
        }
      }
    }
    return pids;
  }

  Status Save(Checkpoint* out) const {
    return dep ? dep->SaveCheckpoint(out) : fed->SaveCheckpoint(out);
  }
  Status Load(const Checkpoint& ckpt) {
    return dep ? dep->LoadCheckpoint(ckpt) : fed->LoadCheckpoint(ckpt);
  }

  // In-process view only: every Deployment of the subject.
  std::vector<Deployment*> Cells() {
    std::vector<Deployment*> cells;
    if (dep) {
      cells.push_back(dep.get());
    } else {
      for (int c = 0; c < fed->num_cells(); ++c) {
        cells.push_back(&fed->cell(c));
      }
    }
    return cells;
  }
};

struct SetupTimes {
  double build_s = 0.0;
  double start_s = 0.0;
  double warmup_s = 0.0;
  double handoff_s = 0.0;  // fed_procs: save + worker build/start + load
  double total() const { return build_s + start_s + warmup_s + handoff_s; }
};

// Constructs, attaches the drivers and starts a subject (not yet warmed).
std::unique_ptr<Subject> BuildSubject(const Options& opts, bool process_mode,
                                      Tracer& tracer, SetupTimes* times) {
  auto subject = std::make_unique<Subject>();
  const Kind kind = opts.shape->kind;
  auto t0 = Clock::now();
  {
    ScopedSpan span(tracer, "core.build");
    if (kind == Kind::kIngest) {
      subject->dep = std::make_unique<Deployment>(CellConfig(8, 64));
      subject->dep_drivers.push_back(&subject->dep->AttachQueryDriver(
          DriverParams(opts.shape->queries_per_hour, Mix(opts.seed, 2))));
    } else {
      subject->fed = std::make_unique<Federation>(FedConfig(opts, process_mode));
      for (int c = 0; c < subject->fed->num_cells(); ++c) {
        subject->fed_drivers.push_back(subject->fed->AttachDriver(
            c, DriverParams(opts.shape->queries_per_hour,
                            Mix(opts.seed, 10 + static_cast<uint64_t>(c)))));
      }
    }
  }
  times->build_s += Since(t0);
  t0 = Clock::now();
  {
    ScopedSpan span(tracer, "core.start");
    if (subject->dep) {
      subject->dep->Start();
    } else {
      subject->fed->Start();
    }
  }
  times->start_s += Since(t0);
  return subject;
}

// --- per-layer counters ---------------------------------------------------------------

using Counters = std::map<std::string, double>;

// Public per-layer stats of every in-process cell, summed.
Counters ReadCellCounters(Subject& subject) {
  Counters c;
  for (Deployment* cell : subject.Cells()) {
    c["sim.events"] += static_cast<double>(cell->sim().events_executed());
    const auto& store = cell->store().stats();
    c["store.queries"] += static_cast<double>(store.queries);
    c["store.index_hops"] += static_cast<double>(store.total_index_hops);
    c["store.failovers"] += static_cast<double>(store.failovers);
    const auto& net = cell->net().stats();
    c["net.messages_sent"] += static_cast<double>(net.messages_sent);
    c["net.frames_sent"] += static_cast<double>(net.frames_sent);
    c["net.frame_retries"] += static_cast<double>(net.frame_retries);
    c["net.wired_messages"] += static_cast<double>(net.wired_messages);
    c["net.batched_messages"] += static_cast<double>(net.batched_messages);
    c["net.cross_lane_sends"] += static_cast<double>(net.cross_lane_sends);
    const DeploymentConfig& config = cell->config();
    for (int p = 0; p < config.num_proxies; ++p) {
      const auto& proxy = cell->proxy(p).stats();
      c["proxy.pulls"] += static_cast<double>(proxy.pulls);
      c["proxy.coalesced_pulls"] += static_cast<double>(proxy.coalesced_pulls);
      c["proxy.pull_timeouts"] += static_cast<double>(proxy.pull_timeouts);
      c["proxy.model_sends"] += static_cast<double>(proxy.model_sends);
      c["proxy.pushes_received"] += static_cast<double>(proxy.pushes_received);
      c["proxy.replica_updates"] += static_cast<double>(proxy.replica_updates);
      c["proxy.now_answers"] += static_cast<double>(proxy.now_latency_ms.count());
      c["proxy.past_answers"] += static_cast<double>(proxy.past_latency_ms.count());
      for (int s = 0; s < config.sensors_per_proxy; ++s) {
        auto& sensor = cell->sensor(p, s);
        const auto& st = sensor.stats();
        c["sensor.samples"] += static_cast<double>(st.samples);
        c["sensor.pushed_samples"] += static_cast<double>(st.pushed_samples);
        c["sensor.model_checks"] += static_cast<double>(st.model_checks);
        c["sensor.model_updates"] += static_cast<double>(st.model_updates);
        c["sensor.archive_queries"] += static_cast<double>(st.archive_queries);
        const auto& archive = sensor.archive().stats();
        c["flash.records_appended"] += static_cast<double>(archive.records_appended);
        c["flash.records_read"] += static_cast<double>(archive.records_read);
        c["flash.aging_passes"] += static_cast<double>(archive.aging_passes);
        c["flash.records_aged"] += static_cast<double>(archive.records_aged);
      }
    }
  }
  return c;
}

// Federation-level counters through the mode-independent facade.
Counters ReadFedCounters(const Subject& subject, Tracer& tracer) {
  Counters c;
  if (!subject.fed) {
    return c;
  }
  ScopedSpan span(tracer, "fold.fed_stats");
  const presto::FederationStats stats = subject.fed->stats();
  c["fed.queries"] = static_cast<double>(stats.queries);
  c["fed.forwarded"] = static_cast<double>(stats.forwarded);
  c["fed.barriers"] = static_cast<double>(stats.barriers);
  c["fed.mail_drained"] = static_cast<double>(stats.mail_drained);
  c["fed.orphans"] = static_cast<double>(stats.orphans);
  const presto::FederationTrunkTotals trunks = subject.fed->TrunkTotals();
  c["fed.trunk_messages"] = static_cast<double>(trunks.messages);
  c["fed.trunk_bytes"] = static_cast<double>(trunks.bytes);
  return c;
}

Counters Delta(const Counters& before, const Counters& after) {
  Counters out = after;
  for (const auto& [name, value] : before) {
    out[name] -= value;
  }
  return out;
}

void RecordCounters(Tracer& tracer, const char* boundary, const Counters& counters) {
  for (const auto& [name, value] : counters) {
    tracer.Counter(std::string(boundary) + "/" + name, value);
  }
}

double MeanSensorEnergy(Subject& subject) {
  double total = 0.0;
  const std::vector<Deployment*> cells = subject.Cells();
  for (Deployment* cell : cells) {
    total += cell->MeanSensorEnergy();  // equal sensor counts per cell
  }
  return total / static_cast<double>(cells.size());
}

// Regime gate, first half: every sensor must have a model installed.
int SensorsWithoutModel(Subject& subject) {
  int missing = 0;
  for (Deployment* cell : subject.Cells()) {
    const DeploymentConfig& config = cell->config();
    for (int p = 0; p < config.num_proxies; ++p) {
      for (int s = 0; s < config.sensors_per_proxy; ++s) {
        missing += cell->sensor(p, s).model() == nullptr ? 1 : 0;
      }
    }
  }
  return missing;
}

// --- the timed phase ----------------------------------------------------------------

// The timed phase is measured in this many blocks of equal simulated length.
constexpr int kBlocks = 10;
// ReferenceMs() on the calibration host (4-vCPU Xeon KVM guest) when its other
// tenants were quiet. Host times are reported in these reference units: scaled by
// kReferenceMs / the ReferenceMs() measured next to them, so a run on a host that
// is temporarily running at half speed reports what the quiet host would.
constexpr double kReferenceMs = 21.5;

struct TimedResult {
  double wall_s = 0.0;
  std::vector<double> slice_ms;  // wall time of each fixed sim-length slice
  std::vector<double> epoch_ms;  // traced federations: wall time of each epoch step
  std::vector<double> reference_ms;  // ReferenceMs() before each block
  HostUsage usage;               // process tree, timed phase only
  double peak_rss_mb = 0.0;      // process tree, read before workers shut down
};

HostUsage Minus(const HostUsage& a, const HostUsage& b) {
  HostUsage d;
  d.user_s = a.user_s - b.user_s;
  d.sys_s = a.sys_s - b.sys_s;
  d.ctx_switches = a.ctx_switches - b.ctx_switches;
  return d;
}

// Drives `timed` of simulated time from the subject's current time in fixed
// slices, then lets in-flight queries settle (untimed). A traced federation steps
// one epoch per RunUntil call inside each slice, so per-barrier step times show.
TimedResult RunTimed(Subject& subject, Duration timed, Tracer& tracer) {
  TimedResult out;
  const std::vector<int> pids = subject.WorkerPids();
  subject.StartDrivers(timed);
  const SimTime start = subject.Now();
  const Duration epoch = subject.FedEpoch();
  const bool per_epoch = tracer.enabled() && epoch > 0;
  const HostUsage before = ReadHostUsage(pids);
  const int timed_span = tracer.Begin("timed");
  const int64_t slices = timed / kSlice;
  int64_t index = 0;
  int block = 0;
  for (SimTime end = start + kSlice; end <= start + timed; end += kSlice, ++index) {
    if (block < kBlocks && index == block * slices / kBlocks) {
      ++block;
      ScopedSpan span(tracer, "host.reference");
      out.reference_ms.push_back(ReferenceMs());
    }
    const int span = tracer.Begin("sim.step");
    const auto s0 = Clock::now();
    if (per_epoch) {
      while (subject.Now() < end) {
        const auto e0 = Clock::now();
        const int step = tracer.Begin("core.fed.step");
        subject.RunUntil(std::min(end, subject.Now() + epoch));
        tracer.End(step);
        out.epoch_ms.push_back(Since(e0) * 1e3);
      }
    } else {
      subject.RunUntil(end);
    }
    out.slice_ms.push_back(Since(s0) * 1e3);
    tracer.End(span);
  }
  tracer.End(timed_span);
  for (const double ms : out.slice_ms) {
    out.wall_s += ms / 1e3;  // the reference calls between blocks excluded
  }
  out.usage = Minus(ReadHostUsage(pids), before);
  {
    ScopedSpan span(tracer, "settle");
    subject.RunUntil(start + timed + kSettle);
  }
  out.peak_rss_mb = SelfPeakRssMb();
  for (const int pid : pids) {
    out.peak_rss_mb += PeakRssMb(pid);
  }
  return out;
}

// --- reporting ----------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double Median(std::vector<double> values) {
  SampleSet set;
  for (const double v : values) {
    set.Add(v);
  }
  return values.empty() ? 0.0 : set.Median();
}

double Quantile(const std::vector<double>& values, double q) {
  SampleSet set;
  for (const double v : values) {
    set.Add(v);
  }
  return values.empty() ? 0.0 : set.Quantile(q);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %-42s %.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// --- one repeat: set-up, timed phase, settle ---------------------------------------

// Everything one repeat measures. The repeats of a run start from identical warm
// state and drive identical work, so their simulated outputs must agree exactly.
struct Repeat {
  SetupTimes setup;
  SimTime warm_end = 0;
  int without_model = 0;
  double energy_before = 0.0;  // mean joules per sensor at the timed-phase start
  double energy_after = 0.0;   // ... after the settle window
  TimedResult timed;
  std::vector<QueryDriverStats> drivers;
  Counters fed_before;
  Counters fed_after;
  Counters cells_before;  // traced runs only
  Counters cells_delta;   // traced runs only
  uint64_t fingerprint = 0;
  bool has_view = false;          // energy and cell counters were read
  uint64_t view_fingerprint = 0;  // of the in-process view read after the run
  Checkpoint at_start;            // traced runs only: state at the timed-phase start
};

// Sets up one subject — built, started, warmed past model fit and, on fed_procs,
// handed off into worker processes through the checkpoint container — drives
// the timed phase and settle window, and reads the results.
Status RunRepeat(const Options& opts, bool procs, bool last, Duration timed,
                 Tracer& tracer, Repeat* rep) {
  Tracer untraced(false);
  std::unique_ptr<Subject> subject;
  {
    ScopedSpan setup_span(tracer, "setup");
    std::unique_ptr<Subject> warm =
        BuildSubject(opts, /*process_mode=*/false, tracer, &rep->setup);
    auto t0 = Clock::now();
    {
      // Past the 26 h training span, then in whole hours until every sensor has
      // an installed model (bootstrap pushes are sparse, so the last fits land
      // a few hours later).
      ScopedSpan span(tracer, "sim.warmup");
      warm->RunUntil(kMinWarmup);
      while (SensorsWithoutModel(*warm) > 0 && warm->Now() < kMaxWarmup) {
        warm->RunUntil(warm->Now() + presto::Hours(1));
      }
    }
    rep->setup.warmup_s = Since(t0);
    // Untimed reads of the warm state: the regime gate and the in-process view.
    rep->warm_end = warm->Now();
    rep->without_model = SensorsWithoutModel(*warm);
    rep->energy_before = MeanSensorEnergy(*warm);
    if (tracer.enabled()) {
      ScopedSpan span(tracer, "fold.cells");
      rep->cells_before = ReadCellCounters(*warm);
    }
    if (procs) {
      t0 = Clock::now();
      Checkpoint ckpt;
      Status status;
      {
        ScopedSpan span(tracer, "ckpt.save");
        status = warm->Save(&ckpt);
      }
      SetupTimes worker_times;  // counted in handoff_s
      subject = BuildSubject(opts, /*process_mode=*/true, tracer, &worker_times);
      if (status.ok()) {
        ScopedSpan span(tracer, "ckpt.load");
        status = subject->Load(ckpt);
      }
      rep->setup.handoff_s = Since(t0);
      if (!status.ok()) {
        return status;
      }
    } else {
      subject = std::move(warm);
    }
  }
  if (tracer.enabled()) {
    ScopedSpan span(tracer, "ckpt.save");
    const Status status = subject->Save(&rep->at_start);
    if (!status.ok()) {
      return status;
    }
  }
  rep->fed_before = ReadFedCounters(*subject, tracer);
  rep->timed = RunTimed(*subject, timed, tracer);
  {
    ScopedSpan span(tracer, "fold.driver_stats");
    rep->drivers = subject->DriverStats();
  }
  rep->fed_after = ReadFedCounters(*subject, tracer);
  rep->fingerprint = subject->Fingerprint();

  // On fed_procs the cells live in workers: the last repeat hands the final state
  // back into an in-process federation (the same checkpoint path) to read sensor
  // energy and per-layer counters.
  if (procs && !last) {
    rep->view_fingerprint = rep->fingerprint;
    return presto::OkStatus();
  }
  rep->has_view = true;
  std::unique_ptr<Subject> handback;
  Subject* view = subject.get();
  if (procs) {
    ScopedSpan span(tracer, "handback");
    Checkpoint ckpt;
    Status status = subject->Save(&ckpt);
    SetupTimes ignored;
    handback = BuildSubject(opts, /*process_mode=*/false, untraced, &ignored);
    if (status.ok()) {
      status = handback->Load(ckpt);
    }
    if (!status.ok()) {
      return status;
    }
    view = handback.get();
  }
  rep->view_fingerprint = view->Fingerprint();
  rep->energy_after = MeanSensorEnergy(*view);
  if (tracer.enabled()) {
    ScopedSpan span(tracer, "fold.cells");
    rep->cells_delta = Delta(rep->cells_before, ReadCellCounters(*view));
  }
  return presto::OkStatus();
}

// Wall milliseconds of block b (of kBlocks equal sim-length blocks) of a repeat.
double BlockMs(const Repeat& rep, int b) {
  const std::vector<double>& slice_ms = rep.timed.slice_ms;
  const size_t n = slice_ms.size();
  double ms = 0.0;
  for (size_t i = b * n / kBlocks; i < (b + 1) * n / kBlocks; ++i) {
    ms += slice_ms[i];
  }
  return ms;
}

// Timed-phase seconds with host interference filtered out. In reference units,
// each block's time is divided by the host's slowdown just before it (the
// repeat's ReferenceMs() there over kReferenceMs). Each block then contributes
// its median over the repeats, which all ran the same work.
double TimedSeconds(const std::vector<Repeat>& reps, bool in_reference_units) {
  double total_ms = 0.0;
  for (int b = 0; b < kBlocks; ++b) {
    std::vector<double> block_ms;
    for (const Repeat& rep : reps) {
      const double slowdown =
          in_reference_units ? rep.timed.reference_ms[b] / kReferenceMs : 1.0;
      block_ms.push_back(BlockMs(rep, b) / slowdown);
    }
    total_ms += Median(block_ms);
  }
  return total_ms / 1e3;
}

// --- one benchmark run --------------------------------------------------------------

int Run(const Options& opts) {
  const bool procs = opts.shape->kind == Kind::kFedProcs && !opts.in_process;
  std::vector<std::string> violations;
  auto check = [&violations](bool ok, const std::string& what) {
    if (!ok) {
      violations.push_back(what);
    }
  };
  Tracer tracer(opts.trace);
  Tracer untraced(false);

  // Each repeat's timed phase is a third of the run's simulated length, so an
  // untraced run (three repeats) measures about --seconds of host time.
  const auto slices = static_cast<int64_t>(opts.seconds * opts.shape->sim_per_wall /
                                           (3.0 * presto::ToSeconds(kSlice)));
  const Duration timed = std::max<int64_t>(kBlocks, slices) * kSlice;

  std::vector<Repeat> reps(static_cast<size_t>(opts.setups));
  for (Repeat& rep : reps) {
    const Status status = RunRepeat(opts, procs, &rep == &reps.back(), timed, tracer, &rep);
    if (!status.ok()) {
      std::fprintf(stderr, "run failed: %s\n", status.message().c_str());
      return 1;
    }
  }
  const Repeat& last = reps.back();
  check(last.without_model == 0,
        std::to_string(last.without_model) + " sensors have no model after warm-up");
  check(last.view_fingerprint == last.fingerprint,
        "fingerprint changed across the worker -> in-process handback");

  // Merge the drivers.
  uint64_t issued = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  std::array<uint64_t, 4> by_source{};
  double energy_j = 0.0;
  SampleSet latency_ms;
  presto::LatencyHistogram histogram;
  for (const QueryDriverStats& d : last.drivers) {
    check(d.issued == d.completed,
          "driver accounting: issued " + std::to_string(d.issued) + " != completed " +
              std::to_string(d.completed) + " after the settle window");
    issued += d.issued;
    completed += d.completed;
    failed += d.failed;
    for (size_t s = 0; s < by_source.size(); ++s) {
      by_source[s] += d.by_source[s];
    }
    energy_j += d.energy_j;
    for (const double ms : d.latency_ms.samples()) {
      latency_ms.Add(ms);
    }
    histogram.Merge(d.latency);
  }
  // Repeats replay the same seed: every simulated output must agree.
  for (const Repeat& rep : reps) {
    presto::LatencyHistogram merged;
    for (const QueryDriverStats& d : rep.drivers) {
      merged.Merge(d.latency);
    }
    check(rep.fingerprint == last.fingerprint && merged == histogram &&
              (!rep.has_view || rep.energy_after - rep.energy_before ==
                                    last.energy_after - last.energy_before),
          "repeats of one seed diverged");
  }
  const uint64_t answered = completed - failed;
  const double cache_share = Ratio(static_cast<double>(by_source[0]), completed);
  const double model_share = Ratio(static_cast<double>(by_source[1]), completed);
  const double pull_share = Ratio(static_cast<double>(by_source[2]), completed);

  // Regime gate, second half, and the output checks.
  check(by_source[1] > 0, "timed phase saw zero model-extrapolated answers");
  check(by_source[0] > 0, "timed phase saw zero cache hits");
  check(by_source[2] > 0 && energy_j > 0.0, "timed phase saw zero sensor pulls");
  check(latency_ms.count() >= 1000,
        "fewer than 1000 latency samples: p99 would have < 10 samples beyond it");
  const Counters fed_delta = Delta(last.fed_before, last.fed_after);
  const Counters& fed_after = last.fed_after;
  if (fed_after.count("fed.orphans")) {
    check(fed_after.at("fed.orphans") == 0.0, "federation orphaned mail");
  }

  std::printf(
      "run workload=%s seed=%llu warmup_h=%.0f timed_sim_s=%.0f slices=%zu repeats=%d "
      "mode=%s\n",
      opts.shape->name, static_cast<unsigned long long>(opts.seed),
      presto::ToSeconds(last.warm_end) / 3600.0, presto::ToSeconds(timed),
      last.timed.slice_ms.size(), opts.setups, procs ? "procs" : "in-process");
  std::printf("digest workload=%s seed=%llu fingerprint=%016llx histogram=%016llx\n",
              opts.shape->name, static_cast<unsigned long long>(opts.seed),
              static_cast<unsigned long long>(last.fingerprint),
              static_cast<unsigned long long>(histogram.Hash()));
  std::printf("cascade cache=%.4f model=%.4f pull=%.4f queries=%llu\n", cache_share,
              model_share, pull_share, static_cast<unsigned long long>(completed));

  const double timed_sim_s = presto::ToSeconds(timed);
  const double window_days = presto::ToSeconds(timed + kSettle) / 86400.0;
  std::vector<Metric> metrics;
  std::vector<double> reference_ms;
  for (const Repeat& rep : reps) {
    reference_ms.insert(reference_ms.end(), rep.timed.reference_ms.begin(),
                        rep.timed.reference_ms.end());
  }
  if (!opts.trace) {
    // A set-up is scaled by its repeat's median reference time, taken over the
    // timed phase that follows it.
    std::vector<double> setup_s;
    std::vector<double> raw_setup_s;
    double peak_rss_mb = 0.0;
    for (const Repeat& rep : reps) {
      raw_setup_s.push_back(rep.setup.total());
      setup_s.push_back(rep.setup.total() * kReferenceMs / Median(rep.timed.reference_ms));
      peak_rss_mb = std::max(peak_rss_mb, rep.timed.peak_rss_mb);
    }
    std::printf("host reference_ms=%.3f raw setup_s=%.4f raw sim_s_per_wall_s=%.1f\n",
                Median(reference_ms), Median(raw_setup_s),
                timed_sim_s / TimedSeconds(reps, /*in_reference_units=*/false));
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"sim_s_per_wall_s", timed_sim_s / TimedSeconds(reps, /*in_reference_units=*/true),
         "s/s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"query_p50_ms", latency_ms.Quantile(0.5), "ms"},
        {"query_p99_ms", latency_ms.Quantile(0.99), "ms"},
        {"j_per_query", Ratio(energy_j, static_cast<double>(answered)), "J"},
        {"sensor_j_per_day", (last.energy_after - last.energy_before) / window_days,
         "J/day"},
    };
  } else {
    const TimedResult& result = last.timed;
    const Counters& cells_delta = last.cells_delta;
    const SetupTimes& kept = last.setup;
    const uint64_t fingerprint = last.fingerprint;
    const Checkpoint& at_start = last.at_start;
    // Untraced replay of the same timed phase: the tracing overhead, and on
    // fed_procs an in-process replay for the transport's cost per barrier.
    double untraced_wall = 0.0;
    double inprocess_wall = 0.0;
    {
      ScopedSpan span(tracer, "replay.untraced");
      SetupTimes ignored;
      auto replay = BuildSubject(opts, procs, untraced, &ignored);
      check(replay->Load(at_start).ok(), "replay restore failed");
      untraced_wall = RunTimed(*replay, timed, untraced).wall_s;
      check(replay->Fingerprint() == fingerprint, "untraced replay diverged");
    }
    if (procs) {
      ScopedSpan span(tracer, "replay.inprocess");
      SetupTimes ignored;
      auto replay = BuildSubject(opts, /*process_mode=*/false, untraced, &ignored);
      check(replay->Load(at_start).ok(), "in-process replay restore failed");
      // Traced like the measured run, so the difference is the transport alone.
      Tracer same_tracing(true);
      inprocess_wall = RunTimed(*replay, timed, same_tracing).wall_s;
      check(replay->Fingerprint() == fingerprint, "in-process replay diverged");
    }
    auto fed = [&fed_delta](const char* name) {
      const auto it = fed_delta.find(name);
      return it == fed_delta.end() ? 0.0 : it->second;
    };
    auto cell = [&cells_delta](const char* name) {
      const auto it = cells_delta.find(name);
      return it == cells_delta.end() ? 0.0 : it->second;
    };
    const double barriers = fed("fed.barriers");
    const double cpu_s = result.usage.user_s + result.usage.sys_s;
    const double pulls = cell("proxy.pulls");
    const double coalesced = cell("proxy.coalesced_pulls");
    metrics = {
        {"sim.events", cell("sim.events"), "count"},
        {"sim.ns_per_event", Ratio(result.wall_s * 1e9, cell("sim.events")), "ns"},
        {"sim.step_ms_p50", Quantile(result.slice_ms, 0.5), "ms"},
        {"sim.step_ms_p99", Quantile(result.slice_ms, 0.99), "ms"},
        {"sim.warmup_s", kept.warmup_s, "s"},
        {"core.build_s", kept.build_s, "s"},
        {"core.start_s", kept.start_s, "s"},
        {"core.store.index_hops_per_query",
         Ratio(cell("store.index_hops"), cell("store.queries")), "hops/query"},
        {"core.store.failovers", cell("store.failovers"), "count"},
        {"core.fed.barriers", barriers, "count"},
        {"core.fed.barrier_us", Ratio(result.wall_s * 1e6, barriers), "us"},
        {"core.fed.step_ms_p99", Quantile(result.epoch_ms, 0.99), "ms"},
        {"core.fed.mail_drained", fed("fed.mail_drained"), "count"},
        {"core.fed.orphans", fed_after.count("fed.orphans") ? fed_after.at("fed.orphans") : 0.0,
         "count"},
        {"core.fed.cross_cell_share", Ratio(fed("fed.forwarded"), fed("fed.queries")),
         "ratio"},
        {"core.fed.trunk_messages", fed("fed.trunk_messages"), "count"},
        {"core.fed.trunk_bytes", fed("fed.trunk_bytes"), "bytes"},
        {"net.messages_sent", cell("net.messages_sent"), "count"},
        {"net.frames_sent", cell("net.frames_sent"), "count"},
        {"net.frame_retries", cell("net.frame_retries"), "count"},
        {"net.wired_messages", cell("net.wired_messages"), "count"},
        {"net.batched_share", Ratio(cell("net.batched_messages"), cell("net.messages_sent")),
         "ratio"},
        {"net.cross_lane_sends", cell("net.cross_lane_sends"), "count"},
        {"net.fed_wire.overhead_us_per_barrier",
         procs ? Ratio((result.wall_s - inprocess_wall) * 1e6, barriers) : 0.0, "us"},
        {"host.sys_share", Ratio(result.usage.sys_s, cpu_s), "ratio"},
        {"host.ctx_switches", static_cast<double>(result.usage.ctx_switches), "count"},
        {"sensor.samples", cell("sensor.samples"), "count"},
        {"sensor.push_share", Ratio(cell("sensor.pushed_samples"), cell("sensor.samples")),
         "ratio"},
        {"sensor.model_checks", cell("sensor.model_checks"), "count"},
        {"sensor.model_updates", cell("sensor.model_updates"), "count"},
        {"sensor.archive_queries", cell("sensor.archive_queries"), "count"},
        {"flash.records_appended", cell("flash.records_appended"), "count"},
        {"flash.records_read", cell("flash.records_read"), "count"},
        {"flash.aging_passes", cell("flash.aging_passes"), "count"},
        {"flash.records_aged", cell("flash.records_aged"), "count"},
        {"proxy.cache_hit_share", cache_share, "ratio"},
        {"proxy.model_answer_share", model_share, "ratio"},
        {"proxy.pull_share", pull_share, "ratio"},
        {"proxy.coalesced_pull_share", Ratio(coalesced, pulls + coalesced), "ratio"},
        {"proxy.pull_timeouts", cell("proxy.pull_timeouts"), "count"},
        {"proxy.model_sends", cell("proxy.model_sends"), "count"},
        {"proxy.pushes_received", cell("proxy.pushes_received"), "count"},
        {"proxy.replica_updates", cell("proxy.replica_updates"), "count"},
        {"workload.queries_issued", static_cast<double>(issued), "count"},
        {"workload.queries_completed", static_cast<double>(answered), "count"},
        {"workload.queries_failed", static_cast<double>(failed), "count"},
        {"workload.past_share",
         Ratio(cell("proxy.past_answers"),
               cell("proxy.now_answers") + cell("proxy.past_answers")),
         "ratio"},
        {"host.reference_ms", Median(reference_ms), "ms"},
        {"trace.overhead_share", Ratio(result.wall_s - untraced_wall, untraced_wall), "ratio"},
        {"trace.untraced_sim_s_per_wall_s", Ratio(timed_sim_s, untraced_wall), "s/s"},
    };
    RecordCounters(tracer, "timed", cells_delta);
    RecordCounters(tracer, "timed", fed_delta);
    if (!opts.trace_out.empty() && !tracer.WriteChromeTrace(opts.trace_out)) {
      check(false, "cannot write the trace to " + opts.trace_out);
    }
  }
  const bool correct = violations.empty();
  for (const std::string& v : violations) {
    std::fprintf(stderr, "VIOLATION: %s\n", v.c_str());
  }
  PrintResult(correct, issued, failed, metrics);
  return correct ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: presto_perf --workload ingest|query|fed_procs --seed N "
               "--seconds S --trace 0|1\n"
               "                   [--setups K] [--in-process] [--trace-out PATH]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opts;
  int setups = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--in-process") {
      opts.in_process = true;
      continue;
    }
    if (value == nullptr) {
      return Usage();
    }
    ++i;
    if (arg == "--workload") {
      for (const Shape& shape : kShapes) {
        if (std::strcmp(shape.name, value) == 0) {
          opts.shape = &shape;
        }
      }
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      opts.seconds = std::atoi(value);
    } else if (arg == "--trace") {
      opts.trace = std::strcmp(value, "1") == 0;
    } else if (arg == "--setups") {
      setups = std::atoi(value);
    } else if (arg == "--trace-out") {
      opts.trace_out = value;
    } else {
      return Usage();
    }
  }
  if (opts.shape == nullptr || opts.seconds < 1) {
    return Usage();
  }
  // Set-up repeats only where setup_s is reported (the untraced runs).
  opts.setups = setups > 0 ? setups : (opts.trace ? 1 : 3);
  return Run(opts);
}
