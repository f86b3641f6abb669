// Microbench M4 — core data-structure throughput: skip-graph ops, unified-store
// routing, summary-cache ops, the query result's FedMail codec, the event queue
// that everything runs on, sparse lane barriers, and the per-sensor sensing tick in
// a warm deployment.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "src/core/deployment.h"
#include "src/core/unified_store.h"
#include "src/index/skip_graph.h"
#include "src/net/network.h"
#include "src/proxy/proxy_node.h"
#include "src/proxy/summary_cache.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"

namespace presto {
namespace {

void BM_SkipGraphInsert(benchmark::State& state) {
  SkipGraph graph(1);
  Pcg32 rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph.Insert(rng.NextU64(), 1));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SkipGraphInsert);

void BM_SkipGraphSearch(benchmark::State& state) {
  SkipGraph graph(1);
  Pcg32 rng(3);
  std::vector<uint64_t> keys;
  for (int i = 0; i < state.range(0); ++i) {
    keys.push_back(rng.NextU64());
    graph.Insert(keys.back(), 1);
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph.Search(keys[i++ % keys.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SkipGraphSearch)->Arg(256)->Arg(4096)->Arg(65536);

// One routed NOW query through the unified store: resolve the owner of a random
// sensor among 8 proxies x 64 sensors (the skip graph holds 512 keys), then run the
// execute and return stages. The proxies are cache-only and hold nothing, so each
// answers at once without the radio: the row is routing plus two typed events.
class RouteSink : public UnifiedStore::Client {
 public:
  void OnStoreQueryDone(uint64_t token, UnifiedQueryResult&& result) override {
    (void)token;
    hops += result.index_hops;
  }
  int64_t hops = 0;
};

void BM_UnifiedStoreRoute(benchmark::State& state) {
  Simulator sim;
  Network net(&sim, NetworkParams{}, 1);
  std::vector<std::unique_ptr<ProxyNode>> proxies;
  std::vector<NodeId> sensors;
  UnifiedStore store(&sim, &net, 2);
  RouteSink sink;
  for (NodeId p = 1; p <= 8; ++p) {
    ProxyNodeConfig pc;
    pc.id = p * 1000;
    pc.mode = ProxyMode::kCacheOnly;
    pc.manage_models = false;
    pc.enable_matcher = false;
    proxies.push_back(std::make_unique<ProxyNode>(&sim, &net, pc));
    for (NodeId s = 0; s < 64; ++s) {
      proxies.back()->RegisterSensor(pc.id + s, Seconds(31));
      sensors.push_back(pc.id + s);
    }
    store.AddProxy(proxies.back().get());
  }
  store.SetClient(&sink);
  Pcg32 rng(4);
  uint64_t token = 0;
  for (auto _ : state) {
    QuerySpec spec;
    spec.sensor_id =
        sensors[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(511)))];
    store.Query(spec, ++token);
    sim.RunAll();
  }
  benchmark::DoNotOptimize(sink.hops);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UnifiedStoreRoute);

void BM_SummaryCacheInsert(benchmark::State& state) {
  SummaryCache cache(1 << 20);
  SimTime t = 0;
  for (auto _ : state) {
    t += Seconds(31);
    cache.Insert(t, 20.0, CacheSource::kPushed);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SummaryCacheInsert);

void BM_SummaryCacheNearest(benchmark::State& state) {
  SummaryCache cache(1 << 20);
  for (SimTime t = 0; t < Days(7); t += Seconds(31)) {
    cache.Insert(t, 20.0, CacheSource::kPushed);
  }
  Pcg32 rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache.Nearest(static_cast<SimTime>(rng.UniformInt(0, Days(7))), Minutes(5)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SummaryCacheNearest);

// The read path's series: ~420 entries one 31 s sensing period apart, each stamp
// jittered by up to 3 s and one slot in ten missing (model-driven suppression).
SummaryCache JitteredSeries() {
  SummaryCache cache(1 << 20);
  Pcg32 rng(9);
  for (int64_t i = 0; i < 466; ++i) {
    if (rng.UniformInt(0, 9) != 0) {
      cache.Insert(i * Seconds(31) + rng.UniformInt(0, Seconds(3)), 20.0,
                   CacheSource::kPushed);
    }
  }
  return cache;
}

// One lower-bound search on the jittered series: the interpolation-seeded search
// behind Insert, Nearest and View.
void BM_SummaryCacheNearest420(benchmark::State& state) {
  const SummaryCache cache = JitteredSeries();
  Pcg32 rng(10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Nearest(rng.UniformInt(0, 466 * Seconds(31)),
                                           Seconds(15)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SummaryCacheNearest420);

// An extrapolated past query's cache reads on the jittered series: the coverage of a
// 28-period range, then the nearest entry to each period's instant. Probes: one
// Nearest search per period, as the proxy did before the walk. Walk: one View, then
// WalkNearest resuming where the previous probe stopped, as the proxy does now.
void BM_SummaryCachePastProbes(benchmark::State& state) {
  const SummaryCache cache = JitteredSeries();
  Pcg32 rng(11);
  for (auto _ : state) {
    const SimTime start = rng.UniformInt(0, 430 * Seconds(31));
    const TimeInterval range{start, start + 28 * Seconds(31)};
    benchmark::DoNotOptimize(cache.CoverageFraction(range, Seconds(31)));
    for (SimTime t = range.start; t < range.end; t += Seconds(31)) {
      benchmark::DoNotOptimize(cache.Nearest(t, Seconds(15)));
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SummaryCachePastProbes);

void BM_SummaryCachePastWalk(benchmark::State& state) {
  const SummaryCache cache = JitteredSeries();
  Pcg32 rng(11);
  for (auto _ : state) {
    const SimTime start = rng.UniformInt(0, 430 * Seconds(31));
    const TimeInterval range{start, start + 28 * Seconds(31)};
    SummaryCache::Window window = cache.View(range);
    benchmark::DoNotOptimize(window.CoverageFraction(Seconds(31)));
    for (SimTime t = range.start; t < range.end; t += Seconds(31)) {
      benchmark::DoNotOptimize(window.WalkNearest(t, Seconds(15)));
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SummaryCachePastWalk);

void BM_SummaryCacheCoverage(benchmark::State& state) {
  SummaryCache cache(1 << 20);
  for (SimTime t = 0; t < Days(7); t += Seconds(31)) {
    cache.Insert(t, 20.0, CacheSource::kPushed);
  }
  Pcg32 rng(6);
  for (auto _ : state) {
    const SimTime start = static_cast<SimTime>(rng.UniformInt(0, Days(6)));
    benchmark::DoNotOptimize(
        cache.CoverageFraction(TimeInterval{start, start + Hours(1)}, Seconds(31)));
  }
}
BENCHMARK(BM_SummaryCacheCoverage);

// The read path's insert pattern: a 36 h series at a 31 s period of which every 50th
// sample (2%) was pushed, then refilled by 3 h windows of pulled records taken in
// shuffled order, each window ascending — as archive replies and replica updates
// write pulled ranges back inside the series.
void BM_SummaryCacheFillHoles(benchmark::State& state) {
  constexpr Duration kPeriod = Seconds(31);
  constexpr int64_t kSlots = Hours(36) / kPeriod;
  constexpr int64_t kWindow = Hours(3) / kPeriod;
  std::vector<int64_t> windows;
  for (int64_t first = 0; first < kSlots; first += kWindow) {
    windows.push_back(first);
  }
  Pcg32 rng(7);
  for (size_t i = windows.size() - 1; i > 0; --i) {
    const int64_t j = rng.UniformInt(0, static_cast<int64_t>(i));
    std::swap(windows[i], windows[static_cast<size_t>(j)]);
  }
  int64_t inserts = 0;
  for (auto _ : state) {
    SummaryCache cache(1 << 20);
    for (int64_t slot = 0; slot < kSlots; slot += 50) {
      cache.Insert(slot * kPeriod, 20.0, CacheSource::kPushed);
    }
    for (const int64_t first : windows) {
      for (int64_t slot = first; slot < std::min(first + kWindow, kSlots); ++slot) {
        cache.Insert(slot * kPeriod, 20.5, CacheSource::kPulled);
      }
    }
    benchmark::DoNotOptimize(cache.size());
    inserts += static_cast<int64_t>(cache.stats().inserts + cache.stats().refinements);
  }
  state.SetItemsProcessed(inserts);
}
BENCHMARK(BM_SummaryCacheFillHoles);

void BM_SummaryCacheRange(benchmark::State& state) {
  SummaryCache cache(1 << 20);
  for (SimTime t = 0; t < Days(7); t += Seconds(31)) {
    cache.Insert(t, 20.0, CacheSource::kPushed);
  }
  Pcg32 rng(8);
  for (auto _ : state) {
    const SimTime start = static_cast<SimTime>(rng.UniformInt(0, Days(6)));
    benchmark::DoNotOptimize(cache.Range(TimeInterval{start, start + Hours(1)}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SummaryCacheRange);

// The query path's codec bucket: a cross-cell answer is written into a FedMail body
// at the serving cell and read back at the gateway. Twenty samples is the `query`
// workload's average answer; the body is 335 bytes here.
UnifiedQueryResult TwentySampleResult() {
  UnifiedQueryResult result;
  result.answer.source = AnswerSource::kCacheHit;
  for (int i = 0; i < 20; ++i) {
    result.answer.samples.push_back(
        Sample{Hours(40) + i * Seconds(31), 21.0 + 0.37 * static_cast<double>(i % 7)});
  }
  result.answer.value = 21.5;
  result.answer.error_estimate = 0.25;
  result.answer.energy_j = 1.5e-3;
  result.answer.issued_at = Hours(41);
  result.answer.completed_at = Hours(41) + Seconds(2);
  result.served_by = 3;
  result.index_hops = 2;
  result.issued_at = Hours(41);
  result.completed_at = Hours(41) + Seconds(2);
  return result;
}

void BM_CkptWriteQueryResult(benchmark::State& state) {
  const UnifiedQueryResult result = TwentySampleResult();
  size_t bytes = 0;
  for (auto _ : state) {
    ByteWriter body;
    CkptWrite(body, result);
    std::vector<uint8_t> out = body.TakeBuffer();
    bytes = out.size();
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * bytes));
  state.counters["body_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_CkptWriteQueryResult);

void BM_CkptReadQueryResult(benchmark::State& state) {
  ByteWriter body;
  CkptWrite(body, TwentySampleResult());
  const std::vector<uint8_t> bytes = body.TakeBuffer();
  for (auto _ : state) {
    UnifiedQueryResult result;
    ByteReader r{span<const uint8_t>(bytes)};
    CkptRead(r, result);
    if (!r.ok() || !r.AtEnd()) {
      state.SkipWithError("query result body did not read back");
      break;
    }
    benchmark::DoNotOptimize(result.answer.samples.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * bytes.size()));
}
BENCHMARK(BM_CkptReadQueryResult);

// Counts the typed events dispatched to it.
class CountingSink : public EventSink {
 public:
  void OnSimEvent(EventKind kind, EventPayload& payload) override {
    (void)kind;
    (void)payload;
    ++fired;
  }
  int fired = 0;
};

void BM_SimulatorEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Simulator sim;
    CountingSink sink;
    state.ResumeTiming();
    for (int i = 0; i < 10000; ++i) {
      sim.ScheduleEventAt(i, EventKind::kTimer, &sink, EventPayload{});
    }
    sim.RunAll();
    benchmark::DoNotOptimize(sink.fired);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SimulatorEventThroughput);

// Timers that re-arm themselves one period (payload.a us) on, in their own lane.
class RearmSink : public EventSink {
 public:
  explicit RearmSink(Simulator* sim) : sim_(sim) {}
  void OnSimEvent(EventKind kind, EventPayload& payload) override {
    const auto period = static_cast<Duration>(payload.a);
    sim_->ScheduleEventAt(sim_->Now() + period, kind, this, std::move(payload));
  }

 private:
  Simulator* sim_;
};

// Wall time per event of 8 lanes x 192 re-arming 1 s timers, dealt round-robin over
// the lanes and stepped on a 2 ms epoch grid for 20 sim seconds on one thread. The
// label is the simulator fingerprint, which a change to the engine must keep.
void RunLaneTimers(benchmark::State& state, bool aligned) {
  constexpr int kLanes = 8;
  constexpr int kTimersPerLane = 192;
  constexpr int kTimers = kLanes * kTimersPerLane;
  uint64_t events = 0;
  uint64_t fingerprint = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Simulator sim(kLanes, /*threads=*/1, Millis(2));
    RearmSink sink(&sim);
    for (int i = 0; i < kTimers; ++i) {
      EventPayload payload;
      payload.a = static_cast<uint64_t>(Seconds(1));
      sim.ScheduleEventAt(aligned ? 0 : Seconds(1) * i / kTimers, EventKind::kTimer,
                          &sink, std::move(payload), i % kLanes);
    }
    state.ResumeTiming();
    sim.RunUntil(Seconds(20));
    events += sim.events_executed();
    fingerprint = sim.fingerprint();
  }
  const auto flags = benchmark::Counter::kIsRate | benchmark::Counter::kInvert;
  state.counters["per_event"] = benchmark::Counter(static_cast<double>(events), flags);
  state.SetItemsProcessed(static_cast<int64_t>(events));
  char label[24];
  std::snprintf(label, sizeof(label), "fp=%016llx",
                static_cast<unsigned long long>(fingerprint));
  state.SetLabel(label);
}

// Phases spread evenly: most barriers find one or two lanes with an event due and
// no mail, the shape of a sensing deployment's lanes between pushes. Every timer
// has a time of its own, so every push starts a run of one: the run queue's worst
// case.
void BM_SparseLaneEpochs(benchmark::State& state) { RunLaneTimers(state, false); }
BENCHMARK(BM_SparseLaneEpochs)->Unit(benchmark::kMillisecond);

// One shared phase, as sensors started together tick: each lane's 192 timers fire
// and re-arm at one time, so all but the first push of a tick join a run.
void BM_AlignedLaneTimers(benchmark::State& state) { RunLaneTimers(state, true); }
BENCHMARK(BM_AlignedLaneTimers)->Unit(benchmark::kMillisecond);

// Wall time per executed event in an 8 x N deployment in its model regime: warmed
// 28 sim hours outside the timing (past the prediction engine's 26 h training span
// and the hours of model fitting that follow it), then one fixed 6-sim-hour window
// timed, so every run (and repetition) times the same events. Sensing ticks are
// ~87% of those events, so the curve over N shows how a tick's cost grows with the
// per-sensor state the host must keep cached. The config is perfbench's ingest cell
// (N = 64) without its query driver.
void BM_SensingTick(benchmark::State& state) {
  DeploymentConfig config;
  config.num_proxies = 8;
  config.sensors_per_proxy = static_cast<int>(state.range(0));
  config.enable_replication = true;
  config.replication_factor = 2;
  config.flash.num_blocks = 8;
  config.seed = 2005;
  Deployment dep(config);
  dep.Start();
  dep.RunUntil(Hours(28));
  uint64_t events = 0;
  for (auto _ : state) {
    const uint64_t before = dep.sim().events_executed();
    dep.RunUntil(Hours(34));
    events += dep.sim().events_executed() - before;
  }
  // Seconds per event, which the table prints with an SI prefix (e.g. "470n").
  const auto flags = benchmark::Counter::kIsRate | benchmark::Counter::kInvert;
  state.counters["per_event"] = benchmark::Counter(static_cast<double>(events), flags);
  state.SetItemsProcessed(static_cast<int64_t>(events));
}
BENCHMARK(BM_SensingTick)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64)
    ->Arg(128)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace presto
