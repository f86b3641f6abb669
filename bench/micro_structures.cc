// Microbench M4 — core data-structure throughput: skip-graph ops, unified-store
// routing, summary-cache ops, and the event queue that everything runs on.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

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

}  // namespace
}  // namespace presto
