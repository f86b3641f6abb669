// Ablation A5 — the §4 claim: "If storage is constrained on each sensor, graceful
// aging of archived data can be enabled using wavelet-based multi-resolution
// techniques [10]."
//
// Archives a 28-day trace into flash devices of shrinking capacity and reports, per
// data age, whether queries still succeed and at what resolution/error — versus a
// no-aging store that simply fills up and rejects.

#include <cmath>
#include <cstdio>
#include <memory>

#include "bench/bench_report.h"
#include "src/flash/archive_store.h"
#include "src/util/table.h"
#include "src/wavelet/aging.h"
#include "src/workload/temperature.h"

using namespace presto;

namespace {

constexpr Duration kPeriod = Seconds(31);
constexpr int kDays = 28;

FlashParams FlashOfSize(int kib) {
  FlashParams p;
  p.page_size_bytes = 256;
  p.pages_per_block = 16;
  p.num_blocks = kib * 1024 / (256 * 16);
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = ConsumeJsonFlag(&argc, argv);
  std::printf("Ablation A5: multi-resolution aging under storage pressure\n");
  std::printf("(28-day temperature trace, 31 s sampling = %d records ~ %.0f KiB raw)\n\n",
              kDays * 2786, kDays * 2786 * 7.2 / 1024.0);

  TemperatureParams world;
  world.seed = 808;
  TemperatureSignal signal(world);

  TextTable table;
  table.SetHeader({"flash_KiB", "aging", "appends_ok", "aging_passes", "oldest_day_kept",
                   "res_day1", "rmse_day1_C", "res_day27", "rmse_day27_C"});

  for (int kib : {768, 384, 192, 96}) {
    for (bool aging : {true, false}) {
      FlashDevice dev(FlashOfSize(kib), nullptr);
      ArchiveParams params;
      params.nominal_sample_period = kPeriod;
      params.aging_enabled = aging;
      ArchiveStore store(&dev, params);
      store.SetSummarizer(WaveletAgingSummarize);

      uint64_t appended = 0;
      for (SimTime t = 0; t < Days(kDays); t += kPeriod) {
        if (store.Append(Sample{t, signal.ValueAt(t)}).ok()) {
          ++appended;
        }
      }
      (void)store.Flush();

      auto evaluate_day = [&store, &signal](int day, std::string* res, double* rmse) {
        const TimeInterval range{Days(day), Days(day) + Hours(6)};
        auto data = store.Query(range);
        if (!data.ok() || data->empty()) {
          res->assign(1, '-');
          *rmse = -1.0;
          return;
        }
        auto resolution = store.ResolutionAt(range.start + Hours(1));
        *res = resolution.ok() ? FormatDuration(*resolution) : "?";
        // Step-upsample the (possibly coarse) archive back to the sampling grid.
        const size_t n = static_cast<size_t>(range.Length() / kPeriod);
        const auto grid = UpsampleToGrid(*data, kPeriod, range.start, n);
        double sq = 0.0;
        for (const Sample& s : grid) {
          const double diff = s.value - signal.ValueAt(s.t);
          sq += diff * diff;
        }
        *rmse = std::sqrt(sq / static_cast<double>(n));
      };

      std::string res1;
      std::string res27;
      double rmse1 = 0.0;
      double rmse27 = 0.0;
      evaluate_day(1, &res1, &rmse1);
      evaluate_day(kDays - 1, &res27, &rmse27);
      auto retained = store.RetainedRange();
      const double oldest =
          retained.ok() ? ToDays(retained->start) : -1.0;

      table.AddRow({TextTable::Int(kib), aging ? "on" : "off",
                    TextTable::Num(
                        100.0 * static_cast<double>(appended) / (Days(kDays) / kPeriod),
                        1),
                    TextTable::Int(static_cast<long long>(store.stats().aging_passes)),
                    TextTable::Num(oldest, 1), res1,
                    rmse1 < 0 ? "-" : TextTable::Num(rmse1, 2), res27,
                    rmse27 < 0 ? "-" : TextTable::Num(rmse27, 2)});
    }
  }

  std::printf("=== A5: storage budget sweep (appends_ok in %%) ===\n");
  table.Print();
  std::printf("\nClaim check: with aging on, every append succeeds and day-1 data stays\n"
              "queryable at coarser resolution/higher error as flash shrinks; "
              "with aging\n"
              "off the store fills and rejects new data (or day-1 data would "
              "be gone).\n");
  BenchReport report("ablation_aging");
  report.AddTable(table);
  return report.WriteJson(json_path) ? 0 : 1;
}
