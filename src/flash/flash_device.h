// Simulated NAND-style flash device.
//
// The paper's §1 argument rests on storage being ~2 orders of magnitude cheaper than
// communication; this device model makes that quantitative. Semantics follow real
// parts: page-granular reads/writes, block-granular erases, write-once pages (a page
// must be erased before rewrite), per-block wear counters. Energy flows to the owning
// node's EnergyMeter.

#ifndef SRC_FLASH_FLASH_DEVICE_H_
#define SRC_FLASH_FLASH_DEVICE_H_

#include <cstdint>
#include <vector>

#include "src/net/energy.h"
#include "src/util/ckpt.h"
#include "src/util/result.h"
#include "src/util/sim_time.h"
#include "src/util/span.h"

namespace presto {

class ByteReader;
class ByteWriter;

struct FlashParams {
  int page_size_bytes = 256;
  int pages_per_block = 16;
  int num_blocks = 256;  // 1 MiB with defaults

  // Latency and energy per operation (mote-class serial flash / small NAND).
  Duration read_page_latency = Micros(250);
  Duration write_page_latency = Micros(800);
  Duration erase_block_latency = Millis(2);
  double read_page_energy_j = 8e-6;
  double write_page_energy_j = 30e-6;
  double erase_block_energy_j = 60e-6;

  int TotalPages() const { return pages_per_block * num_blocks; }
  int64_t CapacityBytes() const {
    return static_cast<int64_t>(page_size_bytes) * TotalPages();
  }
};

template <class S, class F, CkptSelf<S, FlashParams> = 0>
void CkptFields(S& v, F&& f) {
  f(v.page_size_bytes);
  f(v.pages_per_block);
  f(v.num_blocks);
  f(v.read_page_latency);
  f(v.write_page_latency);
  f(v.erase_block_latency);
  f(v.read_page_energy_j);
  f(v.write_page_energy_j);
  f(v.erase_block_energy_j);
}

// FlashDevice's construction rules (InvalidArgument when broken). Each config a
// worker builds from has one: its constructor aborts on a broken config, and the
// bootstrap decoder reports the same rules as a refusal.
Status Validate(const FlashParams& params);

struct FlashStats {
  uint64_t page_reads = 0;
  uint64_t page_writes = 0;
  uint64_t block_erases = 0;
  Duration busy_time = 0;  // cumulative device-busy time
};

template <class S, class F, CkptSelf<S, FlashStats> = 0>
void CkptFields(S& v, F&& f) {
  f(v.page_reads);
  f(v.page_writes);
  f(v.block_erases);
  f(v.busy_time);
}

class FlashDevice {
 public:
  // `meter` may be null (energy untracked, e.g. in unit tests).
  FlashDevice(const FlashParams& params, EnergyMeter* meter);

  // Reads one page into `out` (must be exactly page_size_bytes).
  Status ReadPage(int page, span<uint8_t> out);

  // Programs one erased page from `data` (must be exactly page_size_bytes).
  // Fails with kFailedPrecondition if the page has not been erased.
  Status WritePage(int page, span<const uint8_t> data);

  // Erases a whole block, incrementing its wear count.
  Status EraseBlock(int block);

  bool IsPageWritten(int page) const;
  uint32_t BlockWear(int block) const;

  const FlashParams& params() const { return params_; }
  const FlashStats& stats() const { return stats_; }

  // Simulates power loss in the middle of programming `page`: the page is marked
  // written but filled with corrupt data. Used by recovery tests.
  void CorruptPageForTest(int page);

  // Checkpoint codec: media contents (written pages only — erased pages are implied
  // 0xFF), wear counters, and stats. LoadState requires identical FlashParams.
  void SaveState(ByteWriter& w) const;
  void LoadState(ByteReader& r);

 private:
  bool ValidPage(int page) const { return page >= 0 && page < params_.TotalPages(); }
  bool ValidBlock(int block) const { return block >= 0 && block < params_.num_blocks; }
  void Charge(EnergyComponent c, double joules, Duration latency);

  FlashParams params_;
  EnergyMeter* meter_;
  std::vector<uint8_t> data_;
  std::vector<bool> written_;
  std::vector<uint32_t> wear_;
  FlashStats stats_;
};

}  // namespace presto

#endif  // SRC_FLASH_FLASH_DEVICE_H_
