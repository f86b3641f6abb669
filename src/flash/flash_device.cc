#include "src/flash/flash_device.h"

#include <algorithm>

#include "src/util/assert.h"
#include "src/util/ckpt.h"

namespace presto {

Status Validate(const FlashParams& params) {
  if (params.page_size_bytes <= 0 || params.pages_per_block <= 0 ||
      params.num_blocks <= 0) {
    return InvalidArgumentError(
        "flash: page_size_bytes, pages_per_block and num_blocks must be positive");
  }
  return OkStatus();
}

FlashDevice::FlashDevice(const FlashParams& params, EnergyMeter* meter)
    : params_(params), meter_(meter) {
  PRESTO_CHECK_OK(Validate(params_));
  data_.assign(static_cast<size_t>(params_.CapacityBytes()), 0xFF);
  written_.assign(static_cast<size_t>(params_.TotalPages()), false);
  wear_.assign(static_cast<size_t>(params_.num_blocks), 0);
}

void FlashDevice::Charge(EnergyComponent c, double joules, Duration latency) {
  if (meter_ != nullptr) {
    meter_->Charge(c, joules);
  }
  stats_.busy_time += latency;
}

Status FlashDevice::ReadPage(int page, span<uint8_t> out) {
  if (!ValidPage(page)) {
    return OutOfRangeError("flash: page out of range");
  }
  if (out.size() != static_cast<size_t>(params_.page_size_bytes)) {
    return InvalidArgumentError("flash: read buffer must be one page");
  }
  const size_t offset = static_cast<size_t>(page) * params_.page_size_bytes;
  std::copy_n(data_.begin() + static_cast<ptrdiff_t>(offset), params_.page_size_bytes,
              out.begin());
  ++stats_.page_reads;
  Charge(EnergyComponent::kFlashRead, params_.read_page_energy_j,
         params_.read_page_latency);
  return OkStatus();
}

Status FlashDevice::WritePage(int page, span<const uint8_t> data) {
  if (!ValidPage(page)) {
    return OutOfRangeError("flash: page out of range");
  }
  if (data.size() != static_cast<size_t>(params_.page_size_bytes)) {
    return InvalidArgumentError("flash: write buffer must be one page");
  }
  if (written_[static_cast<size_t>(page)]) {
    return FailedPreconditionError("flash: page not erased");
  }
  const size_t offset = static_cast<size_t>(page) * params_.page_size_bytes;
  std::copy(data.begin(), data.end(), data_.begin() + static_cast<ptrdiff_t>(offset));
  written_[static_cast<size_t>(page)] = true;
  ++stats_.page_writes;
  Charge(EnergyComponent::kFlashWrite, params_.write_page_energy_j,
         params_.write_page_latency);
  return OkStatus();
}

Status FlashDevice::EraseBlock(int block) {
  if (!ValidBlock(block)) {
    return OutOfRangeError("flash: block out of range");
  }
  const int first = block * params_.pages_per_block;
  for (int p = first; p < first + params_.pages_per_block; ++p) {
    written_[static_cast<size_t>(p)] = false;
  }
  const size_t offset = static_cast<size_t>(first) * params_.page_size_bytes;
  const size_t len =
      static_cast<size_t>(params_.pages_per_block) * params_.page_size_bytes;
  std::fill_n(data_.begin() + static_cast<ptrdiff_t>(offset), len, 0xFF);
  ++wear_[static_cast<size_t>(block)];
  ++stats_.block_erases;
  Charge(EnergyComponent::kFlashErase, params_.erase_block_energy_j,
         params_.erase_block_latency);
  return OkStatus();
}

bool FlashDevice::IsPageWritten(int page) const {
  PRESTO_CHECK(ValidPage(page));
  return written_[static_cast<size_t>(page)];
}

uint32_t FlashDevice::BlockWear(int block) const {
  PRESTO_CHECK(ValidBlock(block));
  return wear_[static_cast<size_t>(block)];
}

void FlashDevice::CorruptPageForTest(int page) {
  PRESTO_CHECK(ValidPage(page));
  const size_t offset = static_cast<size_t>(page) * params_.page_size_bytes;
  for (int i = 0; i < params_.page_size_bytes; ++i) {
    data_[offset + static_cast<size_t>(i)] = static_cast<uint8_t>(0xA5 ^ i);
  }
  written_[static_cast<size_t>(page)] = true;
}

}  // namespace presto

namespace presto {

void FlashDevice::SaveState(ByteWriter& w) const {
  const size_t page_size = static_cast<size_t>(params_.page_size_bytes);
  uint64_t written_count = 0;
  for (const bool b : written_) {
    written_count += b ? 1 : 0;
  }
  w.WriteVarU64(written_count);
  for (size_t p = 0; p < written_.size(); ++p) {
    if (!written_[p]) {
      continue;
    }
    w.WriteVarU64(p);
    w.WriteBytes(span<const uint8_t>(data_.data() + p * page_size, page_size));
  }
  CkptWrite(w, wear_);
  CkptWrite(w, stats_);
}

void FlashDevice::LoadState(ByteReader& r) {
  const size_t page_size = static_cast<size_t>(params_.page_size_bytes);
  const size_t total_pages = static_cast<size_t>(params_.TotalPages());
  const uint64_t written_count = r.ReadVarU64();
  if (!r.ok()) {
    return;
  }
  if (written_count > total_pages) {
    return r.Fail(DataLossError("flash restore: written-page count exceeds device size"));
  }
  std::fill(data_.begin(), data_.end(), 0xFF);
  written_.assign(total_pages, false);
  for (uint64_t i = 0; i < written_count; ++i) {
    const uint64_t page = r.ReadVarU64();
    if (page >= total_pages) {
      return r.Fail(DataLossError("flash restore: page index out of range"));
    }
    const span<const uint8_t> bytes = r.ReadByteSpan();
    if (!r.ok()) {
      return;
    }
    if (bytes.size() != page_size) {
      return r.Fail(DataLossError("flash restore: page image size mismatch"));
    }
    std::copy(bytes.begin(), bytes.end(),
              data_.begin() + static_cast<ptrdiff_t>(page * page_size));
    written_[static_cast<size_t>(page)] = true;
  }
  CkptRead(r, wear_);
  if (wear_.size() != static_cast<size_t>(params_.num_blocks)) {
    return r.Fail(DataLossError("flash restore: wear table size mismatch"));
  }
  CkptRead(r, stats_);
}

}  // namespace presto
