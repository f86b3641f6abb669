#include "src/net/cell_link.h"

#include <algorithm>

#include "src/util/assert.h"
#include "src/util/ckpt.h"

namespace presto {

Status Validate(const CellLinkParams& params) {
  if (params.latency < 0) {
    return InvalidArgumentError("link: negative trunk latency");
  }
  if (!(params.bandwidth_bps > 0.0)) {
    return InvalidArgumentError("link: trunk bandwidth must be positive");
  }
  return OkStatus();
}

CellLink::CellLink(const CellLinkParams& params) : params_(params) {
  PRESTO_CHECK_OK(Validate(params_));
}

Duration CellLink::TransferTime(size_t bytes) const {
  return static_cast<Duration>(static_cast<double>(bytes) * 8.0 /
                               params_.bandwidth_bps * static_cast<double>(kSecond));
}

SimTime CellLink::Deliver(SimTime send_time, size_t bytes) {
  const SimTime depart = std::max(send_time, clear_at_);
  if (depart > send_time) {
    ++stats_.queued;
  }
  const Duration transfer = TransferTime(bytes);
  clear_at_ = depart + transfer;
  ++stats_.messages;
  stats_.bytes += static_cast<uint64_t>(bytes);
  stats_.busy += transfer;
  return clear_at_ + params_.latency;
}

void CellLink::SaveState(ByteWriter& w) const { StateFields(*this, CkptWriter(w)); }

void CellLink::LoadState(ByteReader& r) { StateFields(*this, CkptReader(r)); }

}  // namespace presto
