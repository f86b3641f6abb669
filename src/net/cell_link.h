// Inter-cell wired trunk: the long-haul link between two proxy cells of a
// federation (metro fiber / backhaul), as opposed to the intra-cell wired mesh the
// Network models between co-located proxies.
//
// Each directed cell pair owns one CellLink. The model is a FIFO serial trunk:
// a message of B bytes entering at time t departs behind any earlier traffic still
// on the wire (clear_at), occupies the trunk for B / bandwidth, and lands at the far
// end one propagation latency later. Determinism relies on a usage contract rather
// than locks: a directed link is only ever driven by its source cell's serial
// control lane (federation query routing runs at cell barriers), so send times are
// monotone non-decreasing and no two contexts race on clear_at.
//
// Delivery at the receiving cell is a typed simulator event scheduled by the
// federation; cross-cell delivery granularity is the federation epoch (see
// src/core/federation.h), so latencies below the epoch are only faithful modulo
// barrier clamping — the same caveat the intra-sim lane mailboxes carry.

#ifndef SRC_NET_CELL_LINK_H_
#define SRC_NET_CELL_LINK_H_

#include <cstddef>
#include <cstdint>

#include "src/util/ckpt.h"
#include "src/util/result.h"
#include "src/util/sim_time.h"

namespace presto {

class ByteReader;
class ByteWriter;

struct CellLinkParams {
  Duration latency = Millis(5);    // one-way propagation delay
  double bandwidth_bps = 1e8;      // trunk serialization rate
};

template <class S, class F, CkptSelf<S, CellLinkParams> = 0>
void CkptFields(S& v, F&& f) {
  f(v.latency);
  f(v.bandwidth_bps);
}

// CellLink's construction rules (InvalidArgument when broken).
Status Validate(const CellLinkParams& params);

struct CellLinkStats {
  uint64_t messages = 0;
  uint64_t bytes = 0;
  uint64_t queued = 0;   // messages that had to wait behind earlier traffic
  Duration busy = 0;     // total serialization time spent on the wire
};

template <class S, class F, CkptSelf<S, CellLinkStats> = 0>
void CkptFields(S& v, F&& f) {
  f(v.messages);
  f(v.bytes);
  f(v.queued);
  f(v.busy);
}

class CellLink {
 public:
  explicit CellLink(const CellLinkParams& params);

  // Serializes a `bytes`-sized message entering the trunk at `send_time` and returns
  // its delivery time at the far end. Send times must be monotone non-decreasing
  // (single serial sender — the source cell's control lane).
  SimTime Deliver(SimTime send_time, size_t bytes);

  // Serialization time for `bytes` at the configured bandwidth.
  Duration TransferTime(size_t bytes) const;

  const CellLinkStats& stats() const { return stats_; }
  const CellLinkParams& params() const { return params_; }

  // Checkpoint codec: the serialization clock and counters.
  void SaveState(ByteWriter& w) const;
  void LoadState(ByteReader& r);

 private:
  template <class Self, class F>
  static void StateFields(Self& self, F&& f) {
    f(self.clear_at_);
    f(self.stats_);
  }

  CellLinkParams params_;
  SimTime clear_at_ = 0;  // when the trunk finishes serializing queued traffic
  CellLinkStats stats_;
};

}  // namespace presto

#endif  // SRC_NET_CELL_LINK_H_
