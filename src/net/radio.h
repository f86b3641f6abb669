// Radio hardware parameters and timing/energy arithmetic.
//
// The MAC (net/network.cc) expresses everything as byte counts and durations; this file
// turns those into joules using per-state power draws taken from mote-class radio
// datasheets. Two presets are provided: a CC1000/Mica2-class radio (the platform of the
// paper's era, used for the Figure 2 reproduction) and a CC2420/Telos-class radio.

#ifndef SRC_NET_RADIO_H_
#define SRC_NET_RADIO_H_

#include <cstdint>

#include "src/util/ckpt.h"
#include "src/util/sim_time.h"

namespace presto {

struct RadioParams {
  double bit_rate_bps;     // effective over-the-air data rate
  double tx_power_w;       // power while transmitting
  double listen_power_w;   // power while receiving or idle-listening
  double sleep_power_w;    // power while asleep
  Duration turnaround;     // radio state-switch / wakeup time per burst
  Duration lpl_sample;     // duration of one low-power-listening channel sample

  int frame_header_bytes;  // MAC header + addressing
  int frame_crc_bytes;     // frame check sequence
  int max_payload_bytes;   // payload capacity of a single frame
  int ack_bytes;           // length of an ACK frame
  int short_preamble_bytes;  // preamble when the receiver is already listening

  // Time to clock `bytes` through the radio at bit_rate_bps.
  Duration TimeOnAir(int bytes) const {
    return static_cast<Duration>(static_cast<double>(bytes) * 8.0 / bit_rate_bps *
                                 static_cast<double>(kSecond));
  }

  // Energy for `d` of transmission / listening.
  double TxEnergy(Duration d) const { return ToSeconds(d) * tx_power_w; }
  double ListenEnergy(Duration d) const { return ToSeconds(d) * listen_power_w; }
  double SleepEnergy(Duration d) const { return ToSeconds(d) * sleep_power_w; }

  // Frames needed for a payload of `payload_bytes` (at least one, even when empty).
  int FramesFor(int payload_bytes) const {
    if (payload_bytes <= 0) {
      return 1;
    }
    return (payload_bytes + max_payload_bytes - 1) / max_payload_bytes;
  }
};

template <class S, class F, CkptSelf<S, RadioParams> = 0>
void CkptFields(S& v, F&& f) {
  f(v.bit_rate_bps);
  f(v.tx_power_w);
  f(v.listen_power_w);
  f(v.sleep_power_w);
  f(v.turnaround);
  f(v.lpl_sample);
  f(v.frame_header_bytes);
  f(v.frame_crc_bytes);
  f(v.max_payload_bytes);
  f(v.ack_bytes);
  f(v.short_preamble_bytes);
}

// CC1000-class radio on a Mica2-era mote (19.2 kbps effective Manchester-coded rate).
RadioParams Cc1000Radio();

// CC2420-class radio on a Telos-era mote (250 kbps 802.15.4).
RadioParams Cc2420Radio();

}  // namespace presto

#endif  // SRC_NET_RADIO_H_
