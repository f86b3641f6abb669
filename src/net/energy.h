// Per-node energy accounting.
//
// Every joule a simulated sensor spends flows through an EnergyMeter, broken down by
// component, so benches can report both totals (Figure 2's y-axis) and where the energy
// went (radio vs CPU vs flash — the technology-trend argument in the paper's §1).

#ifndef SRC_NET_ENERGY_H_
#define SRC_NET_ENERGY_H_

#include <array>
#include <cstdint>
#include <string>

#include "src/util/bytes.h"
#include "src/util/ckpt.h"
#include "src/util/result.h"

namespace presto {

enum class EnergyComponent : uint8_t {
  kRadioTx = 0,
  kRadioListen,  // active receive + idle listening + LPL channel sampling
  kRadioSleep,
  kCpu,
  kSensing,
  kFlashRead,
  kFlashWrite,
  kFlashErase,
};

inline constexpr int kNumEnergyComponents = 8;

const char* EnergyComponentName(EnergyComponent c);

// Accumulates joules per component. Plain value type; cheap to copy for snapshots.
class EnergyMeter {
 public:
  void Charge(EnergyComponent component, double joules);

  double Total() const;
  double Component(EnergyComponent c) const {
    return totals_[static_cast<size_t>(c)];
  }
  double RadioTotal() const {
    return Component(EnergyComponent::kRadioTx) +
           Component(EnergyComponent::kRadioListen) +
           Component(EnergyComponent::kRadioSleep);
  }

  // "total=12.3J radio_tx=10.1J ..." for logs and tables.
  std::string Breakdown() const;

  void Reset() { totals_.fill(0.0); }

  // Checkpoint field list: exact f64 per-component totals.
  template <class S, class F, CkptSelf<S, EnergyMeter> = 0>
  friend void CkptFields(S& v, F&& f) {
    f(v.totals_);
  }

 private:
  std::array<double, kNumEnergyComponents> totals_{};
};

// CPU energy model: motes spend roughly 4 orders of magnitude less energy per useful
// operation than per transmitted bit (Pottie & Kaiser, cited as [8] in the paper). We
// count abstract "ops" in compute-heavy paths (model checks, wavelet transforms) and
// charge this much per op. 1 nJ/op ~ an 8 MHz mote-class MCU at a few mA.
inline constexpr double kCpuJoulesPerOp = 1e-9;

// Energy to acquire one sample from a low-power transducer (temperature/light class).
inline constexpr double kSensingJoulesPerSample = 90e-6;


}  // namespace presto

#endif  // SRC_NET_ENERGY_H_
