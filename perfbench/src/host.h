// Host-side resource readings for the benchmark's process tree: its own process
// plus any live presto_cell workers (identified by pid). Linux /proc and
// getrusage only; none of this is ever read inside the simulation.

#ifndef PERFBENCH_SRC_HOST_H_
#define PERFBENCH_SRC_HOST_H_

#include <cstdint>
#include <vector>

namespace perfbench {

struct HostUsage {
  double user_s = 0.0;
  double sys_s = 0.0;
  uint64_t ctx_switches = 0;  // voluntary + involuntary
};

// CPU time and context switches of this process plus each pid in `workers`.
HostUsage ReadHostUsage(const std::vector<int>& workers);

// Wall milliseconds of a fixed reference workload in the simulator's image: a
// binary-heap event queue, a hash table of per-node state and random reads over a
// 2 MiB table. It is not the program under test and never changes, so its time
// measures how fast the host runs right now: the host's other tenants can slow
// this machine's cores by 2x for minutes at a time. The tables are small so the
// time barely depends on what the program left in the caches.
double ReferenceMs();

// Peak resident set (VmHWM) of one process in MiB; 0 if it cannot be read.
double PeakRssMb(int pid);
double SelfPeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_HOST_H_
