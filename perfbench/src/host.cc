#include "perfbench/src/host.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <utility>

namespace perfbench {
namespace {

// Value of a "Key:   123 kB" line in /proc/<pid>/status, or 0.
uint64_t StatusField(const std::string& pid, const char* key) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  const size_t key_len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, key_len, key) == 0 && line.size() > key_len &&
        line[key_len] == ':') {
      return std::strtoull(line.c_str() + key_len + 1, nullptr, 10);
    }
  }
  return 0;
}

// utime + stime of another process from /proc/<pid>/stat, in seconds.
void AddProcStat(int pid, HostUsage* usage) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  // The command name may contain spaces; fields resume after its closing paren.
  const size_t paren = text.rfind(')');
  if (paren == std::string::npos) {
    return;
  }
  std::istringstream fields(text.substr(paren + 2));
  std::string field;
  unsigned long long utime = 0;
  unsigned long long stime = 0;
  // Field 3 (state) is the first after the paren; utime and stime are 14 and 15.
  for (int index = 3; index <= 15 && (fields >> field); ++index) {
    if (index == 14) {
      utime = std::strtoull(field.c_str(), nullptr, 10);
    } else if (index == 15) {
      stime = std::strtoull(field.c_str(), nullptr, 10);
    }
  }
  const double tick = static_cast<double>(::sysconf(_SC_CLK_TCK));
  usage->user_s += static_cast<double>(utime) / tick;
  usage->sys_s += static_cast<double>(stime) / tick;
}

}  // namespace

HostUsage ReadHostUsage(const std::vector<int>& workers) {
  HostUsage usage;
  rusage self{};
  ::getrusage(RUSAGE_SELF, &self);
  usage.user_s = static_cast<double>(self.ru_utime.tv_sec) +
                 static_cast<double>(self.ru_utime.tv_usec) / 1e6;
  usage.sys_s = static_cast<double>(self.ru_stime.tv_sec) +
                static_cast<double>(self.ru_stime.tv_usec) / 1e6;
  usage.ctx_switches = static_cast<uint64_t>(self.ru_nvcsw + self.ru_nivcsw);
  for (const int pid : workers) {
    AddProcStat(pid, &usage);
    const std::string id = std::to_string(pid);
    usage.ctx_switches += StatusField(id, "voluntary_ctxt_switches") +
                          StatusField(id, "nonvoluntary_ctxt_switches");
  }
  return usage;
}

double ReferenceMs() {
  // All storage is allocated once and reused, so the time does not depend on the
  // state of the program's heap either.
  constexpr size_t kTableEntries = size_t{1} << 18;  // 2 MiB of uint64_t
  constexpr size_t kNodes = 4096;
  constexpr size_t kSlots = size_t{1} << 14;  // open-addressing hash table
  using Event = std::pair<uint64_t, uint32_t>;  // (time, node), min-heap on time
  static std::vector<uint64_t> table;
  static std::vector<Event> heap;
  static std::vector<uint32_t> keys;
  static std::vector<uint64_t> values;
  if (table.empty()) {
    table.resize(kTableEntries);
    uint64_t x = 0x9e3779b97f4a7c15ull;
    for (uint64_t& v : table) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      v = x >> 11;
    }
    heap.resize(kNodes);
    keys.resize(kSlots);
    values.resize(kSlots);
  }
  const auto start = std::chrono::steady_clock::now();
  uint64_t rng = 12345;
  for (uint32_t node = 0; node < kNodes; ++node) {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    heap[node] = {rng >> 44, node};
  }
  const auto later = std::greater<Event>();
  std::make_heap(heap.begin(), heap.end(), later);
  std::fill(keys.begin(), keys.end(), UINT32_MAX);
  uint64_t acc = 0;
  for (int step = 0; step < 150000; ++step) {
    std::pop_heap(heap.begin(), heap.end(), later);
    Event& event = heap.back();
    acc += table[(event.first * 0x9e3779b97f4a7c15ull ^ acc) & (kTableEntries - 1)];
    const uint32_t key = static_cast<uint32_t>(acc >> 7) & 0xfffff;
    size_t slot = (key * 0x9e3779b1u) & (kSlots - 1);
    while (keys[slot] != key && keys[slot] != UINT32_MAX) {
      slot = (slot + 1) & (kSlots - 1);
    }
    if (keys[slot] == key || step < static_cast<int>(kSlots / 2)) {
      keys[slot] = key;
      values[slot] += event.second;
    }
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    event.first += rng >> 48;
    std::push_heap(heap.begin(), heap.end(), later);
  }
  const double ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
          .count();
  static std::atomic<uint64_t> sink;
  sink.store(acc + values[0], std::memory_order_relaxed);
  return ms;
}

double PeakRssMb(int pid) {
  return static_cast<double>(StatusField(std::to_string(pid), "VmHWM")) / 1024.0;
}

double SelfPeakRssMb() {
  return static_cast<double>(StatusField("self", "VmHWM")) / 1024.0;
}

}  // namespace perfbench
