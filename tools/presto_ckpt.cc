// presto_ckpt: inspect, verify, and diff PRESTO checkpoint files.
//
// Checkpoints are versioned section containers (src/util/ckpt.h): one named,
// FNV-checksummed section per subsystem, written at federation barriers by
// Deployment::SaveCheckpoint / Federation::SaveCheckpoint. This tool is the
// debugging entry point for the determinism contract: when two runs that should be
// bit-identical are not, `diff` names the first subsystem section (in save order)
// whose bytes diverge — the bisect starting point (tools/ckpt_bisect.py drives it
// across a barrier sequence).
//
//   presto_ckpt info <file>                 section table, sizes, digest, and
//                                           per-cell byte totals (+ "fed"): a
//                                           federation restore sends each worker
//                                           only its cells' sections
//   presto_ckpt verify <file>               decode + checksum every section
//   presto_ckpt diff <a> <b>                divergent sections, first = bisect hint
//   presto_ckpt delta <base> <target> <out> barrier-to-barrier diff (PCKD) file
//   presto_ckpt apply <base> <delta> <out>  overlay a delta back into a snapshot
//
// Exit codes: 0 success (diff: identical), 1 usage/IO/corruption, 2 diff found
// divergence.

#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "src/core/cell_worker.h"
#include "src/util/ckpt.h"

namespace {

using presto::Checkpoint;

int Fail(const std::string& message) {
  std::fprintf(stderr, "presto_ckpt: %s\n", message.c_str());
  return 1;
}

bool ReadRaw(const std::string& path, std::vector<uint8_t>* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  out->assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  return true;
}

bool WriteRaw(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return false;
  }
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  return out.good();
}

int Info(const std::string& path) {
  auto ckpt = Checkpoint::ReadFile(path);
  if (!ckpt.ok()) {
    return Fail(path + ": " + ckpt.status().message());
  }
  size_t total = 0;
  std::map<int, size_t> per_cell;  // payload bytes under "cell<i>/"
  std::printf("%-32s %12s\n", "section", "bytes");
  for (const Checkpoint::Section& section : ckpt->sections()) {
    std::printf("%-32s %12zu\n", section.name.c_str(), section.payload.size());
    total += section.payload.size();
    const int cell = presto::CheckpointSectionCell(section.name);
    if (cell >= 0) {
      per_cell[cell] += section.payload.size();
    }
  }
  // A worker's restore payload is the sum over the cells it hosts.
  if (!per_cell.empty()) {
    std::printf("%-32s %12s\n", "cell", "bytes");
    for (const auto& [cell, bytes] : per_cell) {
      std::printf("%-32s %12zu\n", ("cell" + std::to_string(cell)).c_str(), bytes);
    }
    if (const std::vector<uint8_t>* fed = ckpt->Find("fed")) {
      std::printf("%-32s %12zu\n", "fed", fed->size());
    }
  }
  std::printf("%zu sections, %zu payload bytes, digest %016llx\n",
              ckpt->sections().size(), total,
              static_cast<unsigned long long>(ckpt->Digest()));
  return 0;
}

int Verify(const std::string& path) {
  // ReadFile decodes the full container: every section checksum is verified and a
  // corrupted section fails the decode with its name in the status message.
  auto ckpt = Checkpoint::ReadFile(path);
  if (!ckpt.ok()) {
    return Fail(path + ": " + ckpt.status().message());
  }
  std::printf("%s: ok (%zu sections, digest %016llx)\n", path.c_str(),
              ckpt->sections().size(),
              static_cast<unsigned long long>(ckpt->Digest()));
  return 0;
}

int Diff(const std::string& path_a, const std::string& path_b) {
  auto a = Checkpoint::ReadFile(path_a);
  if (!a.ok()) {
    return Fail(path_a + ": " + a.status().message());
  }
  auto b = Checkpoint::ReadFile(path_b);
  if (!b.ok()) {
    return Fail(path_b + ": " + b.status().message());
  }
  const std::vector<std::string> divergent = a->DivergentSections(*b);
  if (divergent.empty()) {
    std::printf("identical (digest %016llx)\n",
                static_cast<unsigned long long>(a->Digest()));
    return 0;
  }
  std::printf("first divergent section: %s\n", divergent.front().c_str());
  if (divergent.size() > 1) {
    std::printf("all divergent sections (%zu):\n", divergent.size());
    for (const std::string& name : divergent) {
      std::printf("  %s\n", name.c_str());
    }
  }
  return 2;
}

int Delta(const std::string& base_path, const std::string& target_path,
          const std::string& out_path) {
  auto base = Checkpoint::ReadFile(base_path);
  if (!base.ok()) {
    return Fail(base_path + ": " + base.status().message());
  }
  auto target = Checkpoint::ReadFile(target_path);
  if (!target.ok()) {
    return Fail(target_path + ": " + target.status().message());
  }
  const std::vector<uint8_t> diff = target->EncodeDiffFrom(*base);
  if (!WriteRaw(out_path, diff)) {
    return Fail("cannot write " + out_path);
  }
  std::printf("%s: %zu bytes (base digest %016llx -> target digest %016llx)\n",
              out_path.c_str(), diff.size(),
              static_cast<unsigned long long>(base->Digest()),
              static_cast<unsigned long long>(target->Digest()));
  return 0;
}

int Apply(const std::string& base_path, const std::string& delta_path,
          const std::string& out_path) {
  auto base = Checkpoint::ReadFile(base_path);
  if (!base.ok()) {
    return Fail(base_path + ": " + base.status().message());
  }
  std::vector<uint8_t> delta;
  if (!ReadRaw(delta_path, &delta)) {
    return Fail("cannot read " + delta_path);
  }
  auto target =
      Checkpoint::ApplyDiff(*base, presto::span<const uint8_t>(delta));
  if (!target.ok()) {
    return Fail(delta_path + ": " + target.status().message());
  }
  const presto::Status written = target->WriteFile(out_path);
  if (!written.ok()) {
    return Fail(out_path + ": " + written.message());
  }
  std::printf("%s: %zu sections, digest %016llx\n", out_path.c_str(),
              target->sections().size(),
              static_cast<unsigned long long>(target->Digest()));
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: presto_ckpt info <file>     (sections, per-cell totals)\n"
               "       presto_ckpt verify <file>\n"
               "       presto_ckpt diff <a> <b>\n"
               "       presto_ckpt delta <base> <target> <out>\n"
               "       presto_ckpt apply <base> <delta> <out>\n");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string command = argc >= 2 ? argv[1] : "";
  if (command == "info" && argc == 3) {
    return Info(argv[2]);
  }
  if (command == "verify" && argc == 3) {
    return Verify(argv[2]);
  }
  if (command == "diff" && argc == 4) {
    return Diff(argv[2], argv[3]);
  }
  if (command == "delta" && argc == 5) {
    return Delta(argv[2], argv[3], argv[4]);
  }
  if (command == "apply" && argc == 5) {
    return Apply(argv[2], argv[3], argv[4]);
  }
  return Usage();
}
