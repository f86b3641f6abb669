#include "src/util/ckpt.h"

#include <cstdio>
#include <utility>

namespace presto {
namespace {

constexpr uint32_t kSnapshotMagic = 0x314b4350;  // "PCK1" little-endian
constexpr uint32_t kDiffMagic = 0x444b4350;      // "PCKD" little-endian

bool Keeps(const Checkpoint::SectionFilter& keep, const std::string& name) {
  return keep == nullptr || keep(name);
}

}  // namespace

void CkptRefuse(ByteReader& r, uint64_t raw, const char* what) {
  r.Fail(DataLossError("ckpt: value " + std::to_string(raw) + " " + what));
}

void CkptRefuse(ByteReader& r, int64_t raw, const char* what) {
  r.Fail(DataLossError("ckpt: value " + std::to_string(raw) + " " + what));
}

void CkptRefuseBool(ByteReader& r, uint8_t byte) {
  r.Fail(DataLossError("ckpt: bool byte " + std::to_string(byte) + " is not 0 or 1"));
}

void CkptRefuseCount(ByteReader& r, const char* what) {
  r.Fail(DataLossError(std::string("ckpt: ") + what + " length exceeds section bytes"));
}

void CkptRead(ByteReader& r, Status& v) {
  const uint64_t code = r.ReadVarU64();
  if (code > static_cast<uint64_t>(StatusCode::kInternal)) {
    return r.Fail(DataLossError("ckpt: status code out of range"));
  }
  std::string message = r.ReadString();
  CkptSet(r, v, Status(static_cast<StatusCode>(code), std::move(message)));
}

void CkptRead(ByteReader& r, Pcg32& rng) {
  Pcg32::State s;
  s.state = r.ReadU64();
  s.inc = r.ReadU64();
  CkptRead(r, s.has_cached_gaussian);
  s.cached_gaussian = r.ReadF64();
  if (r.ok()) {
    rng.LoadState(s);
  }
}

void CkptRead(ByteReader& r, SampleSet& s) {
  const uint64_t count = CkptReadCount(r, "sample-set");
  if (!r.ok()) {
    return;
  }
  s = SampleSet();
  s.Reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    const double x = r.ReadF64();
    if (!r.ok()) {
      return;
    }
    s.Add(x);
  }
}

void Checkpoint::Add(const std::string& name, std::vector<uint8_t> payload) {
  auto it = index_.find(name);
  if (it != index_.end()) {
    sections_[it->second].payload = std::move(payload);
    return;
  }
  index_[name] = sections_.size();
  sections_.push_back(Section{name, std::move(payload)});
}

const std::vector<uint8_t>* Checkpoint::Find(const std::string& name) const {
  auto it = index_.find(name);
  if (it == index_.end()) {
    return nullptr;
  }
  return &sections_[it->second].payload;
}

uint64_t Checkpoint::Digest() const {
  uint64_t fp = kFnvOffsetBasis;
  for (const Section& s : sections_) {
    for (const char c : s.name) {
      fp = (fp ^ static_cast<uint8_t>(c)) * kFnvPrime;
    }
    FnvMix(fp, CkptChecksum(span<const uint8_t>(s.payload)));
  }
  return fp;
}

std::vector<Checkpoint::Section> Checkpoint::TakeSections() {
  index_.clear();
  return std::exchange(sections_, {});
}

size_t Checkpoint::EncodedSize(const SectionFilter& keep) const {
  size_t count = 0;
  size_t bytes = 4 + 4;  // magic, version
  for (const Section& s : sections_) {
    if (Keeps(keep, s.name)) {
      ++count;
      bytes += static_cast<size_t>(VarU64Bytes(s.name.size())) + s.name.size() +
               static_cast<size_t>(VarU64Bytes(s.payload.size())) + s.payload.size() +
               8;  // checksum
    }
  }
  return bytes + static_cast<size_t>(VarU64Bytes(count));
}

void Checkpoint::EncodeTo(ByteWriter& w, const SectionFilter& keep) const {
  size_t count = 0;
  for (const Section& s : sections_) {
    count += Keeps(keep, s.name) ? 1 : 0;
  }
  w.WriteU32(kSnapshotMagic);
  w.WriteU32(kVersion);
  w.WriteVarU64(count);
  for (const Section& s : sections_) {
    if (Keeps(keep, s.name)) {
      w.WriteString(s.name);
      w.WriteBytes(span<const uint8_t>(s.payload));
      w.WriteU64(CkptChecksum(span<const uint8_t>(s.payload)));
    }
  }
}

std::vector<uint8_t> Checkpoint::Encode(const SectionFilter& keep) const {
  ByteWriter w;
  w.Reserve(EncodedSize(keep));
  EncodeTo(w, keep);
  return w.TakeBuffer();
}

Result<Checkpoint> Checkpoint::Decode(span<const uint8_t> data) {
  ByteReader r(data);
  if (r.ReadU32() != kSnapshotMagic) {
    return DataLossError("ckpt: bad snapshot magic");
  }
  const uint32_t version = r.ReadU32();
  if (r.ok() && version != kVersion) {
    return InvalidArgumentError("ckpt: unsupported version " + std::to_string(version));
  }
  const uint64_t count = r.ReadVarU64();
  Checkpoint out;
  for (uint64_t i = 0; i < count && r.ok(); ++i) {
    std::string name = r.ReadString();
    // Verified in place: only a good payload is copied out of `data`.
    const span<const uint8_t> payload = r.ReadByteSpan();
    const uint64_t checksum = r.ReadU64();
    if (r.ok() && CkptChecksum(payload) != checksum) {
      return DataLossError("ckpt: checksum mismatch in section '" + name + "'");
    }
    out.Add(name, std::vector<uint8_t>(payload.begin(), payload.end()));
  }
  if (!r.ok()) {
    return r.status();
  }
  return out;
}

std::vector<uint8_t> Checkpoint::EncodeDiffFrom(const Checkpoint& base) const {
  ByteWriter w;
  w.WriteU32(kDiffMagic);
  w.WriteU32(kVersion);
  w.WriteU64(base.Digest());
  std::vector<std::string> removed;
  for (const Section& s : base.sections_) {
    if (Find(s.name) == nullptr) {
      removed.push_back(s.name);
    }
  }
  w.WriteVarU64(removed.size());
  for (const std::string& name : removed) {
    w.WriteString(name);
  }
  std::vector<const Section*> changed;
  for (const Section& s : sections_) {
    const std::vector<uint8_t>* old = base.Find(s.name);
    if (old == nullptr || *old != s.payload) {
      changed.push_back(&s);
    }
  }
  w.WriteVarU64(changed.size());
  for (const Section* s : changed) {
    w.WriteString(s->name);
    w.WriteBytes(span<const uint8_t>(s->payload));
    w.WriteU64(CkptChecksum(span<const uint8_t>(s->payload)));
  }
  return w.TakeBuffer();
}

Result<Checkpoint> Checkpoint::ApplyDiff(const Checkpoint& base,
                                         span<const uint8_t> diff) {
  ByteReader r(diff);
  if (r.ReadU32() != kDiffMagic) {
    return DataLossError("ckpt: bad diff magic");
  }
  const uint32_t version = r.ReadU32();
  if (r.ok() && version != kVersion) {
    return InvalidArgumentError("ckpt: unsupported diff version " +
                                std::to_string(version));
  }
  const uint64_t base_digest = r.ReadU64();
  if (r.ok() && base_digest != base.Digest()) {
    return FailedPreconditionError("ckpt: diff base digest mismatch");
  }
  const uint64_t removed_count = r.ReadVarU64();
  std::map<std::string, bool> removed;
  for (uint64_t i = 0; i < removed_count && r.ok(); ++i) {
    removed[r.ReadString()] = true;
  }
  if (!r.ok()) {
    return r.status();
  }
  Checkpoint out;
  for (const Section& s : base.sections_) {
    if (removed.count(s.name) == 0) {
      out.Add(s.name, s.payload);
    }
  }
  const uint64_t changed_count = r.ReadVarU64();
  for (uint64_t i = 0; i < changed_count && r.ok(); ++i) {
    std::string name = r.ReadString();
    std::vector<uint8_t> payload = r.ReadBytes();
    const uint64_t checksum = r.ReadU64();
    if (r.ok() && CkptChecksum(span<const uint8_t>(payload)) != checksum) {
      return DataLossError("ckpt: checksum mismatch in diff section '" + name + "'");
    }
    out.Add(name, std::move(payload));
  }
  if (!r.ok()) {
    return r.status();
  }
  return out;
}

std::vector<std::string> Checkpoint::DivergentSections(const Checkpoint& other) const {
  std::vector<std::string> out;
  for (const Section& s : sections_) {
    const std::vector<uint8_t>* theirs = other.Find(s.name);
    if (theirs == nullptr || *theirs != s.payload) {
      out.push_back(s.name);
    }
  }
  for (const Section& s : other.sections_) {
    if (Find(s.name) == nullptr) {
      out.push_back(s.name);
    }
  }
  return out;
}

Status Checkpoint::WriteFile(const std::string& path) const {
  const std::vector<uint8_t> bytes = Encode();
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return UnavailableError("ckpt: cannot open '" + path + "' for writing");
  }
  const size_t written =
      bytes.empty() ? 0 : std::fwrite(bytes.data(), 1, bytes.size(), f);
  const int close_rc = std::fclose(f);
  if (written != bytes.size() || close_rc != 0) {
    return DataLossError("ckpt: short write to '" + path + "'");
  }
  return OkStatus();
}

Result<Checkpoint> Checkpoint::ReadFile(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return UnavailableError("ckpt: cannot open '" + path + "'");
  }
  std::vector<uint8_t> bytes;
  uint8_t buf[65536];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  std::fclose(f);
  return Decode(span<const uint8_t>(bytes));
}

}  // namespace presto
