// Versioned checkpoint container + generic state codec.
//
// A Checkpoint is an ordered list of named byte sections, one per subsystem
// ("cell0/sim", "cell0/proxy/3", "fed", ...). Each section carries an FNV-1a checksum
// over its payload; Decode verifies every checksum before returning, so a corrupted
// file can never partially restore — the error names the first bad section. On top of
// full snapshots the container supports barrier-to-barrier diffs: EncodeDiffFrom emits
// only the sections whose bytes changed against a base checkpoint (plus removals), and
// ApplyDiff overlays them back, with the base's digest pinned in the diff header so a
// diff can never be applied to the wrong base.
//
// CkptWrite/CkptRead are the generic field codecs subsystems compose their
// SaveState/LoadState from: varint integers (zigzag when signed), fixed-width floats
// (state must round-trip exactly — never re-quantize through the lossy wire formats),
// strings, and recursively the standard containers. All reads are bounds-checked
// through ByteReader; a truncated section is an error, never UB.

#ifndef SRC_UTIL_CKPT_H_
#define SRC_UTIL_CKPT_H_

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/util/bytes.h"
#include "src/util/hash.h"
#include "src/util/result.h"
#include "src/util/rng.h"
#include "src/util/sample.h"
#include "src/util/span.h"
#include "src/util/stats.h"

namespace presto {

// FNV-1a over raw bytes — the per-section checksum.
inline uint64_t CkptChecksum(span<const uint8_t> bytes) {
  uint64_t fp = kFnvOffsetBasis;
  for (const uint8_t b : bytes) {
    fp = (fp ^ b) * kFnvPrime;
  }
  return fp;
}

// ---------------------------------------------------------------------------
// Generic field codec. CkptWrite(w, v) appends; CkptRead(r, v) parses into v and
// returns a Status (bounds-checked, propagate with CKPT_READ).
// ---------------------------------------------------------------------------

inline void CkptWrite(ByteWriter& w, bool v) { w.WriteU8(v ? 1 : 0); }
// A bool is one byte, 0 or 1; any other byte is data loss.
inline Status CkptRead(ByteReader& r, bool& v) {
  auto byte = r.ReadU8();
  if (!byte.ok()) {
    return byte.status();
  }
  if (*byte > 1) {
    return DataLossError("ckpt: bool byte " + std::to_string(*byte) + " is not 0 or 1");
  }
  v = (*byte != 0);
  return OkStatus();
}

template <typename T,
          std::enable_if_t<std::is_integral_v<T> && !std::is_same_v<T, bool> &&
                               std::is_unsigned_v<T>,
                           int> = 0>
void CkptWrite(ByteWriter& w, T v) {
  w.WriteVarU64(static_cast<uint64_t>(v));
}
// Integer and enum reads refuse a varint the field's type cannot hold: it is data
// loss, never a silently wrapped value (varint 257 must not restore a uint8_t as 1).
template <typename T,
          std::enable_if_t<std::is_integral_v<T> && !std::is_same_v<T, bool> &&
                               std::is_unsigned_v<T>,
                           int> = 0>
Status CkptRead(ByteReader& r, T& v) {
  auto raw = r.ReadVarU64();
  if (!raw.ok()) {
    return raw.status();
  }
  if (static_cast<uint64_t>(static_cast<T>(*raw)) != *raw) {
    return DataLossError("ckpt: value " + std::to_string(*raw) + " overflows its field");
  }
  v = static_cast<T>(*raw);
  return OkStatus();
}

template <typename T,
          std::enable_if_t<std::is_integral_v<T> && std::is_signed_v<T>, int> = 0>
void CkptWrite(ByteWriter& w, T v) {
  w.WriteVarI64(static_cast<int64_t>(v));
}
template <typename T,
          std::enable_if_t<std::is_integral_v<T> && std::is_signed_v<T>, int> = 0>
Status CkptRead(ByteReader& r, T& v) {
  auto raw = r.ReadVarI64();
  if (!raw.ok()) {
    return raw.status();
  }
  if (static_cast<int64_t>(static_cast<T>(*raw)) != *raw) {
    return DataLossError("ckpt: value " + std::to_string(*raw) + " overflows its field");
  }
  v = static_cast<T>(*raw);
  return OkStatus();
}

template <typename E, std::enable_if_t<std::is_enum_v<E>, int> = 0>
void CkptWrite(ByteWriter& w, E v) {
  w.WriteVarU64(static_cast<uint64_t>(static_cast<std::underlying_type_t<E>>(v)));
}
// An enum reads as its underlying type, under the same overflow rule, and must
// then name an enumerator: every serialized enum declares, next to its
// definition, `constexpr bool CkptEnumValid(E v)` (its range, found by ADL).
template <typename E, std::enable_if_t<std::is_enum_v<E>, int> = 0>
Status CkptRead(ByteReader& r, E& v) {
  using U = std::underlying_type_t<E>;
  auto raw = r.ReadVarU64();
  if (!raw.ok()) {
    return raw.status();
  }
  if (static_cast<uint64_t>(static_cast<U>(*raw)) != *raw) {
    return DataLossError("ckpt: value " + std::to_string(*raw) + " overflows its field");
  }
  const E e = static_cast<E>(static_cast<U>(*raw));
  if (!CkptEnumValid(e)) {
    return DataLossError("ckpt: value " + std::to_string(*raw) + " names no enumerator");
  }
  v = e;
  return OkStatus();
}

inline void CkptWrite(ByteWriter& w, float v) { w.WriteF32(v); }
inline Status CkptRead(ByteReader& r, float& v) {
  auto raw = r.ReadF32();
  if (!raw.ok()) {
    return raw.status();
  }
  v = *raw;
  return OkStatus();
}

inline void CkptWrite(ByteWriter& w, double v) { w.WriteF64(v); }
inline Status CkptRead(ByteReader& r, double& v) {
  auto raw = r.ReadF64();
  if (!raw.ok()) {
    return raw.status();
  }
  v = *raw;
  return OkStatus();
}

inline void CkptWrite(ByteWriter& w, const std::string& v) { w.WriteString(v); }
inline Status CkptRead(ByteReader& r, std::string& v) {
  auto raw = r.ReadString();
  if (!raw.ok()) {
    return raw.status();
  }
  v = std::move(*raw);
  return OkStatus();
}

// Status round-trips by (code, message) — codes outside the enum are data loss.
inline void CkptWrite(ByteWriter& w, const Status& v) {
  w.WriteVarU64(static_cast<uint64_t>(v.code()));
  w.WriteString(v.message());
}
inline Status CkptRead(ByteReader& r, Status& v) {
  auto code = r.ReadVarU64();
  if (!code.ok()) {
    return code.status();
  }
  if (*code > static_cast<uint64_t>(StatusCode::kInternal)) {
    return DataLossError("ckpt: status code out of range");
  }
  std::string message;
  PRESTO_RETURN_IF_ERROR(CkptRead(r, message));
  v = Status(static_cast<StatusCode>(*code), std::move(message));
  return OkStatus();
}

inline void CkptWrite(ByteWriter& w, const std::vector<uint8_t>& v) {
  w.WriteBytes(span<const uint8_t>(v));
}
inline Status CkptRead(ByteReader& r, std::vector<uint8_t>& v) {
  auto raw = r.ReadBytes();
  if (!raw.ok()) {
    return raw.status();
  }
  v = std::move(*raw);
  return OkStatus();
}

// Exact generator state (PCG state + increment + the Box-Muller cache).
inline void CkptWrite(ByteWriter& w, const Pcg32& rng) {
  const Pcg32::State s = rng.SaveState();
  w.WriteU64(s.state);
  w.WriteU64(s.inc);
  CkptWrite(w, s.has_cached_gaussian);
  w.WriteF64(s.cached_gaussian);
}
inline Status CkptRead(ByteReader& r, Pcg32& rng) {
  Pcg32::State s;
  auto state = r.ReadU64();
  if (!state.ok()) {
    return state.status();
  }
  auto inc = r.ReadU64();
  if (!inc.ok()) {
    return inc.status();
  }
  s.state = *state;
  s.inc = *inc;
  PRESTO_RETURN_IF_ERROR(CkptRead(r, s.has_cached_gaussian));
  auto cached = r.ReadF64();
  if (!cached.ok()) {
    return cached.status();
  }
  s.cached_gaussian = *cached;
  rng.LoadState(s);
  return OkStatus();
}

// Exact raw samples; the lazily-sorted order is presentation state, not data.
inline void CkptWrite(ByteWriter& w, const SampleSet& s) {
  w.WriteVarU64(s.samples().size());
  for (const double x : s.samples()) {
    w.WriteF64(x);
  }
}
inline Status CkptRead(ByteReader& r, SampleSet& s) {
  auto count = r.ReadVarU64();
  if (!count.ok()) {
    return count.status();
  }
  if (*count > r.remaining()) {
    return DataLossError("ckpt: sample-set length exceeds section bytes");
  }
  s = SampleSet();
  s.Reserve(static_cast<size_t>(*count));
  for (uint64_t i = 0; i < *count; ++i) {
    auto x = r.ReadF64();
    if (!x.ok()) {
      return x.status();
    }
    s.Add(*x);
  }
  return OkStatus();
}

inline void CkptWrite(ByteWriter& w, const Sample& s) {
  CkptWrite(w, s.t);
  w.WriteF64(s.value);
}
inline Status CkptRead(ByteReader& r, Sample& s) {
  PRESTO_RETURN_IF_ERROR(CkptRead(r, s.t));
  auto value = r.ReadF64();
  if (!value.ok()) {
    return value.status();
  }
  s.value = *value;
  return OkStatus();
}

inline void CkptWrite(ByteWriter& w, const TimeInterval& v) {
  CkptWrite(w, v.start);
  CkptWrite(w, v.end);
}
inline Status CkptRead(ByteReader& r, TimeInterval& v) {
  PRESTO_RETURN_IF_ERROR(CkptRead(r, v.start));
  PRESTO_RETURN_IF_ERROR(CkptRead(r, v.end));
  return OkStatus();
}

template <typename A, typename B>
void CkptWrite(ByteWriter& w, const std::pair<A, B>& v) {
  CkptWrite(w, v.first);
  CkptWrite(w, v.second);
}
template <typename A, typename B>
Status CkptRead(ByteReader& r, std::pair<A, B>& v) {
  PRESTO_RETURN_IF_ERROR(CkptRead(r, v.first));
  PRESTO_RETURN_IF_ERROR(CkptRead(r, v.second));
  return OkStatus();
}

template <typename T>
void CkptWrite(ByteWriter& w, const std::vector<T>& v) {
  w.WriteVarU64(v.size());
  for (const T& item : v) {
    CkptWrite(w, item);
  }
}
template <typename T>
Status CkptRead(ByteReader& r, std::vector<T>& v) {
  auto count = r.ReadVarU64();
  if (!count.ok()) {
    return count.status();
  }
  if (*count > r.remaining()) {  // every element costs >= 1 byte
    return DataLossError("ckpt: vector length exceeds section bytes");
  }
  v.clear();
  v.reserve(static_cast<size_t>(*count));
  for (uint64_t i = 0; i < *count; ++i) {
    T item{};
    PRESTO_RETURN_IF_ERROR(CkptRead(r, item));
    v.push_back(std::move(item));
  }
  return OkStatus();
}

template <typename T>
void CkptWrite(ByteWriter& w, const std::deque<T>& v) {
  w.WriteVarU64(v.size());
  for (const T& item : v) {
    CkptWrite(w, item);
  }
}
template <typename T>
Status CkptRead(ByteReader& r, std::deque<T>& v) {
  auto count = r.ReadVarU64();
  if (!count.ok()) {
    return count.status();
  }
  if (*count > r.remaining()) {
    return DataLossError("ckpt: deque length exceeds section bytes");
  }
  v.clear();
  for (uint64_t i = 0; i < *count; ++i) {
    T item{};
    PRESTO_RETURN_IF_ERROR(CkptRead(r, item));
    v.push_back(std::move(item));
  }
  return OkStatus();
}

template <typename T, size_t N>
void CkptWrite(ByteWriter& w, const std::array<T, N>& v) {
  for (const T& item : v) {
    CkptWrite(w, item);
  }
}
template <typename T, size_t N>
Status CkptRead(ByteReader& r, std::array<T, N>& v) {
  for (size_t i = 0; i < N; ++i) {
    PRESTO_RETURN_IF_ERROR(CkptRead(r, v[i]));
  }
  return OkStatus();
}

template <typename K, typename V>
void CkptWrite(ByteWriter& w, const std::map<K, V>& v) {
  w.WriteVarU64(v.size());
  for (const auto& [key, value] : v) {
    CkptWrite(w, key);
    CkptWrite(w, value);
  }
}
template <typename K, typename V>
Status CkptRead(ByteReader& r, std::map<K, V>& v) {
  auto count = r.ReadVarU64();
  if (!count.ok()) {
    return count.status();
  }
  if (*count > r.remaining()) {
    return DataLossError("ckpt: map length exceeds section bytes");
  }
  v.clear();
  for (uint64_t i = 0; i < *count; ++i) {
    K key{};
    V value{};
    PRESTO_RETURN_IF_ERROR(CkptRead(r, key));
    PRESTO_RETURN_IF_ERROR(CkptRead(r, value));
    v.emplace(std::move(key), std::move(value));
  }
  return OkStatus();
}

// ---------------------------------------------------------------------------
// Field lists. A serialized struct names its fields once, in wire order, and the
// one list drives both directions:
//
//   template <class S, class F, CkptSelf<S, Foo> = 0>
//   void CkptFields(S& v, F&& f) { f(v.a); f(v.b); }
//
// S deduces to `const Foo` when writing and to `Foo` when reading, and the
// CkptWrite/CkptRead overloads below pick the list up (by ADL) for Foo and for
// every container of Foo. A class's own state keeps its list in a private static
// member templated on Self the same way, run by SaveState with a CkptWriter and by
// LoadState with a CkptReader.
// ---------------------------------------------------------------------------

template <typename S, typename T>
using CkptSelf = std::enable_if_t<std::is_same_v<std::remove_const_t<S>, T>, int>;

// The write direction of a field list.
class CkptWriter {
 public:
  explicit CkptWriter(ByteWriter& w) : w_(w) {}
  template <typename T>
  void operator()(const T& v) const {
    CkptWrite(w_, v);
  }

 private:
  ByteWriter& w_;
};

// The read direction: reads fields until the first failure, which status() keeps;
// the fields after it are left alone.
class CkptReader {
 public:
  explicit CkptReader(ByteReader& r) : r_(r) {}
  // Forwarding, so a field may also be a read adapter built in the list. Out of
  // line, so every list shares one body per field type instead of inlining the
  // Status handling into each field of each list.
  template <typename T>
  [[gnu::noinline]] void operator()(T&& v) {
    if (status_.ok()) {
      status_ = CkptRead(r_, v);
    }
  }
  const Status& status() const { return status_; }

 private:
  ByteReader& r_;
  Status status_;
};

template <typename T>
auto CkptWrite(ByteWriter& w, const T& v)
    -> decltype(CkptFields(v, std::declval<CkptWriter&>())) {
  CkptFields(v, CkptWriter(w));
}
template <typename T>
auto CkptRead(ByteReader& r, T& v)
    -> decltype(CkptFields(v, std::declval<CkptReader&>()), Status()) {
  CkptReader in(r);
  CkptFields(v, in);
  return in.status();
}

// ---------------------------------------------------------------------------
// Field adapters. A field whose bytes are not its type's generic codec — the radio,
// flash-page and handshake layouts — is wrapped where its list names it,
// `f(CkptFixed(v.seq))`, and the one wrapper drives both directions:
//   CkptFixed(x)    a fixed-width little-endian integer, ByteWriter::WriteU8..U64's
//                   bytes (an int64_t is its two's-complement bits, as WriteI64);
//   CkptF32(x)      a double carried as f32 (rounded on write, widened on read);
//   CkptVarBits(x)  a 64-bit signed integer as the unsigned varint of its bits.
// ---------------------------------------------------------------------------

enum class CkptForm { kFixed, kF32, kVarBits };

template <CkptForm kForm, typename T>
struct CkptAs {
  T& v;
};
template <typename T>
CkptAs<CkptForm::kFixed, T> CkptFixed(T& v) {
  return {v};
}
template <typename T>
CkptAs<CkptForm::kF32, T> CkptF32(T& v) {
  return {v};
}
template <typename T>
CkptAs<CkptForm::kVarBits, T> CkptVarBits(T& v) {
  return {v};
}

template <CkptForm kForm, typename T>
void CkptWrite(ByteWriter& w, const CkptAs<kForm, const T>& a) {
  if constexpr (kForm == CkptForm::kF32) {
    static_assert(std::is_same_v<T, double>, "CkptF32 carries a double");
    w.WriteF32(static_cast<float>(a.v));
  } else {
    static_assert(std::is_integral_v<T>, "fixed and bit forms carry integers");
    using U = std::make_unsigned_t<T>;
    const U bits = static_cast<U>(a.v);
    if constexpr (kForm == CkptForm::kVarBits) {
      static_assert(sizeof(T) == 8, "CkptVarBits carries 64-bit values");
      w.WriteVarU64(bits);
    } else if constexpr (sizeof(T) == 1) {
      w.WriteU8(bits);
    } else if constexpr (sizeof(T) == 2) {
      w.WriteU16(bits);
    } else if constexpr (sizeof(T) == 4) {
      w.WriteU32(bits);
    } else {
      w.WriteU64(bits);
    }
  }
}
template <CkptForm kForm, typename T>
Status CkptRead(ByteReader& r, const CkptAs<kForm, T>& a) {
  auto raw = [&r] {
    if constexpr (kForm == CkptForm::kF32) {
      return r.ReadF32();
    } else if constexpr (kForm == CkptForm::kVarBits) {
      return r.ReadVarU64();
    } else if constexpr (sizeof(T) == 1) {
      return r.ReadU8();
    } else if constexpr (sizeof(T) == 2) {
      return r.ReadU16();
    } else if constexpr (sizeof(T) == 4) {
      return r.ReadU32();
    } else {
      return r.ReadU64();
    }
  }();
  if (!raw.ok()) {
    return raw.status();
  }
  a.v = static_cast<T>(*raw);
  return OkStatus();
}

// An object with its own SaveState/LoadState nests as one field.
template <typename T>
auto CkptWrite(ByteWriter& w, const T& v)
    -> std::enable_if_t<std::is_void_v<decltype(v.SaveState(w))>> {
  v.SaveState(w);
}
template <typename T>
auto CkptRead(ByteReader& r, T& v) -> decltype(v.LoadState(r)) {
  return v.LoadState(r);
}

// Propagates a failed CkptRead out of a Status-returning LoadState.
#define CKPT_READ(reader, field) \
  PRESTO_RETURN_IF_ERROR(::presto::CkptRead((reader), (field)))

// ---------------------------------------------------------------------------
// Checkpoint container.
// ---------------------------------------------------------------------------

class Checkpoint {
 public:
  struct Section {
    std::string name;
    std::vector<uint8_t> payload;
  };

  // Current (and only) on-disk format version. Decode rejects other versions: the
  // compat rule is "same version or re-simulate" — checkpoints are replay artifacts,
  // not archival data, so no cross-version migration is attempted. v2: the
  // federation "fed" section moved to the process-seam layout (per-cell FedCell
  // blobs under "cell<i>/fed", payload-carrying trunk mail, cell-down bitmap).
  // v3: AR model state drops the derived horizon_std table (rebuilt on demand).
  // v4: the simulator's "sim" section drops its engine-mode and first-schedule
  // flags (one engine, lane count fixed at construction) and its epoch cap and
  // lookahead (the epoch is the lookahead).
  static constexpr uint32_t kVersion = 4;

  // Appends (or replaces) a named section.
  void Add(const std::string& name, std::vector<uint8_t> payload);

  // The section payload, or nullptr when absent.
  const std::vector<uint8_t>* Find(const std::string& name) const;

  const std::vector<Section>& sections() const { return sections_; }

  // Order-sensitive digest over every (name, checksum) — identifies a checkpoint for
  // diff base pinning and quick equality checks.
  uint64_t Digest() const;

  // Moves every section out (in order), leaving the checkpoint empty — how a
  // composer splices sections into another checkpoint without copying them.
  std::vector<Section> TakeSections();

  // Picks sections by name for a partial encode; an empty filter keeps all.
  using SectionFilter = std::function<bool(const std::string& name)>;

  // Full snapshot framing: "PCK1" magic, version, section table with per-section
  // FNV checksums. With `keep`, only the sections it accepts, in section order —
  // byte for byte what Encode() gives for a checkpoint holding just those. The
  // result is one allocation of exactly EncodedSize(keep) bytes.
  std::vector<uint8_t> Encode(const SectionFilter& keep = nullptr) const;
  size_t EncodedSize(const SectionFilter& keep = nullptr) const;
  // Appends Encode(keep)'s bytes to `w` — to frame a checkpoint inside a larger
  // message without an intermediate buffer.
  void EncodeTo(ByteWriter& w, const SectionFilter& keep = nullptr) const;

  // Parses and verifies a full snapshot. Every section checksum is checked before any
  // state is handed back — a corrupted section fails the whole decode with its name.
  static Result<Checkpoint> Decode(span<const uint8_t> data);

  // Diff framing: "PCKD" magic, base digest, removed section names, changed/added
  // sections. Applying the result to `base` reproduces *this exactly.
  std::vector<uint8_t> EncodeDiffFrom(const Checkpoint& base) const;

  // Overlays a diff onto its base (digest-checked), returning the target checkpoint.
  static Result<Checkpoint> ApplyDiff(const Checkpoint& base, span<const uint8_t> diff);

  // Section names whose payloads differ (or that exist on only one side), in this
  // checkpoint's section order followed by sections only `other` has. The first entry
  // is the first divergent subsystem in save order — the bisect starting point.
  std::vector<std::string> DivergentSections(const Checkpoint& other) const;

  Status WriteFile(const std::string& path) const;
  static Result<Checkpoint> ReadFile(const std::string& path);

 private:
  std::vector<Section> sections_;
  std::map<std::string, size_t> index_;
};

}  // namespace presto

#endif  // SRC_UTIL_CKPT_H_
