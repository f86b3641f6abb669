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
// through ByteReader and follow its failure rule: a LoadState returns nothing, and the
// loader that owns a section checks the reader's status once — a truncated section is
// an error, never UB.

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
// Generic field codec. CkptWrite(w, v) appends; CkptRead(r, v) parses into v under
// ByteReader's failure rule: a read that fails (short bytes, or a value the field
// cannot take) fails the reader and leaves v as it was, and a read on a failed
// reader leaves v alone too. The owner of the bytes checks r.status() once.
// ---------------------------------------------------------------------------

// Sets `field` to a value just read from `r`, unless that read failed.
template <typename T, typename V>
void CkptSet(const ByteReader& r, T& field, V&& value) {
  if (r.ok()) {
    field = std::forward<V>(value);
  }
}

// Fails `r` with "ckpt: value <raw> <what>" — how a read refuses a decoded value.
void CkptRefuse(ByteReader& r, uint64_t raw, const char* what);
void CkptRefuse(ByteReader& r, int64_t raw, const char* what);

inline void CkptWrite(ByteWriter& w, bool v) { w.WriteU8(v ? 1 : 0); }
// A bool is one byte, 0 or 1; any other byte is data loss.
void CkptRefuseBool(ByteReader& r, uint8_t byte);
inline void CkptRead(ByteReader& r, bool& v) {
  const uint8_t byte = r.ReadU8();
  if (byte > 1) {
    return CkptRefuseBool(r, byte);
  }
  CkptSet(r, v, byte != 0);
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
void CkptRead(ByteReader& r, T& v) {
  const uint64_t raw = r.ReadVarU64();
  if (static_cast<uint64_t>(static_cast<T>(raw)) != raw) {
    return CkptRefuse(r, raw, "overflows its field");
  }
  CkptSet(r, v, static_cast<T>(raw));
}

template <typename T,
          std::enable_if_t<std::is_integral_v<T> && std::is_signed_v<T>, int> = 0>
void CkptWrite(ByteWriter& w, T v) {
  w.WriteVarI64(static_cast<int64_t>(v));
}
template <typename T,
          std::enable_if_t<std::is_integral_v<T> && std::is_signed_v<T>, int> = 0>
void CkptRead(ByteReader& r, T& v) {
  const int64_t raw = r.ReadVarI64();
  if (static_cast<int64_t>(static_cast<T>(raw)) != raw) {
    return CkptRefuse(r, raw, "overflows its field");
  }
  CkptSet(r, v, static_cast<T>(raw));
}

template <typename E, std::enable_if_t<std::is_enum_v<E>, int> = 0>
void CkptWrite(ByteWriter& w, E v) {
  w.WriteVarU64(static_cast<uint64_t>(static_cast<std::underlying_type_t<E>>(v)));
}
// An enum reads as its underlying type, under the same overflow rule, and must
// then name an enumerator: every serialized enum declares, next to its
// definition, `constexpr bool CkptEnumValid(E v)` (its range, found by ADL).
template <typename E, std::enable_if_t<std::is_enum_v<E>, int> = 0>
void CkptRead(ByteReader& r, E& v) {
  using U = std::underlying_type_t<E>;
  const uint64_t raw = r.ReadVarU64();
  if (static_cast<uint64_t>(static_cast<U>(raw)) != raw) {
    return CkptRefuse(r, raw, "overflows its field");
  }
  const E e = static_cast<E>(static_cast<U>(raw));
  if (!CkptEnumValid(e)) {
    return CkptRefuse(r, raw, "names no enumerator");
  }
  CkptSet(r, v, e);
}

inline void CkptWrite(ByteWriter& w, float v) { w.WriteF32(v); }
inline void CkptRead(ByteReader& r, float& v) { CkptSet(r, v, r.ReadF32()); }

inline void CkptWrite(ByteWriter& w, double v) { w.WriteF64(v); }
inline void CkptRead(ByteReader& r, double& v) { CkptSet(r, v, r.ReadF64()); }

inline void CkptWrite(ByteWriter& w, const std::string& v) { w.WriteString(v); }
inline void CkptRead(ByteReader& r, std::string& v) { CkptSet(r, v, r.ReadString()); }

// Status round-trips by (code, message) — codes outside the enum are data loss.
inline void CkptWrite(ByteWriter& w, const Status& v) {
  w.WriteVarU64(static_cast<uint64_t>(v.code()));
  w.WriteString(v.message());
}
void CkptRead(ByteReader& r, Status& v);

inline void CkptWrite(ByteWriter& w, const std::vector<uint8_t>& v) {
  w.WriteBytes(span<const uint8_t>(v));
}
inline void CkptRead(ByteReader& r, std::vector<uint8_t>& v) {
  CkptSet(r, v, r.ReadBytes());
}

// Exact generator state (PCG state + increment + the Box-Muller cache).
inline void CkptWrite(ByteWriter& w, const Pcg32& rng) {
  const Pcg32::State s = rng.SaveState();
  w.WriteU64(s.state);
  w.WriteU64(s.inc);
  CkptWrite(w, s.has_cached_gaussian);
  w.WriteF64(s.cached_gaussian);
}
void CkptRead(ByteReader& r, Pcg32& rng);

// Exact raw samples; the lazily-sorted order is presentation state, not data.
inline void CkptWrite(ByteWriter& w, const SampleSet& s) {
  w.WriteVarU64(s.samples().size());
  for (const double x : s.samples()) {
    w.WriteF64(x);
  }
}
void CkptRead(ByteReader& r, SampleSet& s);

inline void CkptWrite(ByteWriter& w, const Sample& s) {
  CkptWrite(w, s.t);
  w.WriteF64(s.value);
}
inline void CkptRead(ByteReader& r, Sample& s) {
  CkptRead(r, s.t);
  CkptRead(r, s.value);
}

inline void CkptWrite(ByteWriter& w, const TimeInterval& v) {
  CkptWrite(w, v.start);
  CkptWrite(w, v.end);
}
inline void CkptRead(ByteReader& r, TimeInterval& v) {
  CkptRead(r, v.start);
  CkptRead(r, v.end);
}

template <typename A, typename B>
void CkptWrite(ByteWriter& w, const std::pair<A, B>& v) {
  CkptWrite(w, v.first);
  CkptWrite(w, v.second);
}
template <typename A, typename B>
void CkptRead(ByteReader& r, std::pair<A, B>& v) {
  CkptRead(r, v.first);
  CkptRead(r, v.second);
}

// A container's element count, checked against the bytes left (every element costs
// at least one byte); 0 once the reader has failed. `what` names the container in
// the refusal: "ckpt: <what> length exceeds section bytes".
void CkptRefuseCount(ByteReader& r, const char* what);
inline uint64_t CkptReadCount(ByteReader& r, const char* what) {
  const uint64_t count = r.ReadVarU64();
  if (count > r.remaining()) {
    CkptRefuseCount(r, what);
    return 0;
  }
  return count;
}

template <typename T>
void CkptWrite(ByteWriter& w, const std::vector<T>& v) {
  w.WriteVarU64(v.size());
  for (const T& item : v) {
    CkptWrite(w, item);
  }
}
template <typename T>
void CkptRead(ByteReader& r, std::vector<T>& v) {
  const uint64_t count = CkptReadCount(r, "vector");
  if (!r.ok()) {
    return;
  }
  v.clear();
  v.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    T item{};
    CkptRead(r, item);
    if (!r.ok()) {
      return;
    }
    v.push_back(std::move(item));
  }
}

template <typename T>
void CkptWrite(ByteWriter& w, const std::deque<T>& v) {
  w.WriteVarU64(v.size());
  for (const T& item : v) {
    CkptWrite(w, item);
  }
}
template <typename T>
void CkptRead(ByteReader& r, std::deque<T>& v) {
  const uint64_t count = CkptReadCount(r, "deque");
  if (!r.ok()) {
    return;
  }
  v.clear();
  for (uint64_t i = 0; i < count; ++i) {
    T item{};
    CkptRead(r, item);
    if (!r.ok()) {
      return;
    }
    v.push_back(std::move(item));
  }
}

template <typename T, size_t N>
void CkptWrite(ByteWriter& w, const std::array<T, N>& v) {
  for (const T& item : v) {
    CkptWrite(w, item);
  }
}
template <typename T, size_t N>
void CkptRead(ByteReader& r, std::array<T, N>& v) {
  for (T& item : v) {
    CkptRead(r, item);
  }
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
void CkptRead(ByteReader& r, std::map<K, V>& v) {
  const uint64_t count = CkptReadCount(r, "map");
  if (!r.ok()) {
    return;
  }
  v.clear();
  for (uint64_t i = 0; i < count; ++i) {
    K key{};
    V value{};
    CkptRead(r, key);
    CkptRead(r, value);
    if (!r.ok()) {
      return;
    }
    v.emplace(std::move(key), std::move(value));
  }
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

// The read direction: each field reads under the reader's failure rule, so the
// fields after a failure are left alone.
class CkptReader {
 public:
  explicit CkptReader(ByteReader& r) : r_(r) {}
  // Forwarding, so a field may also be a read adapter built in the list.
  template <typename T>
  void operator()(T&& v) const {
    CkptRead(r_, v);
  }

 private:
  ByteReader& r_;
};

template <typename T>
auto CkptWrite(ByteWriter& w, const T& v)
    -> decltype(CkptFields(v, std::declval<CkptWriter&>())) {
  CkptFields(v, CkptWriter(w));
}
template <typename T>
auto CkptRead(ByteReader& r, T& v)
    -> decltype(CkptFields(v, std::declval<CkptReader&>())) {
  CkptFields(v, CkptReader(r));
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
void CkptRead(ByteReader& r, const CkptAs<kForm, T>& a) {
  const auto raw = [&r] {
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
  CkptSet(r, a.v, static_cast<T>(raw));
}

// An object with its own SaveState/LoadState nests as one field.
template <typename T>
auto CkptWrite(ByteWriter& w, const T& v)
    -> std::enable_if_t<std::is_void_v<decltype(v.SaveState(w))>> {
  v.SaveState(w);
}
template <typename T>
auto CkptRead(ByteReader& r, T& v) -> decltype(v.LoadState(r)) {
  v.LoadState(r);
}

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
