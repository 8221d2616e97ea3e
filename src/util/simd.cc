#include "util/simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "util/byte_class.h"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace sqlog {
namespace simd {
namespace {

// ---------------------------------------------------------------------------
// Scalar twins — the reference implementations every other level is
// differentially tested against. Byte-at-a-time over the class table.
// ---------------------------------------------------------------------------

size_t ScalarFindByte(std::string_view text, size_t pos, char needle) {
  while (pos < text.size() && text[pos] != needle) ++pos;
  return pos;
}

size_t ScalarFindLineSpecial(std::string_view text, size_t pos) {
  while (pos < text.size()) {
    char c = text[pos];
    if (c == '"' || c == '\r' || c == '\n') return pos;
    ++pos;
  }
  return pos;
}

// sqlog-lint: allow(R10 appends into the caller-owned output buffer, reused across statements; growth is amortized)
void ScalarAppendLowered(std::string_view text, std::string* out) {
  for (char c : text) out->push_back(ToLowerByte(c));
}

void ScalarBuildClassBitmaps(std::string_view text, uint64_t* space_bits,
                             uint64_t* ident_bits) {
  const char* data = text.data();
  size_t n = text.size();
  size_t words = (n + 63) >> 6;
  for (size_t w = 0; w < words; ++w) {
    size_t base = w << 6;
    size_t limit = n - base < 64 ? n - base : 64;
    uint64_t sp = 0;
    uint64_t id = 0;
    for (size_t k = 0; k < limit; ++k) {
      char c = data[base + k];
      sp |= static_cast<uint64_t>(IsSpaceByte(c)) << k;
      id |= static_cast<uint64_t>(IsIdentCharByte(c)) << k;
    }
    space_bits[w] = sp;
    ident_bits[w] = id;
  }
}

#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
#define SQLOG_SIMD_LITTLE_ENDIAN 1
#else
#define SQLOG_SIMD_LITTLE_ENDIAN 0
#endif

#if SQLOG_SIMD_LITTLE_ENDIAN

// ---------------------------------------------------------------------------
// SWAR level: 8-byte words, classification via exact per-byte bit math.
//
// The classic bit-twiddling haszero/hasless formulas are only exact up
// to the first matching byte (borrows contaminate higher bytes), which
// is fine for find-first-match but wrong for the class bitmaps, which
// need every lane's flag: a false positive after a real match would set
// the bit of a byte outside the class. These masks instead confine all
// carries inside each byte — add at most 0x7F to a 7-bit lane — so every
// lane is exact:
//   nonzero(t): ((t & ~H) + ~H) | t  has the high bit set iff t != 0.
// ---------------------------------------------------------------------------

constexpr uint64_t kLoBits = 0x0101010101010101ULL;
constexpr uint64_t kHiBits = 0x8080808080808080ULL;

inline uint64_t LoadWord(const char* p) {
  uint64_t w;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

/// 0x80 in each byte equal to n; exact in every lane.
inline uint64_t EqMask(uint64_t x, uint8_t n) {
  uint64_t t = x ^ (kLoBits * n);
  return ~((((t & ~kHiBits) + ~kHiBits) | t)) & kHiBits;
}

/// 0x80 in each byte within [lo, hi] (hi < 0x80); exact in every lane.
inline uint64_t RangeMask(uint64_t x, uint8_t lo, uint8_t hi) {
  uint64_t low7 = x & ~kHiBits;
  uint64_t ge = (low7 + kLoBits * static_cast<uint64_t>(0x80 - lo)) & kHiBits;
  uint64_t le = ~(low7 + kLoBits * static_cast<uint64_t>(0x7F - hi)) & kHiBits;
  return ge & le & ~(x & kHiBits);
}

inline uint64_t SpaceMask(uint64_t w) {
  return EqMask(w, ' ') | RangeMask(w, 0x09, 0x0D);
}

inline uint64_t IdentMask(uint64_t w) {
  return RangeMask(w, 'a', 'z') | RangeMask(w, 'A', 'Z') | RangeMask(w, '0', '9') |
         EqMask(w, '_') | EqMask(w, '$') | EqMask(w, '#');
}

/// Index of the first 0x80 flag (little-endian lane order).
inline size_t FirstFlag(uint64_t mask) {
  return static_cast<size_t>(__builtin_ctzll(mask)) >> 3;
}

/// Lexer spans handed to FindByte (quoted literals, comment bodies) are
/// usually a handful of bytes. Both vector levels scan a word-sized
/// prefix byte by byte first, so the short-span common case never pays
/// vector setup and the wide loop only runs on a real span.
constexpr size_t kSkipPrefix = 4;

size_t SwarFindByte(std::string_view text, size_t pos, char needle) {
  const char* data = text.data();
  size_t n = text.size();
  // Short-span prefix (see kSkipPrefix); long CSV spans lose 4 compares.
  const size_t stop = pos + kSkipPrefix < n ? pos + kSkipPrefix : n;
  for (; pos < stop; ++pos) {
    if (data[pos] == needle) return pos;
  }
  while (pos + 8 <= n) {
    uint64_t hit = EqMask(LoadWord(data + pos), static_cast<uint8_t>(needle));
    if (hit != 0) return pos + FirstFlag(hit);
    pos += 8;
  }
  return ScalarFindByte(text, pos, needle);
}

size_t SwarFindLineSpecial(std::string_view text, size_t pos) {
  const char* data = text.data();
  size_t n = text.size();
  while (pos + 8 <= n) {
    uint64_t w = LoadWord(data + pos);
    uint64_t hit = EqMask(w, '"') | EqMask(w, '\r') | EqMask(w, '\n');
    if (hit != 0) return pos + FirstFlag(hit);
    pos += 8;
  }
  return ScalarFindLineSpecial(text, pos);
}

// sqlog-lint: allow(R10 appends into the caller-owned output buffer; see ScalarAppendLowered)
void SwarAppendLowered(std::string_view text, std::string* out) {
  size_t pos = 0;
  size_t n = text.size();
  const char* data = text.data();
  char buf[8];
  while (pos + 8 <= n) {
    uint64_t w = LoadWord(data + pos);
    // 0x80 flags on upper-case lanes shift down to the 0x20 case bit.
    w |= RangeMask(w, 'A', 'Z') >> 2;
    std::memcpy(buf, &w, sizeof(buf));
    out->append(buf, sizeof(buf));
    pos += 8;
  }
  for (; pos < n; ++pos) out->push_back(ToLowerByte(data[pos]));
}

/// Gathers the 0x80 lane flags of a SWAR class mask into the low 8 bits
/// (lane 0 -> bit 0). The multiply shifts each flag into the top byte;
/// cross terms land strictly below bit 56, so no carry reaches it.
uint64_t SwarGatherFlags(uint64_t flags) {
  return (flags * 0x0002040810204081ULL) >> 56;
}

void SwarBuildClassBitmaps(std::string_view text, uint64_t* space_bits,
                           uint64_t* ident_bits) {
  const char* data = text.data();
  size_t n = text.size();
  size_t words = (n + 63) >> 6;
  for (size_t w = 0; w < words; ++w) {
    size_t base = w << 6;
    size_t limit = n - base < 64 ? n - base : 64;
    uint64_t sp = 0;
    uint64_t id = 0;
    size_t k = 0;
    for (; k + 8 <= limit; k += 8) {
      uint64_t x = LoadWord(data + base + k);
      sp |= SwarGatherFlags(SpaceMask(x)) << k;
      id |= SwarGatherFlags(IdentMask(x)) << k;
    }
    for (; k < limit; ++k) {
      char c = data[base + k];
      sp |= static_cast<uint64_t>(IsSpaceByte(c)) << k;
      id |= static_cast<uint64_t>(IsIdentCharByte(c)) << k;
    }
    space_bits[w] = sp;
    ident_bits[w] = id;
  }
}

#endif  // SQLOG_SIMD_LITTLE_ENDIAN

#if defined(__SSE2__) && SQLOG_SIMD_LITTLE_ENDIAN

// ---------------------------------------------------------------------------
// SSE2 level: 16-byte vectors. Range tests use the unsigned-min trick
// (min(x - lo, hi - lo) == x - lo), which is exact for all 256 byte
// values including >= 0x80.
// ---------------------------------------------------------------------------

inline __m128i EqV(__m128i x, char n) { return _mm_cmpeq_epi8(x, _mm_set1_epi8(n)); }

inline __m128i RangeV(__m128i x, char lo, char hi) {
  __m128i u = _mm_sub_epi8(x, _mm_set1_epi8(lo));
  __m128i k = _mm_set1_epi8(static_cast<char>(hi - lo));
  return _mm_cmpeq_epi8(_mm_min_epu8(u, k), u);
}

inline __m128i SpaceV(__m128i x) {
  return _mm_or_si128(EqV(x, ' '), RangeV(x, 0x09, 0x0D));
}

inline __m128i IdentV(__m128i x) {
  __m128i alpha = _mm_or_si128(RangeV(x, 'a', 'z'), RangeV(x, 'A', 'Z'));
  __m128i extra = _mm_or_si128(_mm_or_si128(EqV(x, '_'), EqV(x, '$')), EqV(x, '#'));
  return _mm_or_si128(_mm_or_si128(alpha, RangeV(x, '0', '9')), extra);
}

size_t Sse2FindByte(std::string_view text, size_t pos, char needle) {
  const char* data = text.data();
  size_t n = text.size();
  // Same short-span prefix as SwarFindByte.
  const size_t stop = pos + kSkipPrefix < n ? pos + kSkipPrefix : n;
  for (; pos < stop; ++pos) {
    if (data[pos] == needle) return pos;
  }
  while (pos + 16 <= n) {
    __m128i x = _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + pos));
    int bits = _mm_movemask_epi8(EqV(x, needle));
    if (bits != 0) return pos + static_cast<size_t>(__builtin_ctz(static_cast<unsigned>(bits)));
    pos += 16;
  }
  return ScalarFindByte(text, pos, needle);
}

size_t Sse2FindLineSpecial(std::string_view text, size_t pos) {
  const char* data = text.data();
  size_t n = text.size();
  while (pos + 16 <= n) {
    __m128i x = _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + pos));
    __m128i hit = _mm_or_si128(_mm_or_si128(EqV(x, '"'), EqV(x, '\r')), EqV(x, '\n'));
    int bits = _mm_movemask_epi8(hit);
    if (bits != 0) return pos + static_cast<size_t>(__builtin_ctz(static_cast<unsigned>(bits)));
    pos += 16;
  }
  return ScalarFindLineSpecial(text, pos);
}

// sqlog-lint: allow(R10 appends into the caller-owned output buffer; see ScalarAppendLowered)
void Sse2AppendLowered(std::string_view text, std::string* out) {
  size_t pos = 0;
  size_t n = text.size();
  const char* data = text.data();
  char buf[16];
  while (pos + 16 <= n) {
    __m128i x = _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + pos));
    __m128i upper = RangeV(x, 'A', 'Z');
    x = _mm_or_si128(x, _mm_and_si128(upper, _mm_set1_epi8(0x20)));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(buf), x);
    out->append(buf, sizeof(buf));
    pos += 16;
  }
  for (; pos < n; ++pos) out->push_back(ToLowerByte(data[pos]));
}

void Sse2BuildClassBitmaps(std::string_view text, uint64_t* space_bits,
                           uint64_t* ident_bits) {
  const char* data = text.data();
  size_t n = text.size();
  size_t words = (n + 63) >> 6;
  for (size_t w = 0; w < words; ++w) {
    size_t base = w << 6;
    size_t limit = n - base < 64 ? n - base : 64;
    uint64_t sp = 0;
    uint64_t id = 0;
    size_t k = 0;
    for (; k + 16 <= limit; k += 16) {
      __m128i x = _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + base + k));
      sp |= static_cast<uint64_t>(
                static_cast<uint16_t>(_mm_movemask_epi8(SpaceV(x))))
            << k;
      id |= static_cast<uint64_t>(
                static_cast<uint16_t>(_mm_movemask_epi8(IdentV(x))))
            << k;
    }
    for (; k < limit; ++k) {
      char c = data[base + k];
      sp |= static_cast<uint64_t>(IsSpaceByte(c)) << k;
      id |= static_cast<uint64_t>(IsIdentCharByte(c)) << k;
    }
    space_bits[w] = sp;
    ident_bits[w] = id;
  }
}

#endif  // __SSE2__ && SQLOG_SIMD_LITTLE_ENDIAN

// ---------------------------------------------------------------------------
// Dispatch. One function-pointer table per level; the active table is
// an atomic pointer resolved on first use from SQLOG_FORCE_SCALAR and
// CPU support, and swappable from tests via ForceLevelForTest().
// ---------------------------------------------------------------------------

struct Kernels {
  Level level;
  size_t (*find_byte)(std::string_view, size_t, char);
  size_t (*find_line_special)(std::string_view, size_t);
  void (*append_lowered)(std::string_view, std::string*);
  void (*build_class_bitmaps)(std::string_view, uint64_t*, uint64_t*);
};

constexpr Kernels kScalarKernels = {
    Level::kScalar,      ScalarFindByte,          ScalarFindLineSpecial,
    ScalarAppendLowered, ScalarBuildClassBitmaps,
};

#if SQLOG_SIMD_LITTLE_ENDIAN
constexpr Kernels kSwarKernels = {
    Level::kSwar,      SwarFindByte,          SwarFindLineSpecial,
    SwarAppendLowered, SwarBuildClassBitmaps,
};
#endif

#if defined(__SSE2__) && SQLOG_SIMD_LITTLE_ENDIAN
constexpr Kernels kSse2Kernels = {
    Level::kSse2,      Sse2FindByte,          Sse2FindLineSpecial,
    Sse2AppendLowered, Sse2BuildClassBitmaps,
};
#endif

const Kernels* TableFor(Level level) {
  switch (level) {
    case Level::kScalar:
      return &kScalarKernels;
    case Level::kSwar:
#if SQLOG_SIMD_LITTLE_ENDIAN
      return &kSwarKernels;
#else
      return &kScalarKernels;
#endif
    case Level::kSse2:
#if defined(__SSE2__) && SQLOG_SIMD_LITTLE_ENDIAN
      return &kSse2Kernels;
#elif SQLOG_SIMD_LITTLE_ENDIAN
      return &kSwarKernels;
#else
      return &kScalarKernels;
#endif
  }
  return &kScalarKernels;
}

bool ForceScalarFromEnv() {
  const char* v = std::getenv("SQLOG_FORCE_SCALAR");
  return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

const Kernels* DefaultTable() {
  static const Kernels* table =
      ForceScalarFromEnv() ? &kScalarKernels : TableFor(BestSupportedLevel());
  return table;
}

std::atomic<const Kernels*>& ActiveSlot() {
  static std::atomic<const Kernels*> slot{DefaultTable()};
  return slot;
}

inline const Kernels& Active() {
  return *ActiveSlot().load(std::memory_order_acquire);
}

}  // namespace

const char* LevelName(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kSwar:
      return "swar";
    case Level::kSse2:
      return "sse2";
  }
  return "unknown";
}

Level BestSupportedLevel() {
#if defined(__SSE2__) && SQLOG_SIMD_LITTLE_ENDIAN
  return Level::kSse2;
#elif SQLOG_SIMD_LITTLE_ENDIAN
  return Level::kSwar;
#else
  return Level::kScalar;
#endif
}

Level ActiveLevel() { return Active().level; }

void ForceLevelForTest(Level level) {
  ActiveSlot().store(TableFor(level), std::memory_order_release);
}

void ResetLevelForTest() {
  ActiveSlot().store(DefaultTable(), std::memory_order_release);
}

size_t FindByte(std::string_view text, size_t pos, char needle) {
  return Active().find_byte(text, pos, needle);
}

size_t FindLineSpecial(std::string_view text, size_t pos) {
  return Active().find_line_special(text, pos);
}

void AppendLowered(std::string_view text, std::string* out) {
  Active().append_lowered(text, out);
}

void BuildClassBitmaps(std::string_view text, uint64_t* space_bits,
                       uint64_t* ident_bits) {
  Active().build_class_bitmaps(text, space_bits, ident_bits);
}

}  // namespace simd
}  // namespace sqlog
