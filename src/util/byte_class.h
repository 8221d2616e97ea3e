#ifndef SQLOG_UTIL_BYTE_CLASS_H_
#define SQLOG_UTIL_BYTE_CLASS_H_

#include <array>
#include <cstdint>

namespace sqlog {

/// Locale-independent byte classification over a 256-entry class table.
///
/// This header is the single place the repo answers "is this byte a
/// letter / digit / identifier character"; lint rule R7 forbids the
/// locale-dependent `<cctype>` classifiers (std::isalpha & friends)
/// everywhere else under src/. The table pins the "C"-locale ASCII
/// semantics the SQL dialect is defined over: under a non-"C" global
/// locale, std::isalpha and std::tolower reclassify bytes >= 0x80 (and
/// in some locales remap case), which would silently change
/// tokenization, normalized keys, and case-insensitive comparisons
/// depending on the host environment.
///
/// The lexer's run skips, the normalized key's case fold and the other
/// byte scans call the inline helpers below directly; there is no
/// vectorized twin to keep in step with them.
namespace byte_class {

enum : uint8_t {
  kSpace = 1 << 0,       // ' ' \t \n \v \f \r
  kDigit = 1 << 1,       // 0-9
  kHexDigit = 1 << 2,    // 0-9 a-f A-F
  kAlpha = 1 << 3,       // A-Z a-z
  kUpper = 1 << 4,       // A-Z
  kIdentStart = 1 << 5,  // alpha _ #   (sql::Lexer identifier heads)
  kIdentChar = 1 << 6,   // alnum _ $ # (sql::Lexer identifier bodies)
};

struct Tables {
  std::array<uint8_t, 256> cls{};
  std::array<uint8_t, 256> lower{};
  std::array<uint8_t, 256> upper{};
};

constexpr Tables MakeTables() {
  Tables t;
  for (int b = 0; b < 256; ++b) {
    uint8_t c = 0;
    const bool digit = b >= '0' && b <= '9';
    const bool upper = b >= 'A' && b <= 'Z';
    const bool lower = b >= 'a' && b <= 'z';
    if (b == ' ' || b == '\t' || b == '\n' || b == '\v' || b == '\f' || b == '\r') {
      c |= kSpace;
    }
    if (digit) c |= kDigit;
    if (digit || (b >= 'a' && b <= 'f') || (b >= 'A' && b <= 'F')) c |= kHexDigit;
    if (upper || lower) c |= kAlpha;
    if (upper) c |= kUpper;
    if (upper || lower || b == '_' || b == '#') c |= kIdentStart;
    if (upper || lower || digit || b == '_' || b == '$' || b == '#') c |= kIdentChar;
    t.cls[static_cast<size_t>(b)] = c;
    t.lower[static_cast<size_t>(b)] = static_cast<uint8_t>(upper ? b + 0x20 : b);
    t.upper[static_cast<size_t>(b)] = static_cast<uint8_t>(lower ? b - 0x20 : b);
  }
  return t;
}

inline constexpr Tables kTables = MakeTables();

}  // namespace byte_class

inline bool HasByteClass(char c, uint8_t mask) {
  return (byte_class::kTables.cls[static_cast<uint8_t>(c)] & mask) != 0;
}

/// ' ' \t \n \v \f \r — the "C"-locale std::isspace set.
inline bool IsSpaceByte(char c) { return HasByteClass(c, byte_class::kSpace); }
inline bool IsDigitByte(char c) { return HasByteClass(c, byte_class::kDigit); }
inline bool IsHexDigitByte(char c) { return HasByteClass(c, byte_class::kHexDigit); }
inline bool IsAlphaByte(char c) { return HasByteClass(c, byte_class::kAlpha); }
inline bool IsAlnumByte(char c) {
  return HasByteClass(c, byte_class::kAlpha | byte_class::kDigit);
}
/// SQL identifier head: alpha, '_', '#' (T-SQL temp-table names).
inline bool IsIdentStartByte(char c) { return HasByteClass(c, byte_class::kIdentStart); }
/// SQL identifier body: alnum, '_', '$', '#'.
inline bool IsIdentCharByte(char c) { return HasByteClass(c, byte_class::kIdentChar); }

/// ASCII-only case mapping; bytes outside A-Z / a-z pass through.
inline char ToLowerByte(char c) {
  return static_cast<char>(byte_class::kTables.lower[static_cast<uint8_t>(c)]);
}
inline char ToUpperByte(char c) {
  return static_cast<char>(byte_class::kTables.upper[static_cast<uint8_t>(c)]);
}

}  // namespace sqlog

#endif  // SQLOG_UTIL_BYTE_CLASS_H_
