#ifndef SQLOG_UTIL_SIMD_H_
#define SQLOG_UTIL_SIMD_H_

namespace sqlog {
namespace simd {

/// The level the benchmark suite's provenance header prints as
/// `simd_level`. Every byte scan has one plain implementation at its
/// call site (DESIGN.md § "Byte scanning"), so it is always scalar.
/// Delete this header when the suite drops the field.
enum class Level { kScalar };

inline const char* LevelName(Level) { return "scalar"; }
inline Level ActiveLevel() { return Level::kScalar; }

}  // namespace simd
}  // namespace sqlog

#endif  // SQLOG_UTIL_SIMD_H_
