#ifndef SQLOG_UTIL_SIMD_H_
#define SQLOG_UTIL_SIMD_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

namespace sqlog {
namespace simd {

/// Runtime-dispatched byte-scanning kernels for the two hot inner
/// loops: lexer classification runs (util/byte_class.h classes) and CSV
/// quote/newline scanning.
///
/// Every kernel has three implementations selected once at startup:
///   kScalar — byte-at-a-time over the class table; the reference twin.
///   kSwar   — SIMD-within-a-register over 8-byte words (portable).
///   kSse2   — 16-byte vectors (x86-64 baseline).
/// All three are compiled unconditionally where the ISA allows, and the
/// differential tests assert byte-identical results across levels on
/// the fuzz corpus and generator logs. `SQLOG_FORCE_SCALAR=1` in the
/// environment pins kScalar at first use; tests and benches can switch
/// levels programmatically with ForceLevelForTest().
enum class Level : int {
  kScalar = 0,
  kSwar = 1,
  kSse2 = 2,
};

const char* LevelName(Level level);

/// Highest level this binary supports on this machine.
Level BestSupportedLevel();

/// The level the dispatched kernels currently run at. Defaults to
/// BestSupportedLevel(), or kScalar when SQLOG_FORCE_SCALAR is set to a
/// non-empty, non-"0" value.
Level ActiveLevel();

/// Overrides the dispatch level (clamped to BestSupportedLevel).
/// Test/bench seam; takes effect for subsequent kernel calls.
void ForceLevelForTest(Level level);

/// Restores the default env+CPU dispatch decision.
void ResetLevelForTest();

/// First index >= pos whose byte equals needle, or text.size().
size_t FindByte(std::string_view text, size_t pos, char needle);

/// First index >= pos holding '"', '\r', or '\n' — the CSV line
/// splitter's state-change set — or text.size().
size_t FindLineSpecial(std::string_view text, size_t pos);

/// Appends text to *out with A-Z mapped to a-z (ASCII-only fold,
/// byte_class::ToLowerByte semantics).
void AppendLowered(std::string_view text, std::string* out);

/// Fills ceil(text.size()/64) words in each output array: bit k of word
/// w is set iff byte w*64+k is in the kSpace (space_bits) / kIdentChar
/// (ident_bits) class. Bits at or past text.size() in the last word are
/// clear. The vector levels classify 8/16 bytes per step, so the whole
/// statement is classified in one pass instead of one dispatch per run.
void BuildClassBitmaps(std::string_view text, uint64_t* space_bits,
                       uint64_t* ident_bits);

/// Per-statement classification index for the lexer's skip loops.
///
/// SQL runs are short (a single space between tokens, a 3-to-12-byte
/// identifier), so a dispatched kernel call per run — an atomic load and
/// an indirect call — is at best break-even against the scalar table
/// loop on the study log. Building both class bitmaps once per statement
/// amortizes the dispatch to one call and lets the vector levels
/// classify 16 bytes per step; the skip queries then become inline bit
/// scans with no dispatch at all.
class ClassIndex {
 public:
  /// Classifies every byte of text. The view must stay valid and
  /// unchanged for as long as the index is queried.
  void Build(std::string_view text) {
    size_t data_words = (text.size() + 63) >> 6;
    // One extra all-zero sentinel word per map so a run that reaches
    // text.size() terminates without a bounds check in Scan().
    size_t total = data_words + 1;
    uint64_t* space;
    uint64_t* ident;
    if (total <= kInlineWords) {
      space = inline_space_;
      ident = inline_ident_;
    } else {
      heap_ = std::make_unique<uint64_t[]>(2 * total);
      space = heap_.get();
      ident = heap_.get() + total;
    }
    space[data_words] = 0;
    ident[data_words] = 0;
    BuildClassBitmaps(text, space, ident);
    space_ = space;
    ident_ = ident;
  }

  /// First index >= pos whose byte is not in kSpace, or text.size().
  /// Requires pos <= text.size().
  size_t SkipSpace(size_t pos) const { return Scan(space_, pos); }

  /// First index >= pos whose byte is not in kIdentChar, or
  /// text.size(). Requires pos <= text.size().
  size_t SkipIdentRun(size_t pos) const { return Scan(ident_, pos); }

 private:
  // 17 words cover statements up to 1024 bytes (16 data + sentinel)
  // without touching the heap; longer statements take one allocation.
  static constexpr size_t kInlineWords = 17;

  static size_t Scan(const uint64_t* bits, size_t pos) {
    // Zero bits past the end of the text (tail + sentinel) guarantee the
    // scan stops at text.size() without comparing against it.
    uint64_t miss = ~bits[pos >> 6] >> (pos & 63);
    if (miss != 0) return pos + static_cast<size_t>(std::countr_zero(miss));
    size_t w = (pos >> 6) + 1;
    while (~bits[w] == 0) ++w;
    return (w << 6) + static_cast<size_t>(std::countr_zero(~bits[w]));
  }

  uint64_t inline_space_[kInlineWords];
  uint64_t inline_ident_[kInlineWords];
  std::unique_ptr<uint64_t[]> heap_;
  const uint64_t* space_ = nullptr;
  const uint64_t* ident_ = nullptr;
};

}  // namespace simd
}  // namespace sqlog

#endif  // SQLOG_UTIL_SIMD_H_
