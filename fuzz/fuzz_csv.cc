// Fuzz harness for the CSV log reader: arbitrary bytes are decoded by
// log::LogReader at several read sizes and by the naive reference
// decoder in tests/oracles, and every decoder must return the same
// records and end with the same status code and message. Read-size
// boundaries land inside quoted runs, between a CR and its LF and
// between the two quotes of a doubled quote. Corpus seeds cover CRLF
// endings, CR/LF inside quotes, doubled quotes, blank lines, a stray
// header, bad numeric fields, a wrong field count, a truncated quote
// and a line longer than 4 KiB.
//
// Builds against libFuzzer when the toolchain provides it
// (-fsanitize=fuzzer); otherwise fuzz/standalone_driver.cc supplies
// main() with corpus replay and a timed in-process mutation loop.

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "tests/oracles/oracles.h"

namespace {
// The 1-byte read pass costs one stream read per input byte; logs
// larger than this add bulk, not new boundary states.
constexpr size_t kMaxInput = 1 << 16;
}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size > kMaxInput) return 0;
  std::string_view input(reinterpret_cast<const char*>(data), size);
  sqlog::oracle::AbortOnFailure(sqlog::oracle::CheckCsvReader(input), input);
  return 0;
}
