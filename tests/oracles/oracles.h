#ifndef SQLOG_TESTS_ORACLES_ORACLES_H_
#define SQLOG_TESTS_ORACLES_ORACLES_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace sqlog::oracle {

/// Outcome of one differential check. Inputs the front-end *rejects*
/// are vacuously OK — the oracles assert that whatever is accepted is
/// processed consistently, and that rejection is a diagnostic, never a
/// crash.
struct OracleResult {
  bool ok = true;
  std::string message;
};

inline OracleResult Ok() { return {}; }
OracleResult Fail(std::string message);

/// Lexer invariants: token offsets are nondecreasing and in-bounds, the
/// stream ends with exactly one end-of-input sentinel, and lexing is
/// deterministic (same input → same token stream).
OracleResult CheckLexInvariants(std::string_view input);

/// Parse → canonical print → parse must be a fixpoint: the reprint
/// parses, and printing the reparse reproduces the same text. Also
/// checks the non-canonical print re-parses to the same canonical form.
OracleResult CheckParsePrintFixpoint(std::string_view input);

/// Skeleton extraction is idempotent: the template (all four skeleton
/// clauses + fingerprint) of a statement equals the template of its
/// canonical reprint, and repeated analysis is stable.
OracleResult CheckSkeletonIdempotence(std::string_view input);

/// Template invariance (Def. 4): whitespace jitter, identifier case
/// flips, and literal-value replacement must not change the skeleton
/// template. `seed` drives the mutations deterministically.
OracleResult CheckTemplateInvariance(std::string_view input, uint64_t seed);

/// Dedup idempotence: building a synthetic multi-user log from the
/// input's lines and running duplicate removal twice must be a fixpoint
/// (both restricted and unrestricted windows), with consistent stats.
OracleResult CheckDedupIdempotence(std::string_view input, uint64_t seed);

/// Parse-cache equivalence: builds a small log from the input's lines
/// (each statement re-issued verbatim and with template-preserving
/// literal mutations, so the parse cache actually hits), then runs the
/// parse step with the cache off and on. Both runs must produce
/// identical parsed logs and template stores — the cache may only
/// change how much work is done, never the answer.
OracleResult CheckParseCacheEquivalence(std::string_view input, uint64_t seed);

/// Solver-vs-engine equivalence on fuzz-generated inputs: derives a
/// random Stifle run over the in-memory SkyServer sample from `seed`
/// (statement text jittered through the template-preserving mutator),
/// rewrites it with the paper's solver, and asserts the rewrite returns
/// exactly the union of the original per-query results.
OracleResult CheckSolverEngineEquivalence(uint64_t seed);

/// Binary-log robustness: the bytes are opened as a `.sqb` container.
/// Rejection must be a structured ParseError naming an offset and
/// section; acceptance must decode within the footer's record count.
/// Either way the outcome must be deterministic — two independent
/// buffer readers and a reader of the same bytes in a temp file agree
/// byte-for-byte — and never a crash, hang, or silent short read. An accepted input is also re-encoded twice, by
/// BinLogWriter::Append and by SetSource + AppendShaped with the
/// reader's shapes: the two files must be byte-identical and decode to
/// the records read.
OracleResult CheckBinLogRobustness(std::string_view input);

/// Every front-end oracle in sequence; stops at the first failure.
OracleResult RunFrontEndOracles(std::string_view input, uint64_t seed);

/// Stable 64-bit FNV-1a of a byte buffer — used to derive deterministic
/// oracle seeds from corpus entries.
uint64_t SeedFromBytes(std::string_view bytes);

/// Fuzz-harness glue: on failure, prints the message and the offending
/// input to stderr and aborts (so libFuzzer / the standalone driver
/// record a finding).
void AbortOnFailure(const OracleResult& result, std::string_view input);

}  // namespace sqlog::oracle

#endif  // SQLOG_TESTS_ORACLES_ORACLES_H_
