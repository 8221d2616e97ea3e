#include "oracles.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>
#include <vector>

#include <unistd.h>

#include "core/dedup.h"
#include "core/solver.h"
#include "core/template_store.h"
#include "engine/database.h"
#include "engine/executor.h"
#include "fuzz/sql_mutator.h"
#include "log/binlog.h"
#include "log/record.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "sql/printer.h"
#include "sql/skeleton.h"
#include "util/random.h"
#include "util/string_util.h"

namespace sqlog::oracle {

namespace {

std::string Preview(std::string_view input, size_t limit = 160) {
  std::string out(input.substr(0, limit));
  if (input.size() > limit) out += "...";
  for (char& c : out) {
    if (static_cast<unsigned char>(c) < 0x20 && c != '\n' && c != '\t') c = '?';
  }
  return out;
}

bool SameToken(const sql::Token& a, const sql::Token& b) {
  return a.type == b.type && a.text == b.text && a.offset == b.offset;
}

}  // namespace

OracleResult Fail(std::string message) { return {false, std::move(message)}; }

uint64_t SeedFromBytes(std::string_view bytes) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash ? hash : 1;
}

OracleResult CheckLexInvariants(std::string_view input) {
  auto first = sql::Lex(input);
  auto second = sql::Lex(input);
  if (first.ok() != second.ok()) {
    return Fail("lexing is nondeterministic (ok flag differs)");
  }
  if (!first.ok()) return Ok();

  const auto& tokens = first.value();
  if (tokens.empty() || !tokens.back().Is(sql::TokenType::kEnd)) {
    return Fail("token stream does not end with the kEnd sentinel");
  }
  size_t prev_offset = 0;
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i].offset > input.size()) {
      return Fail(StrFormat("token %zu offset %zu beyond input size %zu", i,
                            tokens[i].offset, input.size()));
    }
    if (tokens[i].offset < prev_offset) {
      return Fail(StrFormat("token %zu offset %zu goes backwards", i, tokens[i].offset));
    }
    prev_offset = tokens[i].offset;
    if (i + 1 < tokens.size() && tokens[i].Is(sql::TokenType::kEnd)) {
      return Fail("kEnd sentinel appears before the last token");
    }
  }
  if (second.value().size() != tokens.size()) {
    return Fail("lexing is nondeterministic (token count differs)");
  }
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (!SameToken(tokens[i], second.value()[i])) {
      return Fail(StrFormat("lexing is nondeterministic at token %zu", i));
    }
  }
  return Ok();
}

OracleResult CheckParsePrintFixpoint(std::string_view input) {
  auto first = sql::ParseSelect(input);
  if (!first.ok()) return Ok();  // graceful rejection is fine

  sql::PrintOptions canonical;
  std::string p1 = Print(*first.value(), canonical);
  auto second = sql::ParseSelect(p1);
  if (!second.ok()) {
    return Fail(StrFormat("canonical print does not reparse: [%s] → %s",
                          Preview(p1).c_str(), second.status().ToString().c_str()));
  }
  std::string p2 = Print(*second.value(), canonical);
  if (p2 != p1) {
    return Fail(StrFormat("canonical print is not a fixpoint: [%s] vs [%s]",
                          Preview(p1).c_str(), Preview(p2).c_str()));
  }

  sql::PrintOptions verbatim;
  verbatim.canonical = false;
  std::string raw = Print(*first.value(), verbatim);
  auto reparsed_raw = sql::ParseSelect(raw);
  if (!reparsed_raw.ok()) {
    return Fail(StrFormat("non-canonical print does not reparse: [%s]",
                          Preview(raw).c_str()));
  }
  if (Print(*reparsed_raw.value(), canonical) != p1) {
    return Fail("non-canonical print reparses to a different canonical form");
  }
  return Ok();
}

OracleResult CheckSkeletonIdempotence(std::string_view input) {
  std::string text(input);
  auto first = sql::ParseAndAnalyze(text);
  if (!first.ok()) return Ok();

  auto again = sql::ParseAndAnalyze(text);
  if (!again.ok() || !(again->tmpl == first->tmpl)) {
    return Fail("repeated analysis of the same text changes the template");
  }

  sql::PrintOptions canonical;
  std::string printed = Print(*first->ast, canonical);
  auto reparsed = sql::ParseAndAnalyze(printed);
  if (!reparsed.ok()) {
    return Fail(StrFormat("canonical print does not re-analyze: [%s]",
                          Preview(printed).c_str()));
  }
  if (reparsed->tmpl.fingerprint != first->tmpl.fingerprint ||
      !(reparsed->tmpl == first->tmpl)) {
    return Fail(StrFormat("template not idempotent: (%s | %s | %s | %s) vs (%s | %s | %s | %s)",
                          first->tmpl.ssc.c_str(), first->tmpl.sfc.c_str(),
                          first->tmpl.swc.c_str(), first->tmpl.tail.c_str(),
                          reparsed->tmpl.ssc.c_str(), reparsed->tmpl.sfc.c_str(),
                          reparsed->tmpl.swc.c_str(), reparsed->tmpl.tail.c_str()));
  }
  if (reparsed->predicates.size() != first->predicates.size()) {
    return Fail("predicate features change across the canonical reprint");
  }
  return Ok();
}

OracleResult CheckTemplateInvariance(std::string_view input, uint64_t seed) {
  std::string text(input);
  auto base = sql::ParseAndAnalyze(text);
  if (!base.ok()) return Ok();

  Rng rng(seed);
  for (int round = 0; round < 4; ++round) {
    std::string mutated = fuzz::MutatePreservingTemplate(text, rng);
    auto facts = sql::ParseAndAnalyze(mutated);
    if (!facts.ok()) {
      return Fail(StrFormat("template-preserving mutation broke parsing: [%s] → [%s] → %s",
                            Preview(text).c_str(), Preview(mutated).c_str(),
                            facts.status().ToString().c_str()));
    }
    if (!(facts->tmpl == base->tmpl)) {
      return Fail(StrFormat("template changed under ws/case/literal mutation: [%s] → [%s]",
                            Preview(text).c_str(), Preview(mutated).c_str()));
    }

    std::string cosmetic = fuzz::MutatePreservingCanonicalForm(text, rng);
    auto cosmetic_parse = sql::ParseSelect(cosmetic);
    if (!cosmetic_parse.ok()) {
      return Fail(StrFormat("ws/case mutation broke parsing: [%s] → [%s]",
                            Preview(text).c_str(), Preview(cosmetic).c_str()));
    }
    if (Print(*cosmetic_parse.value(), sql::PrintOptions{}) !=
        Print(*base->ast, sql::PrintOptions{})) {
      return Fail(StrFormat("canonical form changed under ws/case mutation: [%s] → [%s]",
                            Preview(text).c_str(), Preview(cosmetic).c_str()));
    }
  }
  return Ok();
}

OracleResult CheckDedupIdempotence(std::string_view input, uint64_t seed) {
  // Turn the input's lines into a small multi-user log with a mix of
  // in-window and out-of-window gaps.
  Rng rng(seed);
  log::QueryLog raw;
  int64_t clock_ms = 1000000;
  size_t line_start = 0;
  auto add_line = [&](std::string_view line, size_t index) {
    if (line.empty()) return;
    log::LogRecord record;
    record.seq = index;
    record.user = StrFormat("user%llu", static_cast<unsigned long long>(rng.Uniform(3)));
    clock_ms += static_cast<int64_t>(rng.Uniform(2500));  // straddles the 1s window
    record.timestamp_ms = clock_ms;
    record.statement = std::string(line);
    raw.Append(std::move(record));
  };
  size_t index = 0;
  for (size_t i = 0; i <= input.size(); ++i) {
    if (i == input.size() || input[i] == '\n') {
      add_line(input.substr(line_start, i - line_start), index++);
      line_start = i + 1;
    }
  }
  if (raw.empty()) return Ok();
  // Re-issue a few records immediately so duplicates actually exist.
  const size_t n = raw.size();
  for (size_t i = 0; i < n; ++i) {
    if (!rng.Chance(0.4)) continue;
    log::LogRecord dup = raw.records()[i];
    dup.seq = raw.size();
    dup.timestamp_ms += static_cast<int64_t>(rng.Uniform(900));
    raw.Append(std::move(dup));
  }

  for (bool unrestricted : {false, true}) {
    core::DedupOptions options;
    options.unrestricted = unrestricted;
    core::DedupStats stats1, stats2;
    log::QueryLog once = core::RemoveDuplicates(raw, options, &stats1);
    log::QueryLog twice = core::RemoveDuplicates(once, options, &stats2);
    if (stats1.input_count != stats1.removed_count + stats1.output_count) {
      return Fail("dedup stats do not balance");
    }
    if (stats2.removed_count != 0) {
      return Fail(StrFormat("dedup is not idempotent: second pass removed %zu records "
                            "(unrestricted=%d)",
                            stats2.removed_count, unrestricted ? 1 : 0));
    }
    if (once.size() != twice.size()) {
      return Fail("dedup is not idempotent: sizes differ across passes");
    }
    for (size_t i = 0; i < once.size(); ++i) {
      const auto& a = once.records()[i];
      const auto& b = twice.records()[i];
      if (a.statement != b.statement || a.user != b.user ||
          a.timestamp_ms != b.timestamp_ms) {
        return Fail(StrFormat("dedup is not idempotent at record %zu", i));
      }
    }
  }
  return Ok();
}

namespace {

bool SamePredicate(const sql::Predicate& a, const sql::Predicate& b) {
  return a.op == b.op && a.qualifier == b.qualifier && a.column == b.column &&
         a.values == b.values && a.constant_comparison == b.constant_comparison &&
         a.compares_to_null_literal == b.compares_to_null_literal;
}

/// Everything a downstream consumer can observe, except the AST pointer:
/// cache hits deliberately carry facts.ast == nullptr (consumers that
/// need an AST re-parse on demand).
bool SameFacts(const sql::QueryFacts& a, const sql::QueryFacts& b) {
  if (!(a.tmpl == b.tmpl)) return false;
  if (a.sc != b.sc || a.fc != b.fc || a.wc != b.wc) return false;
  if (a.where_conjunctive != b.where_conjunctive) return false;
  if (a.selects_star != b.selects_star) return false;
  if (a.selected_columns != b.selected_columns) return false;
  if (a.tables != b.tables || a.table_functions != b.table_functions) return false;
  if (a.predicates.size() != b.predicates.size()) return false;
  for (size_t i = 0; i < a.predicates.size(); ++i) {
    if (!SamePredicate(a.predicates[i], b.predicates[i])) return false;
  }
  return true;
}

struct ParseRun {
  core::TemplateStore store;
  core::ParsedLog parsed;
};

OracleResult CompareParseRuns(const char* label, const ParseRun& want,
                              const ParseRun& got) {
  const core::ParsedLog& a = want.parsed;
  const core::ParsedLog& b = got.parsed;
  if (a.queries.size() != b.queries.size()) {
    return Fail(StrFormat("%s: query count %zu vs %zu", label, a.queries.size(),
                          b.queries.size()));
  }
  for (size_t i = 0; i < a.queries.size(); ++i) {
    const core::ParsedQuery& x = a.queries[i];
    const core::ParsedQuery& y = b.queries[i];
    if (x.record_index != y.record_index || x.timestamp_ms != y.timestamp_ms ||
        x.user_id != y.user_id || x.row_count != y.row_count ||
        x.template_id != y.template_id) {
      return Fail(StrFormat("%s: query %zu metadata differs", label, i));
    }
    if (!SameFacts(x.facts, y.facts)) {
      return Fail(StrFormat("%s: query %zu facts differ (sc [%s] vs [%s], wc [%s] vs [%s])",
                            label, i, Preview(x.facts.sc).c_str(),
                            Preview(y.facts.sc).c_str(), Preview(x.facts.wc).c_str(),
                            Preview(y.facts.wc).c_str()));
    }
  }
  if (a.non_select_count != b.non_select_count ||
      a.syntax_error_count != b.syntax_error_count) {
    return Fail(StrFormat("%s: drop counts differ", label));
  }
  if (a.diagnostics.size() != b.diagnostics.size()) {
    return Fail(StrFormat("%s: diagnostic count %zu vs %zu", label,
                          a.diagnostics.size(), b.diagnostics.size()));
  }
  for (size_t i = 0; i < a.diagnostics.size(); ++i) {
    if (a.diagnostics[i].record_index != b.diagnostics[i].record_index ||
        a.diagnostics[i].record_seq != b.diagnostics[i].record_seq ||
        a.diagnostics[i].message != b.diagnostics[i].message) {
      return Fail(StrFormat("%s: diagnostic %zu differs: [%s] vs [%s]", label, i,
                            Preview(a.diagnostics[i].message).c_str(),
                            Preview(b.diagnostics[i].message).c_str()));
    }
  }
  if (a.user_streams != b.user_streams || a.user_names != b.user_names) {
    return Fail(StrFormat("%s: user streams differ", label));
  }
  if (want.store.size() != got.store.size()) {
    return Fail(StrFormat("%s: template count %zu vs %zu", label, want.store.size(),
                          got.store.size()));
  }
  for (size_t id = 0; id < want.store.size(); ++id) {
    const core::TemplateInfo& x = want.store.Get(id);
    const core::TemplateInfo& y = got.store.Get(id);
    if (!(x.tmpl == y.tmpl) || x.frequency != y.frequency || x.users != y.users ||
        x.first_query != y.first_query) {
      return Fail(StrFormat("%s: template %zu differs", label, id));
    }
  }
  return Ok();
}

}  // namespace

OracleResult CheckParseCacheEquivalence(std::string_view input, uint64_t seed) {
  Rng rng(seed);
  log::QueryLog raw;
  int64_t clock_ms = 5000000;
  auto add = [&](std::string statement) {
    log::LogRecord record;
    record.seq = raw.size();
    record.user = StrFormat("user%llu", static_cast<unsigned long long>(rng.Uniform(3)));
    clock_ms += 1000 + static_cast<int64_t>(rng.Uniform(1000));
    record.timestamp_ms = clock_ms;
    record.statement = std::move(statement);
    raw.Append(std::move(record));
  };
  size_t line_start = 0;
  size_t lines = 0;
  for (size_t i = 0; i <= input.size() && lines < 48; ++i) {
    if (i != input.size() && input[i] != '\n') continue;
    std::string_view line = input.substr(line_start, i - line_start);
    line_start = i + 1;
    if (line.empty()) continue;
    ++lines;
    std::string text(line);
    add(text);
    // Re-issue with fresh literals (exercises slot rendering on a hit)
    // and verbatim (the pure repeat-hit path).
    add(fuzz::MutatePreservingTemplate(text, rng));
    add(text);
  }
  if (raw.empty()) return Ok();

  auto run = [&raw](const core::ParseCacheOptions& options) {
    auto result = std::make_unique<ParseRun>();
    result->parsed =
        core::ParseLog(raw, result->store, nullptr, /*max_diagnostics=*/8, options);
    return result;
  };
  core::ParseCacheOptions off;
  off.enabled = false;
  auto reference = run(off);

  auto cached = run(core::ParseCacheOptions{});
  OracleResult result = CompareParseRuns("parse cache on", *reference, *cached);
  if (!result.ok) return result;

  // Degenerate fingerprint: every key lands in one bucket, so hits are
  // decided purely by the full-key comparison. Any confusion between
  // distinct templates would show up as different assignments here.
  core::ParseCacheOptions collide;
  collide.fingerprint_for_test = [](std::string_view) {
    return sql::TokenFingerprint{0x1234, 0x5678};
  };
  auto collided = run(collide);
  return CompareParseRuns("forced fingerprint collision", *reference, *collided);
}

namespace {

/// Shared read-only engine fixture for the solver oracle; built once.
struct EngineFixture {
  engine::Database db;
  engine::Executor executor{&db};
  std::vector<int64_t> objids;
  bool ok = false;
};

const EngineFixture& Fixture() {
  static EngineFixture* fixture = [] {
    auto* f = new EngineFixture();
    f->ok = engine::PopulateSkyServerSample(f->db, 400).ok();
    if (f->ok) f->objids = engine::PhotoObjIds(f->db);
    return f;
  }();
  return *fixture;
}

std::multiset<std::string> RowsOf(const engine::Executor& executor, const std::string& sql,
                                  OracleResult* error) {
  auto result = executor.ExecuteSql(sql);
  std::multiset<std::string> rows;
  if (!result.ok()) {
    *error = Fail(StrFormat("engine rejected [%s]: %s", Preview(sql).c_str(),
                            result.status().ToString().c_str()));
    return rows;
  }
  for (const auto& row : result->rows) {
    std::string key;
    for (const auto& cell : row) {
      key += cell.ToString();
      key.push_back('\x1f');
    }
    rows.insert(std::move(key));
  }
  return rows;
}

}  // namespace

OracleResult CheckSolverEngineEquivalence(uint64_t seed) {
  const EngineFixture& fixture = Fixture();
  if (!fixture.ok || fixture.objids.empty()) {
    return Fail("engine sample population failed");
  }

  Rng rng(seed);
  size_t run = 2 + rng.Uniform(6);
  std::vector<std::string> statements;
  std::set<int64_t> used;
  for (size_t i = 0; i < run; ++i) {
    int64_t objid = fixture.objids[rng.Uniform(fixture.objids.size())];
    if (!used.insert(objid).second) continue;  // IN dedups; keep sets equal
    std::string statement =
        StrFormat("SELECT objID, ra, dec FROM photoPrimary WHERE objID = %lld",
                  static_cast<long long>(objid));
    // Jitter whitespace / identifier case: the rewrite must be immune to
    // the surface form the front-end saw.
    statements.push_back(fuzz::MutatePreservingCanonicalForm(statement, rng));
  }
  if (statements.size() < 2) return Ok();

  OracleResult error = Ok();
  std::multiset<std::string> expected;
  std::vector<core::ParsedQuery> parsed(statements.size());
  for (size_t i = 0; i < statements.size(); ++i) {
    for (const auto& row : RowsOf(fixture.executor, statements[i], &error)) {
      expected.insert(row);
    }
    if (!error.ok) return error;
    auto facts = sql::ParseAndAnalyze(statements[i]);
    if (!facts.ok()) {
      return Fail(StrFormat("jittered statement does not parse: [%s]",
                            Preview(statements[i]).c_str()));
    }
    parsed[i].facts = std::move(facts.value());
  }

  std::vector<const core::ParsedQuery*> pointers;
  for (const auto& query : parsed) pointers.push_back(&query);
  auto rewritten = core::RewriteDwStifle(pointers);
  if (!rewritten.ok()) {
    return Fail(StrFormat("DW rewrite failed: %s", rewritten.status().ToString().c_str()));
  }
  std::multiset<std::string> actual = RowsOf(fixture.executor, rewritten.value(), &error);
  if (!error.ok) return error;
  if (actual != expected) {
    return Fail(StrFormat("DW rewrite returns different rows (%zu vs %zu) for [%s]",
                          actual.size(), expected.size(),
                          Preview(rewritten.value()).c_str()));
  }
  return Ok();
}

namespace {

bool SameRecord(const log::LogRecord& a, const log::LogRecord& b) {
  return a.seq == b.seq && a.timestamp_ms == b.timestamp_ms && a.user == b.user &&
         a.session == b.session && a.statement == b.statement &&
         a.row_count == b.row_count && a.truth == b.truth;
}

/// A per-process temp file path for `name`; empty when the system has
/// no temp directory.
std::string OracleTempPath(const std::string& name) {
  std::error_code ec;
  const std::filesystem::path dir = std::filesystem::temp_directory_path(ec);
  if (ec) return "";
  return (dir / StrFormat("sqlog_oracle_%ld_%s", static_cast<long>(::getpid()),
                          name.c_str()))
      .string();
}

/// Opens `input` as a `.sqb` container — the buffer itself, or the file
/// at `path` holding the same bytes when `path` is nonempty — and
/// drains it. Returns the final status (OK or the first structural
/// error); decoded records land in `*records`.
Status DrainBinLog(std::string_view input, const std::string& path,
                   std::vector<log::LogRecord>* records) {
  log::BinLogReader reader;
  SQLOG_RETURN_IF_ERROR(path.empty() ? reader.OpenFromBuffer(input) : reader.Open(path));
  log::LogRecord record;
  bool eof = false;
  while (true) {
    SQLOG_RETURN_IF_ERROR(reader.ReadRecord(&record, &eof));
    if (eof) return Status::OK();
    if (records->size() >= reader.record_count()) {
      return Status::Internal("reader produced more records than the footer declares");
    }
    records->push_back(record);
  }
}

/// Re-encodes every record of the `.sqb` bytes `input` through a fresh
/// BinLogWriter — by Append, or by AppendShaped with the reader as the
/// writer's source when `shaped` — and returns the file written.
Result<std::string> ReencodeBinLog(std::string_view input, bool shaped) {
  const std::string path = OracleTempPath(shaped ? "reencode_1.sqb" : "reencode_0.sqb");
  if (path.empty()) return Status::IoError("no temp directory");
  log::BinLogReader reader;
  SQLOG_RETURN_IF_ERROR_R(reader.OpenFromBuffer(input));
  log::BinLogWriter writer;
  if (shaped) writer.SetSource(&reader);
  SQLOG_RETURN_IF_ERROR_R(writer.Open(path));
  log::LogRecord record;
  bool eof = false;
  while (true) {
    SQLOG_RETURN_IF_ERROR_R(reader.ReadRecord(&record, &eof));
    if (eof) break;
    SQLOG_RETURN_IF_ERROR_R(shaped ? writer.AppendShaped(record, reader.last_shape())
                                   : writer.Append(record));
  }
  SQLOG_RETURN_IF_ERROR_R(writer.Close());
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  in.close();
  std::error_code ec;
  std::filesystem::remove(path, ec);
  return bytes;
}

/// The writer's two paths must agree on everything the reader accepts:
/// re-encoding by Append (lexing every statement) and by AppendShaped
/// (re-encoding from the reader's shapes) write the same bytes, which
/// decode to `records`.
OracleResult CheckBinLogReencoding(std::string_view input,
                                   const std::vector<log::LogRecord>& records) {
  auto lexed = ReencodeBinLog(input, /*shaped=*/false);
  auto shaped = ReencodeBinLog(input, /*shaped=*/true);
  if (!lexed.ok() || !shaped.ok()) {
    return Fail("re-encoding an accepted binlog failed: " +
                (lexed.ok() ? shaped.status() : lexed.status()).ToString());
  }
  if (*lexed != *shaped) {
    return Fail(StrFormat("shaped re-encoding (%zu bytes) differs from the lexed one (%zu bytes)",
                          shaped->size(), lexed->size()));
  }
  std::vector<log::LogRecord> decoded;
  Status status = DrainBinLog(*shaped, "", &decoded);
  if (!status.ok()) return Fail("re-encoded binlog does not decode: " + status.ToString());
  if (decoded.size() != records.size()) {
    return Fail(StrFormat("re-encoded binlog decodes to %zu records, not %zu", decoded.size(),
                          records.size()));
  }
  for (size_t i = 0; i < records.size(); ++i) {
    if (!SameRecord(decoded[i], records[i])) {
      return Fail(StrFormat("re-encoded binlog differs at record %zu", i));
    }
  }
  return Ok();
}

}  // namespace

OracleResult CheckBinLogRobustness(std::string_view input) {
  std::vector<log::LogRecord> first_records;
  Status first = DrainBinLog(input, "", &first_records);
  if (!first.ok()) {
    if (first.code() != StatusCode::kParseError) {
      return Fail(StrFormat("binlog rejection is %s, not ParseError: %s",
                            StatusCodeName(first.code()), first.message().c_str()));
    }
    if (first.message().find("at offset") == std::string::npos ||
        first.message().find("section") == std::string::npos) {
      return Fail("binlog ParseError does not name an offset and section: " +
                  first.message());
    }
  }
  // Determinism: a second, independent reader must agree exactly —
  // same status text and, on acceptance, the same record stream. So
  // must a reader of the same bytes in a file, which fetches them by
  // seek-and-read instead of as views.
  const std::string path = OracleTempPath("robustness.sqb");
  if (path.empty()) return Fail("no temp directory for the file decode");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(input.data(), static_cast<std::streamsize>(input.size()));
    if (!out) return Fail("cannot write " + path);
  }
  std::vector<log::LogRecord> buffer_records;
  std::vector<log::LogRecord> file_records;
  const Status buffer_status = DrainBinLog(input, "", &buffer_records);
  const Status file_status = DrainBinLog(input, path, &file_records);
  std::error_code ec;
  std::filesystem::remove(path, ec);
  auto agree = [&](const char* source, const Status& status,
                   const std::vector<log::LogRecord>& records) {
    if (first.code() != status.code() || first.message() != status.message()) {
      return Fail(StrFormat("binlog decode from %s disagrees: '%s' vs '%s'", source,
                            first.ToString().c_str(), status.ToString().c_str()));
    }
    if (first_records.size() != records.size()) {
      return Fail(StrFormat("binlog decode from %s disagrees: %zu vs %zu records", source,
                            first_records.size(), records.size()));
    }
    for (size_t i = 0; i < records.size(); ++i) {
      if (!SameRecord(first_records[i], records[i])) {
        return Fail(StrFormat("binlog decode from %s disagrees at record %zu", source, i));
      }
    }
    return Ok();
  };
  OracleResult result = agree("a second buffer", buffer_status, buffer_records);
  if (!result.ok) return result;
  result = agree("a file", file_status, file_records);
  if (!result.ok) return result;
  if (!first.ok()) return Ok();
  return CheckBinLogReencoding(input, first_records);
}

OracleResult RunFrontEndOracles(std::string_view input, uint64_t seed) {
  OracleResult result = CheckLexInvariants(input);
  if (!result.ok) return result;
  result = CheckParsePrintFixpoint(input);
  if (!result.ok) return result;
  result = CheckSkeletonIdempotence(input);
  if (!result.ok) return result;
  result = CheckTemplateInvariance(input, seed);
  if (!result.ok) return result;
  result = CheckParseCacheEquivalence(input, seed);
  if (!result.ok) return result;
  return CheckDedupIdempotence(input, seed);
}

void AbortOnFailure(const OracleResult& result, std::string_view input) {
  if (result.ok) return;
  std::fprintf(stderr, "\n=== ORACLE FAILURE ===\n%s\n--- input (%zu bytes) ---\n",
               result.message.c_str(), input.size());
  std::fwrite(input.data(), 1, input.size(), stderr);
  std::fprintf(stderr, "\n======================\n");
  std::abort();
}

}  // namespace sqlog::oracle
