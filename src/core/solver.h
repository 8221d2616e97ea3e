#ifndef SQLOG_CORE_SOLVER_H_
#define SQLOG_CORE_SOLVER_H_

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/antipattern.h"
#include "core/template_store.h"
#include "log/log_stream.h"
#include "log/record.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace sqlog::core {

/// Counters for the solving step.
struct SolveStats {
  uint64_t instances_solved = 0;
  uint64_t instances_unsolvable = 0;   // detect-only hits (CTH, ...; annotated only)
  uint64_t queries_merged = 0;         // statements removed by rewriting
  uint64_t queries_rewritten_in_place = 0;  // single-query fixes (SNC, ...)
  uint64_t rewrite_failures = 0;       // instances kept verbatim on error
};

/// Solving output: the clean log (antipatterns rewritten) and the
/// removal log (antipattern member queries dropped entirely) that
/// Sec. 6.9 compares against. A non-OK `status` (a member statement that
/// no longer parses) leaves both logs incomplete.
struct SolveOutcome {
  log::QueryLog clean_log;
  log::QueryLog removal_log;
  SolveStats stats;
  Status status;
};

/// Rewrites one DW-Stifle instance (Example 10): one statement whose
/// WHERE is an IN-list over the member constants; the filter column is
/// added to the select list so results stay interpretable.
Result<std::string> RewriteDwStifle(const std::vector<const ParsedQuery*>& members);

/// Rewrites one DS-Stifle instance (Example 12): the union of the
/// member select lists over the shared FROM/WHERE.
Result<std::string> RewriteDsStifle(const std::vector<const ParsedQuery*>& members);

/// Rewrites one DF-Stifle instance (Example 14): an INNER JOIN of the
/// member tables on the shared filter column.
Result<std::string> RewriteDfStifle(const std::vector<const ParsedQuery*>& members);

/// Rewrites one SNC statement (Sec. 5.4): `= NULL` → `IS NULL`,
/// `<> NULL` → `IS NOT NULL`.
Result<std::string> RewriteSnc(const ParsedQuery& query);

/// Applies all solving rules over the pre-clean log: member queries of
/// each solvable instance collapse into one rewritten statement at the
/// position of the instance's first query; single-query instances (SNC,
/// solvable per-query detectors) are fixed in place; everything else
/// passes through. A solvable instance whose first query an earlier
/// instance claimed is not solved and counts in no SolveStats field:
/// the queries it claims pass through, as a failed rewrite's do. Also
/// produces the removal variant. Rewritten/removed records keep their
/// original metadata; both logs are renumbered.
///
/// A loop feeding `pre_clean` through a StreamingSolver into two
/// in-memory logs, so the in-memory and streaming paths share one
/// implementation of Sec. 5.5. `parsed` is borrowed: members without an
/// AST (the parser keeps none) get one restored while their instance is
/// open, and `parsed` is handed back with exactly the ASTs it came with.
/// Rewrites dispatch through the report's detector set; `custom_rules`
/// is ignored (it must be empty; see DetectorOptions).
SolveOutcome SolveAntipatterns(const log::QueryLog& pre_clean, ParsedLog& parsed,
                               const AntipatternReport& report,
                               const std::vector<CustomRule>& custom_rules = {});

/// The Sec. 5.5 solver, fed one pre-clean record at a time in pre-clean
/// order; the clean/removal rows are emitted straight to the two
/// RecordWriters (either format). SolveAntipatterns is this class over
/// in-memory writers, so both paths emit the same rows, order, and
/// SolveStats.
///
/// A record fed with its `.sqb` source shape keeps that shape through
/// the output queue and reaches the writers by AppendShaped, so a
/// `.sqb` writer can re-encode it without lexing; a rewritten statement
/// loses its shape. Shapes never change the bytes written.
///
/// Rewriting needs member ASTs. A member that carries none (the parser
/// never returns one) is re-parsed as it streams past — the parser is
/// deterministic, so the AST, and therefore the rewrite, is the one a
/// full parse would have produced — restored into `parsed`, and cleared
/// again once every instance listing it has resolved. ASTs the caller supplied are
/// neither replaced nor released. Records are buffered only while an
/// instance that contains them is still unresolved, so the buffer is
/// bounded by the detector's gap-bounded segment span, not the log
/// length.
///
/// `parsed.queries` must be in ascending record order, as ParseLog and
/// StreamingParser produce them.
class StreamingSolver {
 public:
  /// Both writers must be open; file writers must be configured with
  /// renumber=true so output seqs are positional.
  StreamingSolver(ParsedLog& parsed, const AntipatternReport& report,
                  log::RecordWriter& clean_writer, log::RecordWriter& removal_writer);

  /// Clears any AST still restored (a run abandoned after an error), so
  /// `parsed` is handed back as it came.
  ~StreamingSolver();

  StreamingSolver(const StreamingSolver&) = delete;
  StreamingSolver& operator=(const StreamingSolver&) = delete;

  /// Feeds the next pre-clean record (call in pre-clean order, starting
  /// at position 0), with its shape in the `.sqb` file it was read from
  /// (BinLogReader::last_shape(); copied) or null. Fails, naming the
  /// record, when a member statement no longer parses.
  Status Feed(const log::LogRecord& record, const log::RecordShape* shape = nullptr);

  /// Flushes remaining output. Every parsed query must have been fed;
  /// call after the last record.
  Status Finish();

  const SolveStats& stats() const { return stats_; }

 private:
  /// One output slot, queued until every earlier slot is resolved.
  struct Slot {
    log::LogRecord record;
    log::RecordShape shape;    // the record's source shape; verbatim when none
    uint32_t instance_id = 0;  // pending claiming instance; 0 once resolved
    bool is_first = false;     // first member of the claiming instance
    bool resolved = false;
    bool to_clean = false;
    bool to_removal = false;
  };

  /// AST bookkeeping for one query listed by ≥1 solved instance.
  /// Instances overlap (claiming is first-wins), so a query's re-parsed
  /// AST stays restored until every instance listing it has resolved.
  struct AstNeed {
    std::vector<uint32_t> instances;  // solved instances listing the query
    uint32_t unresolved = 0;
    bool restored = false;  // the AST was re-parsed here (cleared on release)
  };

  /// True when instance `instance_id` (1-based) claims its own first
  /// query, the slot a rewrite is emitted at. A solvable instance that
  /// does not is never solved.
  bool ClaimsFirstQuery(uint32_t instance_id) const;
  void ResolveInstance(uint32_t instance_id);
  Status Drain();

  ParsedLog& parsed_ SQLOG_SHARD_LOCAL;
  const AntipatternReport& report_ SQLOG_CONST_AFTER_INIT;
  log::RecordWriter& clean_writer_ SQLOG_SHARD_LOCAL;
  log::RecordWriter& removal_writer_ SQLOG_SHARD_LOCAL;
  SolveStats stats_ SQLOG_SHARD_LOCAL;

  /// query index → AST bookkeeping (solved-instance members only).
  std::unordered_map<size_t, AstNeed> ast_needs_ SQLOG_SHARD_LOCAL;
  /// instance id (1-based, solved only) → members not yet fed.
  std::unordered_map<uint32_t, size_t> members_pending_ SQLOG_SHARD_LOCAL;
  std::deque<Slot> slots_ SQLOG_SHARD_LOCAL;
  size_t next_record_ SQLOG_SHARD_LOCAL = 0;  // position assigned to the next Feed
  size_t next_query_ SQLOG_SHARD_LOCAL = 0;   // first parsed query not yet fed
};

}  // namespace sqlog::core

#endif  // SQLOG_CORE_SOLVER_H_
