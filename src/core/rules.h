#ifndef SQLOG_CORE_RULES_H_
#define SQLOG_CORE_RULES_H_

#include <functional>
#include <string>
#include <vector>

#include "core/template_store.h"
#include "util/status.h"

namespace sqlog::core {

/// A pluggable single-query antipattern rule — the Sec. 5.4 extension
/// point ("one first comes up with a formal definition, … provides a
/// detection rule and, if possible, a solving solution").
///
/// `detect` is evaluated on every parsed query; a hit becomes an
/// antipattern instance of the rule's adapter detector
/// ("custom-rule-<index>", labelled `name` in the statistics).
/// When `rewrite` is set, the solver replaces the statement with the
/// rewrite (like SNC); otherwise the rule is detect-only (annotated in
/// the clean log, dropped from the removal log, like CTH).
struct CustomRule {
  std::string name;
  std::function<bool(const ParsedQuery&)> detect;
  std::function<Result<std::string>(const ParsedQuery&)> rewrite;  // may be empty

  bool solvable() const { return static_cast<bool>(rewrite); }
};

/// Karwin-style "implicit columns": `SELECT *` hides schema coupling and
/// retrieves unneeded data. Detect-only.
CustomRule MakeSelectStarRule();

/// Unbounded full-table reads: no WHERE and no TOP. Detect-only — the
/// machine-download smell an operator may want to follow up on.
CustomRule MakeMissingWhereRule();

/// The SNC rule of Def. 16 re-expressed through the extension point;
/// behaviourally equivalent to the built-in detector+solver (used by
/// tests to validate the extension machinery).
CustomRule MakeSncRule();

}  // namespace sqlog::core

#endif  // SQLOG_CORE_RULES_H_
