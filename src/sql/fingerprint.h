#ifndef SQLOG_SQL_FINGERPRINT_H_
#define SQLOG_SQL_FINGERPRINT_H_

#include <cstddef>
#include <string>
#include <vector>

#include "sql/token.h"

namespace sqlog::sql {

/// Appends the normalized key of `tokens` to `key` (the caller clears it
/// when a fresh key is wanted). The key encodes, per token, a type byte
/// followed by a payload:
///   - identifiers and variables: the text case-folded to lower,
///   - strings and non-structural numbers: a fixed placeholder (their
///     text varies per record but not per template),
///   - structural numbers (TOP counts — `TOP 5` / `TOP (5)`): the text
///     verbatim, because the parser folds it into the template,
///   - punctuation/operators: the type byte alone.
/// Payloads are length-delimited so adjacent tokens cannot alias.
///
/// The key is strictly finer than the skeleton template: equal keys
/// imply byte-equal skeletons and per-template facts, while distinct
/// keys may still map to one skeleton (IN-list arity, redundant parens,
/// hex case). The cache only needs the first implication.
///
/// The parse cache (core/parse_cache.h) and the `.sqb` writer's template
/// dictionary (log/binlog.h) are both hash maps over this string.
void AppendNormalizedKey(const TokenStream& tokens, std::string* key);

/// Indices of the tokens the normalized key placeholders (strings and
/// non-structural numbers), in stream order. Statements with equal keys
/// have the same number of placeholdered tokens at the same structural
/// positions; the parse cache's literal slots are defined over exactly
/// this sequence.
std::vector<size_t> PlaceholderedTokenIndices(const TokenStream& tokens);

}  // namespace sqlog::sql

#endif  // SQLOG_SQL_FINGERPRINT_H_
