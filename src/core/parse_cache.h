#ifndef SQLOG_CORE_PARSE_CACHE_H_
#define SQLOG_CORE_PARSE_CACHE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sql/skeleton.h"
#include "sql/token.h"
#include "util/thread_annotations.h"

namespace sqlog::core {

/// Counters for the parse-avoidance path. Hit/miss splits depend on how
/// records were sharded across threads, so these never enter the
/// golden-compared statistics table — they are reported in their own
/// CLI section.
struct ParseStats {
  /// Statements that ran the full parser (cache off, cache misses,
  /// uncacheable templates, and failure-diagnostic re-parses).
  uint64_t full_parses = 0;
  /// Statements whose facts were rendered from a cached template.
  uint64_t cache_hits = 0;
  /// Key lookups that missed (an entry was built).
  uint64_t cache_misses = 0;
  /// Hits on templates whose recipe could not be validated — correct
  /// results, but the statement still pays a full parse.
  uint64_t uncacheable_hits = 0;
  /// Statements short-circuited by a cached parse failure (no re-parse
  /// was needed for a diagnostic message).
  uint64_t failure_hits = 0;
  /// Cache entries retained at the end of the run, and their
  /// approximate footprint (the memory bound on cached facts).
  uint64_t templates_cached = 0;
  uint64_t cache_bytes = 0;

  /// Sums the per-statement counters (not the end-of-run cache gauges).
  void Merge(const ParseStats& other) {
    full_parses += other.full_parses;
    cache_hits += other.cache_hits;
    cache_misses += other.cache_misses;
    uncacheable_hits += other.uncacheable_hits;
    failure_hits += other.failure_hits;
  }

  uint64_t parses_avoided() const { return cache_hits + failure_hits; }
};

/// One cached template: everything needed to reproduce the QueryFacts of
/// any statement whose normalized key matches, without parsing.
///
/// The template-constant facts are one shared, immutable object: the
/// miss that built the entry, every later hit and every `.sqb`
/// zero-lex render point at it, so a query stores only what varies —
/// its clause texts and predicate values. Those are rebuilt from
/// *recipes*: each concrete clause is stored as constant text pieces
/// with literal slots between them, and each predicate value as a slot
/// reference or fixed text. Slot texts come from the statement's own
/// tokens, so a rendered QueryFacts is byte-identical to what a full
/// parse would produce — validated once, when the entry is built,
/// against the full parse that built it.
struct ParseCacheEntry {
  /// The full normalized key (sql::AppendNormalizedKey), which
  /// ParseCache looks the entry up by.
  std::string key;

  /// False for cached parse *failures*: same key ⇒ the parser fails the
  /// same way (it never branches on placeholdered literal text), so the
  /// statement can be counted as a syntax error without re-parsing.
  bool parse_ok = false;
  /// True once the recipes below were built and validated. When false on
  /// a successful parse, every hit falls back to a full parse (correct,
  /// just not accelerated) — e.g. multi-branch simple-form CASE, whose
  /// normalization duplicates literals.
  bool cacheable = false;

  /// The template-constant facts every rendered statement shares (set
  /// when cacheable).
  std::shared_ptr<const sql::TemplateFacts> facts;

  /// One slot per placeholdered source token (see
  /// sql::PlaceholderedTokenIndices); slot j renders from token j.
  struct Slot {
    bool is_string = false;  // render quoted with '' escaping
    bool negated = false;    // parser folded a structural '-' into the literal
  };
  std::vector<Slot> slots;

  /// Clause recipe: pieces.size() == slot_refs.size() + 1 and the clause
  /// renders as pieces[0] slot[refs[0]] pieces[1] ... pieces[n].
  struct Clause {
    std::vector<std::string> pieces;
    std::vector<uint32_t> slot_refs;
  };
  Clause sc;
  Clause fc;
  Clause wc;

  /// One predicate value: either a slot reference or fixed text
  /// (variables and NULL literals do not vary per record).
  struct ValueRef {
    bool is_slot = false;
    uint32_t slot = 0;
    std::string fixed;
  };
  /// One ref per entry of QueryFacts::predicate_values, in the same
  /// order (predicate i's are facts->predicates[i]'s value range).
  std::vector<ValueRef> values;

  /// Approximate heap footprint, for the cache memory gauge. Counts the
  /// shared facts once, as part of the entry, and a string only when its
  /// buffer is on the heap.
  size_t bytes() const;
};

/// Template cache keyed by the normalized key. NOT thread-safe: each
/// parse shard owns a private cache; the parser's persistent cache is
/// only read (const Find) while shards are in flight and mutated after
/// they join. Entries are kept in insertion order so merging shard caches
/// into a persistent one is deterministic.
class ParseCache {
 public:
  ParseCache() = default;
  ParseCache(const ParseCache&) = delete;
  ParseCache& operator=(const ParseCache&) = delete;
  ParseCache(ParseCache&&) = default;
  ParseCache& operator=(ParseCache&&) = default;

  /// Returns the entry with this exact key, or null.
  const ParseCacheEntry* Find(std::string_view key) const;

  /// Inserts an entry (the key must not already be present) and returns
  /// a stable pointer to it.
  const ParseCacheEntry* Insert(std::unique_ptr<ParseCacheEntry> entry);

  /// Drains the cache, returning the entries in insertion order (used to
  /// promote shard caches into the streaming parser's persistent cache
  /// in deterministic shard order).
  std::vector<std::unique_ptr<ParseCacheEntry>> TakeEntries();

  size_t size() const { return entries_.size(); }
  size_t bytes() const { return bytes_; }

 private:
  /// Owns the entries, in insertion order.
  std::vector<std::unique_ptr<ParseCacheEntry>> entries_ SQLOG_SHARD_LOCAL;
  /// Each key views its own entry's `key`. The entries live on the heap
  /// and are never modified after Insert, so the views (even those into
  /// a small-string buffer) stay valid until TakeEntries clears the map.
  std::unordered_map<std::string_view, const ParseCacheEntry*> by_key_ SQLOG_SHARD_LOCAL;
  size_t bytes_ SQLOG_SHARD_LOCAL = 0;
};

/// Builds and validates the recipes of `entry` from a successful full
/// parse: `facts` (with its AST), the statement's token stream, and the
/// predicate value expressions recorded by Analyze. On success sets
/// `entry.cacheable` and shares `facts.shared` as the entry's facts (no
/// copy). On any validation mismatch the entry is left uncacheable —
/// hits then take the full parse path, so an unanticipated
/// printer/parser corner can cost performance but never correctness.
void BuildRecipes(const sql::TokenStream& tokens, const sql::QueryFacts& facts,
                  const std::vector<const sql::Expr*>& predicate_value_exprs,
                  ParseCacheEntry& entry);

/// Renders the QueryFacts of a statement from a cacheable entry and the
/// statement's own tokens: the result points at the entry's shared
/// facts and owns only its clause texts and predicate values. It carries
/// no AST (facts.ast is null); consumers that need one re-parse on
/// demand. Requires entry.cacheable and a token stream whose normalized
/// key equals entry.key.
sql::QueryFacts RenderFacts(const ParseCacheEntry& entry, const sql::TokenStream& tokens);

/// RenderFacts flavour taking pre-rendered slot texts (one per entry
/// slot, each already in canonical printer form — quoted strings, '-'
/// folded back into negated numbers). The zero-lex `.sqb` ingest path
/// derives these from a record's constant spans via DeriveSlotTexts.
sql::QueryFacts RenderFactsFromSlotTexts(const ParseCacheEntry& entry,
                                         const std::vector<std::string>& slot_texts);

/// Derives a record's slot texts straight from its `.sqb` constant spans
/// (log::RecordShape) — no lexing. `constants` holds one (offset, size)
/// range into `statement` per entry slot, in order. BinLogWriter only
/// emits a template reference when every span is the canonical rendering
/// of its literal, so for writer-produced files the result is
/// byte-identical to RenderFacts over the lexed tokens. Returns false
/// (contents of *slot_texts unspecified) when a span is out of bounds or
/// a string span is not a well-formed quoted literal — a hand-crafted
/// file; callers then fall back to the lexing path.
bool DeriveSlotTexts(const ParseCacheEntry& entry, const std::string& statement,
                     const std::vector<std::pair<uint32_t, uint32_t>>& constants,
                     std::vector<std::string>* slot_texts);

/// Serializes `entry` into the opaque recipe blob stored in `.sqb`
/// dictionary sections (log/binlog.h). The encoding is versioned and
/// self-contained; DeserializeStatementRecipe rejects anything it cannot
/// fully validate, so a stale or corrupt recipe degrades to parsing,
/// never to wrong facts.
std::string SerializeParseCacheEntry(const ParseCacheEntry& entry);

/// Lexes, classifies and parses `statement`, builds its cache entry the
/// same way the parse shards do, and returns the serialized recipe.
/// Returns "" for statements that carry no useful recipe (non-SELECTs
/// and statements that do not lex) — BinLogWriter stores the empty blob
/// and readers simply parse those templates. This is the
/// BinLogWriterOptions::recipe_builder implementation.
std::string BuildStatementRecipe(const std::string& statement);

/// Deserializes one dictionary recipe and validates it against the
/// template text it rode in with: the text must lex, its normalized key
/// must equal the recipe's key, and (for cacheable recipes) its
/// placeholdered-token count must equal the slot count. Returns null on
/// empty, malformed, version-mismatched or non-validating input —
/// callers skip the entry and fall back to parsing.
std::unique_ptr<ParseCacheEntry> DeserializeStatementRecipe(std::string_view template_text,
                                                            std::string_view recipe);

}  // namespace sqlog::core

#endif  // SQLOG_CORE_PARSE_CACHE_H_
