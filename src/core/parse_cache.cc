#include "core/parse_cache.h"

#include <cassert>

#include "log/binlog_format.h"
#include "sql/ast.h"
#include "sql/fingerprint.h"
#include "sql/lexer.h"
#include "sql/printer.h"

namespace sqlog::core {

namespace {

/// Renders slot `slot` from the raw token text: numbers get the folded
/// '-' prefix back, strings are re-quoted with '' escaping — exactly the
/// bytes the canonical printer would emit for the literal.
std::string RenderSlotText(const ParseCacheEntry::Slot& slot, std::string_view token_text) {
  std::string out;
  if (slot.is_string) {
    out.reserve(token_text.size() + 2);
    out.push_back('\'');
    for (char c : token_text) {
      if (c == '\'') out.push_back('\'');
      out.push_back(c);
    }
    out.push_back('\'');
    return out;
  }
  out.reserve(token_text.size() + 1);
  if (slot.negated) out.push_back('-');
  out.append(token_text);
  return out;
}

/// Heap bytes of `s`: its block (capacity plus the terminator) when the
/// buffer is on the heap, nothing when the string is held inline.
size_t StringBytes(const std::string& s) {
  const uintptr_t self = reinterpret_cast<uintptr_t>(&s);
  const uintptr_t data = reinterpret_cast<uintptr_t>(s.data());
  const bool inline_buffer = data >= self && data < self + sizeof(s);
  return inline_buffer ? 0 : s.capacity() + 1;
}

size_t StringVectorBytes(const std::vector<std::string>& v) {
  size_t total = 0;
  for (const auto& s : v) total += sizeof(s) + StringBytes(s);
  return total;
}

size_t ClauseBytes(const ParseCacheEntry::Clause& clause) {
  size_t total = clause.slot_refs.capacity() * sizeof(uint32_t);
  for (const auto& piece : clause.pieces) total += sizeof(piece) + StringBytes(piece);
  return total;
}

size_t TemplateFactsBytes(const sql::TemplateFacts& facts) {
  size_t total = sizeof(facts);
  total += StringBytes(facts.tmpl.ssc) + StringBytes(facts.tmpl.sfc) +
           StringBytes(facts.tmpl.swc) + StringBytes(facts.tmpl.tail);
  total += StringVectorBytes(facts.selected_columns) + StringVectorBytes(facts.tables) +
           StringVectorBytes(facts.table_functions);
  for (const auto& pred : facts.predicates) {
    total += sizeof(pred) + StringBytes(pred.qualifier) + StringBytes(pred.column) +
             StringBytes(pred.computed_fn);
  }
  return total;
}

}  // namespace

size_t ParseCacheEntry::bytes() const {
  size_t total = sizeof(*this) + StringBytes(key);
  if (facts != nullptr) total += TemplateFactsBytes(*facts);
  total += slots.capacity() * sizeof(Slot);
  total += ClauseBytes(sc) + ClauseBytes(fc) + ClauseBytes(wc);
  for (const auto& value : values) total += sizeof(value) + StringBytes(value.fixed);
  return total;
}

const ParseCacheEntry* ParseCache::Find(std::string_view key) const {
  auto it = by_key_.find(key);
  return it == by_key_.end() ? nullptr : it->second;
}

const ParseCacheEntry* ParseCache::Insert(std::unique_ptr<ParseCacheEntry> entry) {
  bytes_ += entry->bytes();
  const ParseCacheEntry* raw = entry.get();
  [[maybe_unused]] const bool inserted = by_key_.emplace(raw->key, raw).second;
  assert(inserted && "ParseCache::Insert: key already cached");
  entries_.push_back(std::move(entry));
  return raw;
}

std::vector<std::unique_ptr<ParseCacheEntry>> ParseCache::TakeEntries() {
  by_key_.clear();
  bytes_ = 0;
  return std::exchange(entries_, {});
}

void BuildRecipes(const sql::TokenStream& tokens, const sql::QueryFacts& facts,
                  const std::vector<const sql::Expr*>& predicate_value_exprs,
                  ParseCacheEntry& entry) {
  entry.cacheable = false;
  const std::vector<size_t> lit_idx = sql::PlaceholderedTokenIndices(tokens);

  // Re-print the clauses recording literal positions. The prints must
  // reproduce the analyzed clause texts byte-for-byte (same options), or
  // the recipe would disagree with the facts it claims to reproduce.
  std::vector<sql::LiteralSlot> print_slots;
  sql::PrintOptions opts;
  opts.canonical = true;
  opts.placeholders = false;
  opts.literal_sink = &print_slots;
  const sql::SelectStatement& ast = *facts.ast;
  std::string sc = PrintSelectClause(ast, opts);
  const size_t sc_end = print_slots.size();
  std::string fc = PrintFromClause(ast, opts);
  const size_t fc_end = print_slots.size();
  std::string wc = PrintWhereClause(ast, opts);
  const size_t wc_end = print_slots.size();
  std::string tail = PrintTailClauses(ast, opts);
  if (sc != facts.sc || fc != facts.fc || wc != facts.wc) return;

  // Strict 1:1 in-order alignment: print order of literals (sc, fc, wc,
  // tail) must equal source order of placeholdered tokens. The parser
  // preserves clause order and literal order within clauses; anything
  // that breaks the alignment (e.g. simple-form CASE normalization
  // cloning its subject into every branch) makes the template
  // uncacheable rather than wrong.
  if (print_slots.size() != lit_idx.size()) return;
  entry.slots.assign(lit_idx.size(), {});
  for (size_t j = 0; j < lit_idx.size(); ++j) {
    const sql::Token& token = tokens[lit_idx[j]];
    const auto& lit = static_cast<const sql::LiteralExpr&>(*print_slots[j].expr);
    if (lit.literal_kind == sql::LiteralKind::kString) {
      if (!token.Is(sql::TokenType::kString) || lit.text != token.text) return;
      entry.slots[j].is_string = true;
    } else if (lit.literal_kind == sql::LiteralKind::kNumber) {
      if (!token.Is(sql::TokenType::kNumber)) return;
      if (lit.text == token.text) {
        entry.slots[j].negated = false;
      } else if (lit.text.size() == token.text.size() + 1 && lit.text[0] == '-' &&
                 std::string_view(lit.text).substr(1) == token.text) {
        // The parser folded a structural minus sign into the literal;
        // structural tokens are part of the key, so the fold is
        // template-constant and the prefix can live in the slot.
        entry.slots[j].negated = true;
      } else {
        return;
      }
    } else {
      return;  // the sink never records NULL literals
    }
  }

  // Cut each clause into pieces at the slot positions, verifying that
  // re-rendering the slot from the token reproduces the printed bytes.
  auto build_clause = [&](const std::string& text, size_t begin_slot, size_t end_slot,
                          ParseCacheEntry::Clause& out) -> bool {
    size_t pos = 0;
    for (size_t j = begin_slot; j < end_slot; ++j) {
      const sql::LiteralSlot& ps = print_slots[j];
      if (ps.begin < pos || ps.end < ps.begin || ps.end > text.size()) return false;
      std::string rendered = RenderSlotText(entry.slots[j], tokens[lit_idx[j]].text);
      if (text.compare(ps.begin, ps.end - ps.begin, rendered) != 0) return false;
      out.pieces.push_back(text.substr(pos, ps.begin - pos));
      out.slot_refs.push_back(static_cast<uint32_t>(j));
      pos = ps.end;
    }
    out.pieces.push_back(text.substr(pos));
    return true;
  };
  if (!build_clause(sc, 0, sc_end, entry.sc)) return;
  if (!build_clause(fc, sc_end, fc_end, entry.fc)) return;
  if (!build_clause(wc, fc_end, wc_end, entry.wc)) return;
  // The tail is not persisted (QueryFacts keeps no concrete tail), but
  // its slots still validate so the alignment proof covers every literal.
  ParseCacheEntry::Clause tail_scratch;
  if (!build_clause(tail, wc_end, print_slots.size(), tail_scratch)) return;

  // Predicate values: map each recorded value expression to its print
  // slot by node identity; values with no slot (variables, NULLs) are
  // template-constant text.
  std::unordered_map<const sql::Expr*, uint32_t> slot_of;
  slot_of.reserve(print_slots.size());
  for (size_t j = 0; j < print_slots.size(); ++j) {
    slot_of.emplace(print_slots[j].expr, static_cast<uint32_t>(j));
  }
  if (facts.predicate_values.size() != predicate_value_exprs.size()) return;
  entry.values.clear();
  entry.values.reserve(facts.predicate_values.size());
  for (size_t k = 0; k < facts.predicate_values.size(); ++k) {
    const std::string& value = facts.predicate_values[k];
    ParseCacheEntry::ValueRef ref;
    auto it = slot_of.find(predicate_value_exprs[k]);
    if (it != slot_of.end()) {
      // Cross-check: the analyzed value text must equal the slot
      // render, or reproducing it from the slot would drift.
      uint32_t j = it->second;
      if (value != RenderSlotText(entry.slots[j], tokens[lit_idx[j]].text)) return;
      ref.is_slot = true;
      ref.slot = j;
    } else {
      ref.fixed = value;
    }
    entry.values.push_back(std::move(ref));
  }

  entry.facts = facts.shared;
  entry.cacheable = true;
}

sql::QueryFacts RenderFacts(const ParseCacheEntry& entry, const sql::TokenStream& tokens) {
  const std::vector<size_t> lit_idx = sql::PlaceholderedTokenIndices(tokens);
  assert(lit_idx.size() == entry.slots.size() && "key equality fixes the slot count");
  std::vector<std::string> slot_texts(entry.slots.size());
  for (size_t j = 0; j < entry.slots.size(); ++j) {
    slot_texts[j] = RenderSlotText(entry.slots[j], tokens[lit_idx[j]].text);
  }
  return RenderFactsFromSlotTexts(entry, slot_texts);
}

sql::QueryFacts RenderFactsFromSlotTexts(const ParseCacheEntry& entry,
                                         const std::vector<std::string>& slot_texts) {
  assert(entry.parse_ok && entry.cacheable);
  assert(slot_texts.size() == entry.slots.size());
  sql::QueryFacts facts;
  facts.shared = entry.facts;

  auto render_clause = [&](const ParseCacheEntry::Clause& clause) {
    size_t total = 0;
    for (const auto& piece : clause.pieces) total += piece.size();
    for (uint32_t j : clause.slot_refs) total += slot_texts[j].size();
    std::string out;
    out.reserve(total);
    out += clause.pieces[0];
    for (size_t k = 0; k < clause.slot_refs.size(); ++k) {
      out += slot_texts[clause.slot_refs[k]];
      out += clause.pieces[k + 1];
    }
    return out;
  };
  facts.sc = render_clause(entry.sc);
  facts.fc = render_clause(entry.fc);
  facts.wc = render_clause(entry.wc);

  facts.predicate_values.reserve(entry.values.size());
  for (const auto& ref : entry.values) {
    facts.predicate_values.push_back(ref.is_slot ? slot_texts[ref.slot] : ref.fixed);
  }
  return facts;
}

bool DeriveSlotTexts(const ParseCacheEntry& entry, const std::string& statement,
                     const std::vector<std::pair<uint32_t, uint32_t>>& constants,
                     std::vector<std::string>* slot_texts) {
  assert(constants.size() == entry.slots.size());
  slot_texts->resize(entry.slots.size());
  for (size_t j = 0; j < entry.slots.size(); ++j) {
    const size_t offset = constants[j].first;
    const size_t size = constants[j].second;
    if (offset > statement.size() || size > statement.size() - offset) return false;
    const std::string_view raw(statement.data() + offset, size);
    const ParseCacheEntry::Slot& slot = entry.slots[j];
    std::string& out = (*slot_texts)[j];
    if (slot.is_string) {
      // A canonical quoted literal's raw bytes ARE its rendered slot
      // text (RenderSlotText re-quotes with '' escaping — the identity
      // on well-formed input). Validate the form; reject otherwise.
      if (raw.size() < 2 || raw.front() != '\'' || raw.back() != '\'') return false;
      const std::string_view body = raw.substr(1, raw.size() - 2);
      for (size_t k = 0; k < body.size(); ++k) {
        if (body[k] == '\'') {
          if (k + 1 >= body.size() || body[k + 1] != '\'') return false;
          ++k;
        }
      }
      out.assign(raw);
    } else {
      out.clear();
      if (slot.negated) out.push_back('-');
      out.append(raw);
    }
  }
  return true;
}

// ----------------------------------------------------------- recipe serde
//
// The recipe blob is the `.sqb` dictionary's payload for seeding a parse
// cache (log/binlog.h stores it opaquely). Encoding reuses the binlog
// varint/cursor helpers; the version byte lets the format evolve without
// invalidating readers — an unknown version simply deserializes to null
// and the template is parsed instead.

namespace {

constexpr uint8_t kRecipeVersion = 1;
constexpr uint8_t kRecipeParseOk = 1u << 0;
constexpr uint8_t kRecipeCacheable = 1u << 1;
constexpr uint8_t kFactsConjunctive = 1u << 0;
constexpr uint8_t kFactsSelectsStar = 1u << 1;
constexpr uint8_t kSlotIsString = 1u << 0;
constexpr uint8_t kSlotNegated = 1u << 1;
constexpr uint8_t kPredConstantComparison = 1u << 0;
constexpr uint8_t kPredComparesToNull = 1u << 1;
constexpr uint8_t kPredLhsComputed = 1u << 2;
constexpr uint8_t kPredColumnEquijoin = 1u << 3;
constexpr uint8_t kMaxPredicateOp = static_cast<uint8_t>(sql::PredicateOp::kOther);

using log::binfmt::AppendVarint;
using log::binfmt::ByteReader;

void AppendString(std::string_view s, std::string* out) {
  AppendVarint(s.size(), out);
  out->append(s);
}

void AppendStringVector(const std::vector<std::string>& v, std::string* out) {
  AppendVarint(v.size(), out);
  for (const std::string& s : v) AppendString(s, out);
}

void AppendClause(const ParseCacheEntry::Clause& clause, std::string* out) {
  AppendStringVector(clause.pieces, out);
  AppendVarint(clause.slot_refs.size(), out);
  for (uint32_t ref : clause.slot_refs) AppendVarint(ref, out);
}

Status ReadString(ByteReader& reader, std::string* out) {
  std::string_view view;
  SQLOG_RETURN_IF_ERROR(reader.ReadLengthDelimited(&view));
  out->assign(view);
  return Status::OK();
}

Status ReadCount(ByteReader& reader, uint64_t* out) {
  SQLOG_RETURN_IF_ERROR(reader.ReadVarint(out));
  // Every counted element costs at least one byte, so any honest count
  // is bounded by what is left — reject before reserving.
  if (*out > reader.remaining()) return reader.Error("count exceeds remaining bytes");
  return Status::OK();
}

Status ReadStringVector(ByteReader& reader, std::vector<std::string>* out) {
  uint64_t count = 0;
  SQLOG_RETURN_IF_ERROR(ReadCount(reader, &count));
  out->reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    std::string s;
    SQLOG_RETURN_IF_ERROR(ReadString(reader, &s));
    out->push_back(std::move(s));
  }
  return Status::OK();
}

Status ReadClause(ByteReader& reader, size_t slot_count,
                  ParseCacheEntry::Clause* clause) {
  SQLOG_RETURN_IF_ERROR(ReadStringVector(reader, &clause->pieces));
  uint64_t ref_count = 0;
  SQLOG_RETURN_IF_ERROR(ReadCount(reader, &ref_count));
  if (clause->pieces.size() != ref_count + 1) {
    return reader.Error("clause piece/slot counts disagree");
  }
  clause->slot_refs.reserve(static_cast<size_t>(ref_count));
  for (uint64_t i = 0; i < ref_count; ++i) {
    uint64_t ref = 0;
    SQLOG_RETURN_IF_ERROR(reader.ReadVarint(&ref));
    if (ref >= slot_count) return reader.Error("slot reference out of range");
    clause->slot_refs.push_back(static_cast<uint32_t>(ref));
  }
  return Status::OK();
}

Status ReadByte(ByteReader& reader, uint8_t* out) {
  std::string_view view;
  SQLOG_RETURN_IF_ERROR(reader.ReadBytes(1, &view));
  *out = static_cast<uint8_t>(view[0]);
  return Status::OK();
}

/// The fallible core of DeserializeStatementRecipe; the public wrapper
/// collapses any error to null.
Status DeserializeRecipeImpl(std::string_view recipe, ParseCacheEntry* entry) {
  ByteReader reader(recipe, 0, "recipe");
  uint8_t version = 0;
  uint8_t flags = 0;
  SQLOG_RETURN_IF_ERROR(ReadByte(reader, &version));
  if (version != kRecipeVersion) return reader.Error("unknown recipe version");
  SQLOG_RETURN_IF_ERROR(ReadByte(reader, &flags));
  if ((flags & ~(kRecipeParseOk | kRecipeCacheable)) != 0) {
    return reader.Error("unknown recipe flags");
  }
  entry->parse_ok = (flags & kRecipeParseOk) != 0;
  entry->cacheable = (flags & kRecipeCacheable) != 0;
  if (entry->cacheable && !entry->parse_ok) {
    return reader.Error("cacheable recipe without a successful parse");
  }
  SQLOG_RETURN_IF_ERROR(ReadString(reader, &entry->key));
  if (!entry->cacheable) {
    if (!reader.exhausted()) return reader.Error("trailing bytes");
    return Status::OK();
  }

  auto facts = std::make_shared<sql::TemplateFacts>();
  SQLOG_RETURN_IF_ERROR(ReadString(reader, &facts->tmpl.ssc));
  SQLOG_RETURN_IF_ERROR(ReadString(reader, &facts->tmpl.sfc));
  SQLOG_RETURN_IF_ERROR(ReadString(reader, &facts->tmpl.swc));
  SQLOG_RETURN_IF_ERROR(ReadString(reader, &facts->tmpl.tail));
  SQLOG_RETURN_IF_ERROR(reader.ReadVarint(&facts->tmpl.fingerprint));

  uint8_t fact_flags = 0;
  SQLOG_RETURN_IF_ERROR(ReadByte(reader, &fact_flags));
  if ((fact_flags & ~(kFactsConjunctive | kFactsSelectsStar)) != 0) {
    return reader.Error("unknown facts flags");
  }
  facts->where_conjunctive = (fact_flags & kFactsConjunctive) != 0;
  facts->selects_star = (fact_flags & kFactsSelectsStar) != 0;
  uint64_t from_items = 0;
  SQLOG_RETURN_IF_ERROR(reader.ReadVarint(&from_items));
  if (from_items > INT32_MAX) return reader.Error("from-item count out of range");
  facts->from_item_count = static_cast<int>(from_items);

  SQLOG_RETURN_IF_ERROR(ReadStringVector(reader, &facts->selected_columns));
  SQLOG_RETURN_IF_ERROR(ReadStringVector(reader, &facts->tables));
  SQLOG_RETURN_IF_ERROR(ReadStringVector(reader, &facts->table_functions));

  uint64_t slot_count = 0;
  SQLOG_RETURN_IF_ERROR(ReadCount(reader, &slot_count));
  entry->slots.reserve(static_cast<size_t>(slot_count));
  for (uint64_t i = 0; i < slot_count; ++i) {
    uint8_t slot_flags = 0;
    SQLOG_RETURN_IF_ERROR(ReadByte(reader, &slot_flags));
    if ((slot_flags & ~(kSlotIsString | kSlotNegated)) != 0) {
      return reader.Error("unknown slot flags");
    }
    ParseCacheEntry::Slot slot;
    slot.is_string = (slot_flags & kSlotIsString) != 0;
    slot.negated = (slot_flags & kSlotNegated) != 0;
    entry->slots.push_back(slot);
  }

  SQLOG_RETURN_IF_ERROR(ReadClause(reader, entry->slots.size(), &entry->sc));
  SQLOG_RETURN_IF_ERROR(ReadClause(reader, entry->slots.size(), &entry->fc));
  SQLOG_RETURN_IF_ERROR(ReadClause(reader, entry->slots.size(), &entry->wc));

  uint64_t pred_count = 0;
  SQLOG_RETURN_IF_ERROR(ReadCount(reader, &pred_count));
  facts->predicates.reserve(static_cast<size_t>(pred_count));
  for (uint64_t i = 0; i < pred_count; ++i) {
    sql::Predicate pred;
    uint8_t op = 0;
    SQLOG_RETURN_IF_ERROR(ReadByte(reader, &op));
    if (op > kMaxPredicateOp) return reader.Error("unknown predicate operator");
    pred.op = static_cast<sql::PredicateOp>(op);
    SQLOG_RETURN_IF_ERROR(ReadString(reader, &pred.qualifier));
    SQLOG_RETURN_IF_ERROR(ReadString(reader, &pred.column));
    uint8_t pred_flags = 0;
    SQLOG_RETURN_IF_ERROR(ReadByte(reader, &pred_flags));
    if ((pred_flags & ~(kPredConstantComparison | kPredComparesToNull |
                        kPredLhsComputed | kPredColumnEquijoin)) != 0) {
      return reader.Error("unknown predicate flags");
    }
    pred.constant_comparison = (pred_flags & kPredConstantComparison) != 0;
    pred.compares_to_null_literal = (pred_flags & kPredComparesToNull) != 0;
    pred.lhs_computed = (pred_flags & kPredLhsComputed) != 0;
    pred.column_equijoin = (pred_flags & kPredColumnEquijoin) != 0;
    uint8_t computed_op = 0;
    SQLOG_RETURN_IF_ERROR(ReadByte(reader, &computed_op));
    if (computed_op > kMaxPredicateOp) {
      return reader.Error("unknown predicate operator");
    }
    pred.computed_op = static_cast<sql::PredicateOp>(computed_op);
    SQLOG_RETURN_IF_ERROR(ReadString(reader, &pred.computed_fn));
    uint64_t value_count = 0;
    SQLOG_RETURN_IF_ERROR(ReadCount(reader, &value_count));
    if (value_count > UINT32_MAX - entry->values.size()) {
      return reader.Error("predicate value count out of range");
    }
    pred.value_begin = static_cast<uint32_t>(entry->values.size());
    pred.value_count = static_cast<uint32_t>(value_count);
    entry->values.reserve(entry->values.size() + static_cast<size_t>(value_count));
    for (uint64_t j = 0; j < value_count; ++j) {
      ParseCacheEntry::ValueRef ref;
      uint8_t is_slot = 0;
      SQLOG_RETURN_IF_ERROR(ReadByte(reader, &is_slot));
      if (is_slot > 1) return reader.Error("unknown value-ref kind");
      ref.is_slot = is_slot != 0;
      if (ref.is_slot) {
        uint64_t slot = 0;
        SQLOG_RETURN_IF_ERROR(reader.ReadVarint(&slot));
        if (slot >= entry->slots.size()) {
          return reader.Error("slot reference out of range");
        }
        ref.slot = static_cast<uint32_t>(slot);
      } else {
        SQLOG_RETURN_IF_ERROR(ReadString(reader, &ref.fixed));
      }
      entry->values.push_back(std::move(ref));
    }
    facts->predicates.push_back(std::move(pred));
  }
  if (!reader.exhausted()) return reader.Error("trailing bytes");
  entry->facts = std::move(facts);
  return Status::OK();
}

}  // namespace

std::string SerializeParseCacheEntry(const ParseCacheEntry& entry) {
  std::string out;
  out.push_back(static_cast<char>(kRecipeVersion));
  uint8_t flags = 0;
  if (entry.parse_ok) flags |= kRecipeParseOk;
  if (entry.cacheable) flags |= kRecipeCacheable;
  out.push_back(static_cast<char>(flags));
  AppendString(entry.key, &out);
  if (!entry.cacheable) return out;

  const sql::TemplateFacts& facts = *entry.facts;
  AppendString(facts.tmpl.ssc, &out);
  AppendString(facts.tmpl.sfc, &out);
  AppendString(facts.tmpl.swc, &out);
  AppendString(facts.tmpl.tail, &out);
  AppendVarint(facts.tmpl.fingerprint, &out);

  uint8_t fact_flags = 0;
  if (facts.where_conjunctive) fact_flags |= kFactsConjunctive;
  if (facts.selects_star) fact_flags |= kFactsSelectsStar;
  out.push_back(static_cast<char>(fact_flags));
  AppendVarint(static_cast<uint64_t>(facts.from_item_count), &out);

  AppendStringVector(facts.selected_columns, &out);
  AppendStringVector(facts.tables, &out);
  AppendStringVector(facts.table_functions, &out);

  AppendVarint(entry.slots.size(), &out);
  for (const ParseCacheEntry::Slot& slot : entry.slots) {
    uint8_t slot_flags = 0;
    if (slot.is_string) slot_flags |= kSlotIsString;
    if (slot.negated) slot_flags |= kSlotNegated;
    out.push_back(static_cast<char>(slot_flags));
  }

  AppendClause(entry.sc, &out);
  AppendClause(entry.fc, &out);
  AppendClause(entry.wc, &out);

  AppendVarint(facts.predicates.size(), &out);
  for (const sql::Predicate& pred : facts.predicates) {
    out.push_back(static_cast<char>(pred.op));
    AppendString(pred.qualifier, &out);
    AppendString(pred.column, &out);
    uint8_t pred_flags = 0;
    if (pred.constant_comparison) pred_flags |= kPredConstantComparison;
    if (pred.compares_to_null_literal) pred_flags |= kPredComparesToNull;
    if (pred.lhs_computed) pred_flags |= kPredLhsComputed;
    if (pred.column_equijoin) pred_flags |= kPredColumnEquijoin;
    out.push_back(static_cast<char>(pred_flags));
    out.push_back(static_cast<char>(pred.computed_op));
    AppendString(pred.computed_fn, &out);
    AppendVarint(pred.value_count, &out);
    for (uint32_t k = 0; k < pred.value_count; ++k) {
      const ParseCacheEntry::ValueRef& ref = entry.values[pred.value_begin + k];
      out.push_back(ref.is_slot ? '\x01' : '\x00');
      if (ref.is_slot) {
        AppendVarint(ref.slot, &out);
      } else {
        AppendString(ref.fixed, &out);
      }
    }
  }
  return out;
}

std::string BuildStatementRecipe(const std::string& statement) {
  if (sql::ClassifyStatement(statement) != sql::StatementKind::kSelect) return {};
  auto lexed = sql::Lex(statement);
  if (!lexed.ok()) return {};
  const sql::TokenStream& tokens = lexed.value();

  ParseCacheEntry entry;
  sql::AppendNormalizedKey(tokens, &entry.key);
  std::vector<const sql::Expr*> value_exprs;
  auto facts = sql::ParseAndAnalyzeTokens(tokens, &value_exprs);
  if (facts.ok()) {
    entry.parse_ok = true;
    BuildRecipes(tokens, facts.value(), value_exprs, entry);
  }
  // parse_ok stays false for syntax errors: the recipe still short-
  // circuits every later statement with this key (failure_hits).
  return SerializeParseCacheEntry(entry);
}

std::unique_ptr<ParseCacheEntry> DeserializeStatementRecipe(std::string_view template_text,
                                                            std::string_view recipe) {
  if (recipe.empty()) return nullptr;
  auto entry = std::make_unique<ParseCacheEntry>();
  Status status = DeserializeRecipeImpl(recipe, entry.get());
  if (!status.ok()) return nullptr;

  // Validate against the template text the recipe claims to describe: it
  // must produce exactly the recipe's key (so cache lookups agree) and,
  // when cacheable, the same number of placeholdered tokens as slots (so
  // RenderFacts never indexes out of a statement's literal list).
  auto lexed = sql::Lex(template_text);
  if (!lexed.ok()) return nullptr;
  std::string key;
  sql::AppendNormalizedKey(lexed.value(), &key);
  if (key != entry->key) return nullptr;
  if (entry->cacheable &&
      sql::PlaceholderedTokenIndices(lexed.value()).size() != entry->slots.size()) {
    return nullptr;
  }
  return entry;
}

}  // namespace sqlog::core
