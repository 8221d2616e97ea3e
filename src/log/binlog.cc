#include "log/binlog.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <utility>

#include "log/binlog_format.h"
#include "sql/fingerprint.h"
#include "sql/lexer.h"
#include "util/byte_class.h"
#include "util/hash.h"
#include "util/string_util.h"

namespace sqlog::log {

namespace {

using binfmt::AppendU32;
using binfmt::AppendU64;
using binfmt::AppendVarint;
using binfmt::AppendZigzag;
using binfmt::ByteReader;

constexpr uint8_t kMaxTruthByte = static_cast<uint8_t>(TruthLabel::kNonSargable);

/// seq deltas round-trip through two's-complement subtraction so any
/// uint64 sequence (not just monotone ones) encodes exactly.
uint64_t SeqDelta(uint64_t current, uint64_t previous) { return current - previous; }

// --- Constant-span packing ---------------------------------------------
//
// Most SkyServer constants are ASCII numerics ("188", "0.736808"), so
// each constant starts with a header varint (payload << 2 | kind) and
// the digit text rides as binary:
//   kind 0 raw:        payload = byte count, raw bytes follow
//   kind 1 integer:    payload = 0, zigzag varint follows ("%lld" text)
//   kind 2 fixed:      payload = fraction width; varint int part +
//                      varint fraction follow ("I.F", F zero-padded)
//   kind 3 neg fixed:  kind 2 with a leading '-'
// The writer only packs a span after rendering the packed form back and
// comparing bytes — exactness stays guaranteed by construction, and any
// non-canonical spelling ("007", "1e4", "+1", "1.") stays raw.

constexpr uint64_t kConstRaw = 0;
constexpr uint64_t kConstInt = 1;
constexpr uint64_t kConstFixed = 2;
constexpr uint64_t kConstNegFixed = 3;
/// 18 digits always fit uint64_t (and int64_t after the sign split).
constexpr size_t kMaxPackedDigits = 18;

/// Parses `digits` as a canonical base-10 number: nonempty, all digits,
/// no leading zero unless the number is exactly "0".
bool ParseCanonicalDecimal(std::string_view digits, uint64_t* value) {
  if (digits.empty() || digits.size() > kMaxPackedDigits) return false;
  if (digits.size() > 1 && digits.front() == '0') return false;
  uint64_t v = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *value = v;
  return true;
}

/// Like ParseCanonicalDecimal but leading zeros are data ("005474"):
/// the fraction side of a fixed-point constant.
bool ParsePaddedDecimal(std::string_view digits, uint64_t* value) {
  if (digits.empty() || digits.size() > kMaxPackedDigits) return false;
  uint64_t v = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *value = v;
  return true;
}

/// Appends the decimal text of `value` ("%lld" / "%llu").
template <typename Int>
void RenderDecimal(Int value, std::string* out) {
  char buffer[24];
  const char* end = std::to_chars(buffer, buffer + sizeof buffer, value).ptr;
  out->append(buffer, static_cast<size_t>(end - buffer));
}

/// Appends `value` zero-padded to at least `width` digits ("%0*llu").
void RenderPaddedFraction(uint64_t value, size_t width, std::string* out) {
  char buffer[24];
  const char* end = std::to_chars(buffer, buffer + sizeof buffer, value).ptr;
  const size_t digits = static_cast<size_t>(end - buffer);
  if (digits < width) out->append(width - digits, '0');
  out->append(buffer, digits);
}

/// Appends `span` as a packed constant. Falls back to the raw encoding
/// whenever the packed render would not be byte-identical.
void AppendPackedConstant(std::string_view span, std::string* scratch,
                          std::string* out) {
  std::string_view body = span;
  const bool negative = !body.empty() && body.front() == '-';
  if (negative) body.remove_prefix(1);

  const size_t dot = body.find('.');
  uint64_t int_part = 0;
  if (dot == std::string_view::npos) {
    if (ParseCanonicalDecimal(body, &int_part) && !(negative && int_part == 0)) {
      const int64_t value =
          negative ? -static_cast<int64_t>(int_part) : static_cast<int64_t>(int_part);
      AppendVarint(kConstInt, out);
      AppendZigzag(value, out);
      return;
    }
  } else {
    uint64_t fraction = 0;
    const std::string_view frac_digits = body.substr(dot + 1);
    if (ParseCanonicalDecimal(body.substr(0, dot), &int_part) &&
        ParsePaddedDecimal(frac_digits, &fraction)) {
      // Render-verify: the only way a canonical parse can still diverge
      // is a future edit breaking an invariant — cheap insurance.
      scratch->clear();
      if (negative) scratch->push_back('-');
      RenderDecimal(int_part, scratch);
      scratch->push_back('.');
      RenderPaddedFraction(fraction, frac_digits.size(), scratch);
      if (*scratch == span) {
        AppendVarint((static_cast<uint64_t>(frac_digits.size()) << 2) |
                         (negative ? kConstNegFixed : kConstFixed),
                     out);
        AppendVarint(int_part, out);
        AppendVarint(fraction, out);
        return;
      }
    }
  }

  AppendVarint(static_cast<uint64_t>(span.size()) << 2 | kConstRaw, out);
  out->append(span);
}

/// Reads one packed constant and appends its text to `out`.
Status ReadPackedConstant(ByteReader& reader, std::string* out) {
  uint64_t header = 0;
  SQLOG_RETURN_IF_ERROR(reader.ReadVarint(&header));
  const uint64_t kind = header & 3;
  const uint64_t payload = header >> 2;
  switch (kind) {
    case kConstRaw: {
      std::string_view bytes;
      SQLOG_RETURN_IF_ERROR(reader.ReadBytes(payload, &bytes));
      out->append(bytes);
      return Status::OK();
    }
    case kConstInt: {
      if (payload != 0) return reader.Error("malformed integer constant header");
      int64_t value = 0;
      SQLOG_RETURN_IF_ERROR(reader.ReadZigzag(&value));
      RenderDecimal(value, out);
      return Status::OK();
    }
    default: {  // kConstFixed / kConstNegFixed
      if (payload == 0 || payload > kMaxPackedDigits) {
        return reader.Error("fixed-point constant fraction too wide");
      }
      uint64_t int_part = 0;
      uint64_t fraction = 0;
      SQLOG_RETURN_IF_ERROR(reader.ReadVarint(&int_part));
      SQLOG_RETURN_IF_ERROR(reader.ReadVarint(&fraction));
      if (kind == kConstNegFixed) out->push_back('-');
      RenderDecimal(int_part, out);
      out->push_back('.');
      RenderPaddedFraction(fraction, payload, out);
      return Status::OK();
    }
  }
}

/// True when the token's raw statement bytes are exactly the canonical
/// rendering of its processed text: quote + doubled-quote escapes +
/// quote for strings, identity for everything else. This is the format's
/// fast-ingest contract — a template reference promises that readers can
/// derive each literal's text from its constant span alone, without
/// lexing (core::DeriveSlotTexts). Today's lexer guarantees it for every
/// statement it accepts; enforcing it here makes it a wire property
/// rather than a lexer implementation detail.
bool RawSpanIsCanonical(const sql::Token& token, std::string_view raw) {
  if (token.type != sql::TokenType::kString) return raw == token.text;
  if (raw.size() < 2 || raw.front() != '\'' || raw.back() != '\'') return false;
  const std::string_view body = raw.substr(1, raw.size() - 2);
  size_t i = 0;
  for (char c : token.text) {
    if (i >= body.size() || body[i] != c) return false;
    ++i;
    if (c == '\'') {  // interior quotes must be doubled
      if (i >= body.size() || body[i] != '\'') return false;
      ++i;
    }
  }
  return i == body.size();
}

/// True when no literal token can extend across `c` or be extended by
/// it: whitespace and the punctuation bytes that always end a token.
/// Literals start with a digit, '.' or '\'' and never with '-', '*',
/// '=' or '>', so these bytes also cannot fuse with one into a comment
/// or a two-byte operator.
bool DelimitsLiteral(char c) {
  if (IsSpaceByte(c)) return true;
  switch (c) {
    case ',': case '(': case ')': case ';': case '=': case '<': case '>':
    case '!': case '+': case '-': case '*': case '/': case '%':
      return true;
    default:
      return false;
  }
}

/// Digits, optionally split once by an interior '.' ("42", "0.736808"):
/// text that always lexes as exactly one number token, in any context
/// where DelimitsLiteral bytes surround it.
bool IsPlainDecimal(std::string_view text) {
  if (text.empty() || text.front() == '.' || text.back() == '.') return false;
  bool seen_dot = false;
  for (char c : text) {
    if (c == '.' && !seen_dot) {
      seen_dot = true;
    } else if (!IsDigitByte(c)) {
      return false;
    }
  }
  return true;
}

/// True when `text`, lexed on its own, is exactly one literal token of
/// the slot's kind (a string when `string_slot`, else a number) whose
/// raw bytes are its canonical rendering.
bool IsCanonicalLiteral(std::string_view text, bool string_slot) {
  if (!string_slot && IsPlainDecimal(text)) return true;
  auto lexed = sql::Lex(text);
  if (!lexed.ok() || lexed.value().size() != 2) return false;  // the literal + kEnd
  const sql::Token& token = lexed.value()[0];
  const sql::TokenType kind = string_slot ? sql::TokenType::kString : sql::TokenType::kNumber;
  return token.type == kind && token.offset == 0 && token.end == text.size() &&
         RawSpanIsCanonical(token, text);
}

/// Verifies the section frame `frame`, read from file offset `offset`,
/// and points `*payload` at its body.
Status CheckSectionFrame(std::string_view frame, uint64_t offset, uint32_t magic,
                         const char* name, std::string_view* payload) {
  ByteReader reader(frame, offset, name);
  if (frame.size() > binfmt::kMaxSectionPayload + binfmt::kSectionFrameBytes) {
    return reader.Error("section exceeds the format's size ceiling");
  }
  uint32_t stored_magic = 0;
  uint64_t payload_len = 0;
  uint64_t checksum = 0;
  SQLOG_RETURN_IF_ERROR(reader.ReadU32(&stored_magic));
  if (stored_magic != magic) return reader.Error("bad section magic");
  SQLOG_RETURN_IF_ERROR(reader.ReadU64(&payload_len));
  SQLOG_RETURN_IF_ERROR(reader.ReadU64(&checksum));
  if (payload_len != frame.size() - binfmt::kSectionFrameBytes) {
    return reader.Error("section length disagrees with the footer offsets");
  }
  std::string_view body = frame.substr(binfmt::kSectionFrameBytes);
  if (Fnv1a64(body) != checksum) return reader.Error("section checksum mismatch");
  *payload = body;
  return Status::OK();
}

}  // namespace

// ------------------------------------------------------------- BinLogWriter

BinLogWriter::BinLogWriter(BinLogWriterOptions options) : options_(std::move(options)) {
  if (options_.block_records == 0) options_.block_records = 1;
}

BinLogWriter::~BinLogWriter() {
  if (open_) (void)Close();  // best-effort; callers wanting errors call Close()
}

Status BinLogWriter::Open(const std::string& path) {
  path_ = path;
  out_.open(path, std::ios::binary | std::ios::trunc);
  if (!out_) return Status::IoError("cannot open for writing: " + path);
  open_ = true;
  records_written_ = 0;
  verbatim_records_ = 0;
  shaped_records_ = 0;
  bytes_written_ = 0;
  source_templates_.clear();
  dictionary_.clear();
  dict_ids_.clear();
  strings_.clear();
  string_ids_.clear();
  seqs_.clear();
  timestamps_.clear();
  users_.clear();
  sessions_.clear();
  row_counts_.clear();
  truths_.clear();
  statements_.clear();
  index_.clear();
  // String id 0 is the empty string, so anonymous records cost one byte.
  InternString("");

  std::string header(binfmt::kFileMagic, sizeof(binfmt::kFileMagic));
  AppendU32(binfmt::kVersion, &header);
  AppendU32(0, &header);  // flags
  out_.write(header.data(), static_cast<std::streamsize>(header.size()));
  if (!out_) return Status::IoError("write failed: " + path);
  bytes_written_ = header.size();
  return Status::OK();
}

uint32_t BinLogWriter::InternString(const std::string& value) {
  auto it = string_ids_.find(value);
  if (it != string_ids_.end()) return it->second;
  uint32_t id = static_cast<uint32_t>(strings_.size());
  strings_.push_back(value);
  string_ids_.emplace(value, id);
  return id;
}

void BinLogWriter::EncodeStatement(const std::string& statement) {
  auto encode_verbatim = [&] {
    ++verbatim_records_;
    AppendVarint(0, &statements_);
    AppendVarint(statement.size(), &statements_);
    statements_.append(statement);
  };

  // Statements the lexer rejects cannot be templated; they still
  // round-trip, byte for byte, through the verbatim encoding.
  auto lexed = sql::Lex(statement);
  if (!lexed.ok()) {
    encode_verbatim();
    return;
  }
  const sql::TokenStream& tokens = lexed.value();
  key_buffer_.clear();
  sql::AppendNormalizedKey(tokens, &key_buffer_);

  auto it = dict_ids_.find(key_buffer_);
  uint32_t dict_id;
  if (it == dict_ids_.end()) {
    // First sighting: this statement becomes the template's
    // representative text, its placeholdered tokens the constant spans.
    DictEntry entry;
    entry.text = statement;
    for (size_t token_index : sql::PlaceholderedTokenIndices(tokens)) {
      const sql::Token& token = tokens[token_index];
      entry.spans.emplace_back(static_cast<uint32_t>(token.offset),
                               static_cast<uint32_t>(token.raw_size()));
    }
    if (options_.recipe_builder) entry.recipe = options_.recipe_builder(statement);
    dict_id = static_cast<uint32_t>(dictionary_.size());
    dictionary_.push_back(std::move(entry));
    dict_ids_.emplace(key_buffer_, dict_id);
  } else {
    dict_id = it->second;
  }

  // Splice this statement's own constants into the template text and
  // require byte equality — the self-check that makes the round trip
  // exact by construction. Same key but different inter-constant bytes
  // (comment/whitespace/case variants) falls back to verbatim.
  const DictEntry& entry = dictionary_[dict_id];
  const std::vector<size_t> lit_idx = sql::PlaceholderedTokenIndices(tokens);
  if (lit_idx.size() != entry.spans.size()) {
    encode_verbatim();
    return;
  }
  scratch_.clear();
  size_t template_pos = 0;
  for (size_t j = 0; j < entry.spans.size(); ++j) {
    scratch_.append(entry.text, template_pos, entry.spans[j].first - template_pos);
    const sql::Token& token = tokens[lit_idx[j]];
    scratch_.append(statement, token.offset, token.raw_size());
    template_pos = entry.spans[j].first + entry.spans[j].second;
  }
  scratch_.append(entry.text, template_pos, entry.text.size() - template_pos);
  if (scratch_ != statement) {
    encode_verbatim();
    return;
  }
  for (size_t j = 0; j < lit_idx.size(); ++j) {
    const sql::Token& token = tokens[lit_idx[j]];
    if (!RawSpanIsCanonical(token, std::string_view(statement)
                                       .substr(token.offset, token.raw_size()))) {
      encode_verbatim();
      return;
    }
  }

  AppendVarint(static_cast<uint64_t>(dict_id) + 1, &statements_);
  for (size_t j = 0; j < lit_idx.size(); ++j) {
    const sql::Token& token = tokens[lit_idx[j]];
    AppendPackedConstant(
        std::string_view(statement).substr(token.offset, token.raw_size()),
        &scratch_, &statements_);
  }
}

void BinLogWriter::SetSource(const BinLogReader* source) {
  source_ = source;
  source_templates_.clear();
}

void BinLogWriter::MapSourceTemplate(uint32_t ordinal) {
  SourceTemplate& mapping = source_templates_[ordinal];
  mapping.dict_id = SourceTemplate::kUnmappable;
  const BinLogReader::DictionaryEntry& source = source_->dictionary()[ordinal];
  auto lexed = sql::Lex(source.text);
  if (!lexed.ok()) return;
  const sql::TokenStream& tokens = lexed.value();
  // The source spans must be exactly the tokens the key placeholders.
  const std::vector<size_t> lit_idx = sql::PlaceholderedTokenIndices(tokens);
  if (lit_idx.size() != source.spans.size()) return;
  for (size_t j = 0; j < lit_idx.size(); ++j) {
    const sql::Token& token = tokens[lit_idx[j]];
    if (token.offset != source.spans[j].first || token.raw_size() != source.spans[j].second) {
      return;
    }
  }
  key_buffer_.clear();
  sql::AppendNormalizedKey(tokens, &key_buffer_);
  auto it = dict_ids_.find(key_buffer_);
  if (it == dict_ids_.end()) return;
  // Equal keys give equal slot kinds; the bytes between constants must
  // match too, and every constant must sit between bytes that cannot
  // join a literal token, so each record is checked constant by
  // constant instead of lexed whole.
  const DictEntry& entry = dictionary_[it->second];
  const size_t slots = source.spans.size();
  if (entry.spans.size() != slots) return;
  size_t source_pos = 0;
  size_t entry_pos = 0;
  for (size_t j = 0; j <= slots; ++j) {
    const size_t source_end = j < slots ? source.spans[j].first : source.text.size();
    const size_t entry_end = j < slots ? entry.spans[j].first : entry.text.size();
    if (source.text.compare(source_pos, source_end - source_pos, entry.text, entry_pos,
                            entry_end - entry_pos) != 0) {
      return;
    }
    const bool after_constant = j > 0;
    const bool before_constant = j < slots;
    if (source_end == source_pos) {
      if (after_constant && before_constant) return;  // two constants abut
    } else if ((after_constant && !DelimitsLiteral(source.text[source_pos])) ||
               (before_constant && !DelimitsLiteral(source.text[source_end - 1]))) {
      return;
    }
    if (j < slots) {
      source_pos = source.spans[j].first + source.spans[j].second;
      entry_pos = entry.spans[j].first + entry.spans[j].second;
    }
  }
  mapping.string_slots.resize(slots);
  for (size_t j = 0; j < slots; ++j) {
    mapping.string_slots[j] = tokens[lit_idx[j]].Is(sql::TokenType::kString);
  }
  mapping.dict_id = it->second;
}

bool BinLogWriter::EncodeShaped(const std::string& statement, const RecordShape& shape,
                                const SourceTemplate& mapping) {
  const DictEntry& entry = dictionary_[mapping.dict_id];
  if (shape.constants.size() != entry.spans.size()) return false;
  // Splice self-check: the statement must be the output template text
  // with this record's constants in place of the template's.
  size_t pos = 0;
  size_t template_pos = 0;
  for (size_t j = 0; j < entry.spans.size(); ++j) {
    const size_t piece = entry.spans[j].first - template_pos;
    const auto [start, length] = shape.constants[j];
    if (start != pos + piece || start > statement.size() ||
        length > statement.size() - start ||
        statement.compare(pos, piece, entry.text, template_pos, piece) != 0) {
      return false;
    }
    pos = start + length;
    template_pos = entry.spans[j].first + entry.spans[j].second;
  }
  if (statement.size() - pos != entry.text.size() - template_pos ||
      statement.compare(pos, std::string::npos, entry.text, template_pos) != 0) {
    return false;
  }
  const std::string_view text(statement);
  for (size_t j = 0; j < shape.constants.size(); ++j) {
    const auto [start, length] = shape.constants[j];
    if (!IsCanonicalLiteral(text.substr(start, length), mapping.string_slots[j])) {
      return false;
    }
  }

  AppendVarint(static_cast<uint64_t>(mapping.dict_id) + 1, &statements_);
  for (const auto& [start, length] : shape.constants) {
    AppendPackedConstant(text.substr(start, length), &scratch_, &statements_);
  }
  return true;
}

Status BinLogWriter::Append(const LogRecord& record) { return AppendShaped(record, nullptr); }

Status BinLogWriter::AppendShaped(const LogRecord& record, const RecordShape* shape) {
  if (!open_) return Status::Internal("BinLogWriter::Append on a closed writer");
  seqs_.push_back(options_.renumber ? records_written_ : record.seq);
  timestamps_.push_back(record.timestamp_ms);
  users_.push_back(InternString(record.user));
  sessions_.push_back(InternString(record.session));
  row_counts_.push_back(record.row_count);
  truths_.push_back(static_cast<uint8_t>(record.truth));

  SourceTemplate* mapping = nullptr;
  if (source_ != nullptr && shape != nullptr &&
      shape->template_ordinal < source_->dictionary().size()) {
    // Sized on first use: the source may be opened after SetSource.
    if (source_templates_.size() != source_->dictionary().size()) {
      source_templates_.resize(source_->dictionary().size());
    }
    mapping = &source_templates_[shape->template_ordinal];
  }
  if (mapping != nullptr && mapping->dict_id < SourceTemplate::kUnmappable &&
      EncodeShaped(record.statement, *shape, *mapping)) {
    ++shaped_records_;
  } else {
    EncodeStatement(record.statement);
    if (mapping != nullptr && mapping->dict_id == SourceTemplate::kUnseen) {
      MapSourceTemplate(shape->template_ordinal);
    }
  }
  ++records_written_;
  if (seqs_.size() >= options_.block_records) return FlushBlock();
  return Status::OK();
}

Status BinLogWriter::FlushBlock() {
  if (seqs_.empty()) return Status::OK();
  const size_t n = seqs_.size();

  scratch_.clear();
  std::string& payload = scratch_;
  // Column 1: seq — first raw, then consecutive deltas (zigzag).
  AppendVarint(seqs_[0], &payload);
  for (size_t i = 1; i < n; ++i) {
    AppendZigzag(static_cast<int64_t>(SeqDelta(seqs_[i], seqs_[i - 1])), &payload);
  }
  // Column 2: timestamps — zigzag first, zigzag deltas after.
  AppendZigzag(timestamps_[0], &payload);
  for (size_t i = 1; i < n; ++i) AppendZigzag(timestamps_[i] - timestamps_[i - 1], &payload);
  // Columns 3-4: user/session string-table ids.
  for (uint32_t id : users_) AppendVarint(id, &payload);
  for (uint32_t id : sessions_) AppendVarint(id, &payload);
  // Column 5: row counts (zigzag: -1 is the common "unknown").
  for (int64_t rows : row_counts_) AppendZigzag(rows, &payload);
  // Column 6: truth labels, one byte each.
  payload.append(reinterpret_cast<const char*>(truths_.data()), truths_.size());
  // Column 7: the pre-encoded statement column.
  payload.append(statements_);

  if (payload.size() > binfmt::kMaxBlockPayload) {
    return Status::Internal("block payload exceeds the format's size ceiling");
  }
  std::string frame;
  frame.reserve(binfmt::kBlockFrameBytes + payload.size());
  AppendU32(binfmt::kBlockMagic, &frame);
  AppendU32(static_cast<uint32_t>(payload.size()), &frame);
  AppendU32(static_cast<uint32_t>(n), &frame);
  AppendU64(Fnv1a64(payload), &frame);
  frame.append(payload);
  out_.write(frame.data(), static_cast<std::streamsize>(frame.size()));
  if (!out_) return Status::IoError("write failed: " + path_);

  index_.push_back({bytes_written_, n, timestamps_[0]});
  bytes_written_ += frame.size();
  seqs_.clear();
  timestamps_.clear();
  users_.clear();
  sessions_.clear();
  row_counts_.clear();
  truths_.clear();
  statements_.clear();
  return Status::OK();
}

Status BinLogWriter::Close() {
  if (!open_) return Status::OK();
  Status flushed = FlushBlock();
  if (!flushed.ok()) {
    open_ = false;
    out_.close();
    return flushed;
  }

  auto write_section = [&](uint32_t magic, const std::string& payload) -> Status {
    std::string frame;
    frame.reserve(binfmt::kSectionFrameBytes + payload.size());
    AppendU32(magic, &frame);
    AppendU64(payload.size(), &frame);
    AppendU64(Fnv1a64(payload), &frame);
    frame.append(payload);
    out_.write(frame.data(), static_cast<std::streamsize>(frame.size()));
    if (!out_) return Status::IoError("write failed: " + path_);
    bytes_written_ += frame.size();
    return Status::OK();
  };

  binfmt::Footer footer;
  footer.record_count = records_written_;
  footer.block_count = index_.size();
  footer.dict_count = dictionary_.size();
  footer.string_count = strings_.size();

  // Dictionary section: text, constant spans (start-delta + length), and
  // the opaque recipe, per template in insertion order.
  std::string payload;
  AppendVarint(dictionary_.size(), &payload);
  for (const DictEntry& entry : dictionary_) {
    AppendVarint(entry.text.size(), &payload);
    payload.append(entry.text);
    AppendVarint(entry.spans.size(), &payload);
    uint32_t previous_end = 0;
    for (const auto& [start, length] : entry.spans) {
      AppendVarint(start - previous_end, &payload);
      AppendVarint(length, &payload);
      previous_end = start + length;
    }
    AppendVarint(entry.recipe.size(), &payload);
    payload.append(entry.recipe);
  }
  footer.dict_offset = bytes_written_;
  Status status = write_section(binfmt::kDictMagic, payload);
  if (!status.ok()) {
    open_ = false;
    out_.close();
    return status;
  }

  // String table (user/session values).
  payload.clear();
  AppendVarint(strings_.size(), &payload);
  for (const std::string& value : strings_) {
    AppendVarint(value.size(), &payload);
    payload.append(value);
  }
  footer.strings_offset = bytes_written_;
  status = write_section(binfmt::kStringsMagic, payload);
  if (!status.ok()) {
    open_ = false;
    out_.close();
    return status;
  }

  // Block index: offset deltas, record counts, first-timestamp deltas —
  // enough to seek straight to any block and skip by time range.
  payload.clear();
  AppendVarint(index_.size(), &payload);
  uint64_t previous_offset = binfmt::kHeaderBytes;
  int64_t previous_ts = 0;
  for (const IndexRow& row : index_) {
    AppendVarint(row.offset - previous_offset, &payload);
    AppendVarint(row.record_count, &payload);
    AppendZigzag(row.first_timestamp - previous_ts, &payload);
    previous_offset = row.offset;
    previous_ts = row.first_timestamp;
  }
  footer.index_offset = bytes_written_;
  status = write_section(binfmt::kIndexMagic, payload);
  if (!status.ok()) {
    open_ = false;
    out_.close();
    return status;
  }

  std::string tail;
  footer.AppendTo(&tail);
  out_.write(tail.data(), static_cast<std::streamsize>(tail.size()));
  open_ = false;
  out_.close();
  if (out_.fail()) return Status::IoError("close failed: " + path_);
  return Status::OK();
}

// ------------------------------------------------------------- BinLogReader

void BinLogReader::ResetState() {
  borrowed_ = {};
  if (in_.is_open()) in_.close();
  in_.clear();
  file_size_ = 0;
  dictionary_.clear();
  templates_.clear();
  strings_.clear();
  index_.clear();
  record_count_ = 0;
  next_block_ = 0;
  block_records_.clear();
  block_shapes_.clear();
  last_shape_ = nullptr;
  next_record_ = 0;
  records_read_ = 0;
}

Status BinLogReader::Open(const std::string& path) {
  ResetState();
  path_ = path;
  in_.open(path, std::ios::binary);
  if (!in_) return Status::IoError("cannot open for reading: " + path);
  in_.seekg(0, std::ios::end);
  const std::streamoff end = in_.tellg();
  if (end < 0) return Status::IoError("cannot stat: " + path);
  file_size_ = static_cast<uint64_t>(end);
  Status status = OpenCommon();
  if (!status.ok()) ResetState();  // keep the diagnosis, drop the half-open state
  return status;
}

Status BinLogReader::OpenFromBuffer(std::string_view data) {
  ResetState();
  path_ = "<buffer>";
  borrowed_ = data;
  file_size_ = data.size();
  Status status = OpenCommon();
  if (!status.ok()) ResetState();
  return status;
}

Status BinLogReader::Fetch(uint64_t offset, uint64_t size, std::string_view* bytes) {
  if (offset > file_size_ || size > file_size_ - offset) {
    return Status::IoError("read failed: " + path_);
  }
  if (!in_.is_open()) {
    *bytes = borrowed_.substr(static_cast<size_t>(offset), static_cast<size_t>(size));
    return Status::OK();
  }
  buffer_.resize(static_cast<size_t>(size));
  in_.seekg(static_cast<std::streamoff>(offset));
  in_.read(buffer_.data(), static_cast<std::streamsize>(size));
  if (!in_) return Status::IoError("read failed: " + path_);
  *bytes = buffer_;
  return Status::OK();
}

Status BinLogReader::OpenCommon() {
  const uint64_t size = file_size_;
  if (size < binfmt::kHeaderBytes + binfmt::kFooterBytes) {
    return ByteReader({}, 0, "header").Error("file too small for a binary log");
  }

  // Header: magic, version, flags.
  std::string_view header;
  SQLOG_RETURN_IF_ERROR(Fetch(0, binfmt::kHeaderBytes, &header));
  ByteReader header_reader(header, 0, "header");
  if (std::memcmp(header.data(), binfmt::kFileMagic, sizeof(binfmt::kFileMagic)) != 0) {
    return header_reader.Error("bad file magic");
  }
  {
    std::string_view rest = header.substr(sizeof(binfmt::kFileMagic));
    ByteReader reader(rest, sizeof(binfmt::kFileMagic), "header");
    uint32_t version = 0;
    uint32_t flags = 0;
    SQLOG_RETURN_IF_ERROR(reader.ReadU32(&version));
    if (version != binfmt::kVersion) {
      return reader.Error(StrFormat("unsupported format version %u (this build reads %u)",
                                    version, binfmt::kVersion));
    }
    SQLOG_RETURN_IF_ERROR(reader.ReadU32(&flags));
    if (flags != 0) return reader.Error(StrFormat("unsupported format flags 0x%x", flags));
  }

  // Footer, from the end.
  const uint64_t footer_offset = size - binfmt::kFooterBytes;
  std::string_view footer_bytes;
  SQLOG_RETURN_IF_ERROR(Fetch(footer_offset, binfmt::kFooterBytes, &footer_bytes));
  auto footer = binfmt::Footer::Parse(footer_bytes, footer_offset);
  SQLOG_RETURN_IF_ERROR(footer.status());

  const ByteReader footer_reader({}, footer_offset, "footer");
  if (footer->dict_offset < binfmt::kHeaderBytes ||
      footer->dict_offset > footer->strings_offset ||
      footer->strings_offset > footer->index_offset ||
      footer->index_offset > footer_offset || footer->reserved != 0) {
    return footer_reader.Error("section offsets out of bounds");
  }

  // Sections, each verified against its frame checksum. They are
  // adjacent, so one fetch reads all three.
  const uint64_t min_frame = binfmt::kSectionFrameBytes;
  if (footer->strings_offset - footer->dict_offset < min_frame ||
      footer->index_offset - footer->strings_offset < min_frame ||
      footer_offset - footer->index_offset < min_frame) {
    return footer_reader.Error("section offsets out of bounds");
  }
  std::string_view sections;
  SQLOG_RETURN_IF_ERROR(
      Fetch(footer->dict_offset, footer_offset - footer->dict_offset, &sections));
  auto section = [&](uint64_t offset, uint64_t end, uint32_t magic, const char* name,
                     std::string_view* payload) {
    return CheckSectionFrame(sections.substr(offset - footer->dict_offset, end - offset),
                             offset, magic, name, payload);
  };
  std::string_view dict_payload;
  std::string_view strings_payload;
  std::string_view index_payload;
  SQLOG_RETURN_IF_ERROR(section(footer->dict_offset, footer->strings_offset,
                                binfmt::kDictMagic, "dictionary", &dict_payload));
  SQLOG_RETURN_IF_ERROR(section(footer->strings_offset, footer->index_offset,
                                binfmt::kStringsMagic, "strings", &strings_payload));
  SQLOG_RETURN_IF_ERROR(section(footer->index_offset, footer_offset, binfmt::kIndexMagic,
                                "index", &index_payload));
  SQLOG_RETURN_IF_ERROR(DecodeMetadata(dict_payload, strings_payload, index_payload,
                                       footer->dict_offset, footer->strings_offset,
                                       footer->index_offset));

  // Cross-checks binding the index to the footer's global counts.
  if (index_.size() != footer->block_count ||
      dictionary_.size() != footer->dict_count ||
      strings_.size() != footer->string_count) {
    return footer_reader.Error("footer counts disagree with the decoded sections");
  }
  uint64_t indexed_records = 0;
  for (const IndexRow& row : index_) indexed_records += row.record_count;
  if (indexed_records != footer->record_count) {
    return footer_reader.Error("index record counts disagree with the footer");
  }
  for (size_t i = 0; i < index_.size(); ++i) {
    const uint64_t block_end = i + 1 < index_.size() ? index_[i + 1].offset
                                                     : footer->dict_offset;
    if (index_[i].offset < binfmt::kHeaderBytes ||
        index_[i].offset + binfmt::kBlockFrameBytes > block_end ||
        block_end > footer->dict_offset) {
      return footer_reader.Error(StrFormat("block %zu offset out of bounds", i));
    }
    // FlushBlock writes at least one byte per record in each of the
    // seven columns, so a larger count is corrupt — reject it here, before
    // a caller sizes anything by record_count().
    const uint64_t payload_bytes = block_end - index_[i].offset - binfmt::kBlockFrameBytes;
    if (index_[i].record_count > payload_bytes / 7) {
      return footer_reader.Error(
          StrFormat("block %zu record count exceeds its payload size", i));
    }
  }
  record_count_ = footer->record_count;

  // Keep the dictionary offsets so block decoding can locate payloads;
  // stash block extents in the index rows' offset fields (extent ends
  // are derived per block in DecodeBlock from the successor / footer).
  dict_offset_end_ = footer->dict_offset;
  return Status::OK();
}

Status BinLogReader::DecodeMetadata(std::string_view dict, std::string_view strings,
                                    std::string_view index, uint64_t dict_offset,
                                    uint64_t strings_offset, uint64_t index_offset) {
  // String table.
  {
    ByteReader reader(strings, strings_offset + binfmt::kSectionFrameBytes, "strings");
    uint64_t count = 0;
    SQLOG_RETURN_IF_ERROR(reader.ReadVarint(&count));
    if (count > strings.size()) return reader.Error("string count exceeds section size");
    strings_.reserve(static_cast<size_t>(count));
    for (uint64_t i = 0; i < count; ++i) {
      std::string_view value;
      SQLOG_RETURN_IF_ERROR(reader.ReadLengthDelimited(&value));
      strings_.emplace_back(value);
    }
    if (!reader.exhausted()) return reader.Error("trailing bytes");
  }

  // Dictionary.
  {
    ByteReader reader(dict, dict_offset + binfmt::kSectionFrameBytes, "dictionary");
    uint64_t count = 0;
    SQLOG_RETURN_IF_ERROR(reader.ReadVarint(&count));
    if (count > dict.size()) return reader.Error("template count exceeds section size");
    dictionary_.reserve(static_cast<size_t>(count));
    templates_.reserve(static_cast<size_t>(count));
    for (uint64_t i = 0; i < count; ++i) {
      DictionaryEntry entry;
      std::string_view text;
      SQLOG_RETURN_IF_ERROR(reader.ReadLengthDelimited(&text));
      entry.text.assign(text);
      uint64_t span_count = 0;
      SQLOG_RETURN_IF_ERROR(reader.ReadVarint(&span_count));
      if (span_count > text.size()) {
        return reader.Error("constant span count exceeds template size");
      }
      DecodedTemplate decoded;
      decoded.span_count = static_cast<size_t>(span_count);
      entry.spans.reserve(decoded.span_count);
      decoded.pieces.reserve(decoded.span_count + 1);
      uint64_t cursor = 0;
      for (uint64_t j = 0; j < span_count; ++j) {
        uint64_t start_delta = 0;
        uint64_t length = 0;
        SQLOG_RETURN_IF_ERROR(reader.ReadVarint(&start_delta));
        SQLOG_RETURN_IF_ERROR(reader.ReadVarint(&length));
        const uint64_t start = cursor + start_delta;
        if (start > text.size() || length > text.size() - start) {
          return reader.Error("constant span out of template bounds");
        }
        decoded.pieces.emplace_back(text.substr(static_cast<size_t>(cursor),
                                                static_cast<size_t>(start - cursor)));
        entry.spans.emplace_back(static_cast<uint32_t>(start),
                                 static_cast<uint32_t>(length));
        cursor = start + length;
      }
      decoded.pieces.emplace_back(text.substr(static_cast<size_t>(cursor)));
      for (const std::string& piece : decoded.pieces) {
        decoded.pieces_bytes += piece.size();
      }
      std::string_view recipe;
      SQLOG_RETURN_IF_ERROR(reader.ReadLengthDelimited(&recipe));
      entry.recipe.assign(recipe);
      dictionary_.push_back(std::move(entry));
      templates_.push_back(std::move(decoded));
    }
    if (!reader.exhausted()) return reader.Error("trailing bytes");
  }

  // Block index.
  {
    ByteReader reader(index, index_offset + binfmt::kSectionFrameBytes, "index");
    uint64_t count = 0;
    SQLOG_RETURN_IF_ERROR(reader.ReadVarint(&count));
    if (count > index.size()) return reader.Error("block count exceeds section size");
    index_.reserve(static_cast<size_t>(count));
    uint64_t previous_offset = binfmt::kHeaderBytes;
    int64_t previous_ts = 0;
    for (uint64_t i = 0; i < count; ++i) {
      uint64_t offset_delta = 0;
      IndexRow row;
      SQLOG_RETURN_IF_ERROR(reader.ReadVarint(&offset_delta));
      SQLOG_RETURN_IF_ERROR(reader.ReadVarint(&row.record_count));
      int64_t ts_delta = 0;
      SQLOG_RETURN_IF_ERROR(reader.ReadZigzag(&ts_delta));
      row.offset = previous_offset + offset_delta;
      if (i > 0 && offset_delta == 0) return reader.Error("non-ascending block offsets");
      row.first_timestamp = previous_ts + ts_delta;
      previous_offset = row.offset;
      previous_ts = row.first_timestamp;
      index_.push_back(row);
    }
    if (!reader.exhausted()) return reader.Error("trailing bytes");
  }
  return Status::OK();
}

Status BinLogReader::DecodeBlock(size_t block_index) {
  const uint64_t offset = index_[block_index].offset;
  const uint64_t end = block_index + 1 < index_.size() ? index_[block_index + 1].offset
                                                       : dict_offset_end_;
  const std::string section_name = StrFormat("block %zu", block_index);

  std::string_view frame;
  SQLOG_RETURN_IF_ERROR(Fetch(offset, end - offset, &frame));

  ByteReader frame_reader(frame, offset, section_name);
  uint32_t magic = 0;
  uint32_t payload_len = 0;
  uint32_t declared_count = 0;
  uint64_t checksum = 0;
  SQLOG_RETURN_IF_ERROR(frame_reader.ReadU32(&magic));
  if (magic != binfmt::kBlockMagic) return frame_reader.Error("bad block magic");
  SQLOG_RETURN_IF_ERROR(frame_reader.ReadU32(&payload_len));
  SQLOG_RETURN_IF_ERROR(frame_reader.ReadU32(&declared_count));
  SQLOG_RETURN_IF_ERROR(frame_reader.ReadU64(&checksum));
  if (payload_len != frame.size() - binfmt::kBlockFrameBytes) {
    return frame_reader.Error("block length disagrees with the index");
  }
  if (declared_count != index_[block_index].record_count) {
    return frame_reader.Error("block record count disagrees with the index");
  }
  std::string_view payload = frame.substr(binfmt::kBlockFrameBytes);
  if (Fnv1a64(payload) != checksum) return frame_reader.Error("block checksum mismatch");

  const size_t n = declared_count;
  // The truth column alone needs one byte per record, so any plausible
  // count is bounded by the payload size — reject before allocating.
  if (n > payload.size()) return frame_reader.Error("record count exceeds block size");

  block_records_.assign(n, LogRecord{});
  // Shapes are reset per record in the statement column below rather
  // than reassigned here: keeping the elements alive lets their span
  // vectors retain capacity across blocks (zero steady-state allocs).
  if (block_shapes_.size() < n) block_shapes_.resize(n);
  ByteReader reader(payload, offset + binfmt::kBlockFrameBytes, section_name);

  // Column 1: seq.
  uint64_t seq = 0;
  for (size_t i = 0; i < n; ++i) {
    if (i == 0) {
      SQLOG_RETURN_IF_ERROR(reader.ReadVarint(&seq));
    } else {
      int64_t delta = 0;
      SQLOG_RETURN_IF_ERROR(reader.ReadZigzag(&delta));
      seq += static_cast<uint64_t>(delta);
    }
    block_records_[i].seq = seq;
  }
  // Column 2: timestamps.
  int64_t ts = 0;
  for (size_t i = 0; i < n; ++i) {
    int64_t value = 0;
    SQLOG_RETURN_IF_ERROR(reader.ReadZigzag(&value));
    ts = i == 0 ? value : ts + value;
    block_records_[i].timestamp_ms = ts;
  }
  if (n > 0 && block_records_[0].timestamp_ms != index_[block_index].first_timestamp) {
    return reader.Error("block first timestamp disagrees with the index");
  }
  // Columns 3-4: user/session ids.
  for (size_t i = 0; i < n; ++i) {
    uint64_t id = 0;
    SQLOG_RETURN_IF_ERROR(reader.ReadVarint(&id));
    if (id >= strings_.size()) return reader.Error("user id outside the string table");
    block_records_[i].user = strings_[static_cast<size_t>(id)];
  }
  for (size_t i = 0; i < n; ++i) {
    uint64_t id = 0;
    SQLOG_RETURN_IF_ERROR(reader.ReadVarint(&id));
    if (id >= strings_.size()) return reader.Error("session id outside the string table");
    block_records_[i].session = strings_[static_cast<size_t>(id)];
  }
  // Column 5: row counts.
  for (size_t i = 0; i < n; ++i) {
    SQLOG_RETURN_IF_ERROR(reader.ReadZigzag(&block_records_[i].row_count));
  }
  // Column 6: truth labels.
  std::string_view truth_bytes;
  SQLOG_RETURN_IF_ERROR(reader.ReadBytes(n, &truth_bytes));
  for (size_t i = 0; i < n; ++i) {
    uint8_t value = static_cast<uint8_t>(truth_bytes[i]);
    if (value > kMaxTruthByte) return reader.Error("unknown truth label");
    block_records_[i].truth = static_cast<TruthLabel>(value);
  }
  // Column 7: statements — template reference + constants, or verbatim.
  for (size_t i = 0; i < n; ++i) {
    RecordShape& shape = block_shapes_[i];
    shape.template_ordinal = RecordShape::kVerbatim;
    shape.constants.clear();
    uint64_t tag = 0;
    SQLOG_RETURN_IF_ERROR(reader.ReadVarint(&tag));
    if (tag == 0) {
      std::string_view text;
      SQLOG_RETURN_IF_ERROR(reader.ReadLengthDelimited(&text));
      block_records_[i].statement.assign(text);
      continue;
    }
    const uint64_t dict_id = tag - 1;
    if (dict_id >= templates_.size()) {
      return reader.Error("template id outside the dictionary");
    }
    const DecodedTemplate& tmpl = templates_[static_cast<size_t>(dict_id)];
    std::string& statement = block_records_[i].statement;
    shape.template_ordinal = static_cast<uint32_t>(dict_id);
    shape.constants.reserve(tmpl.span_count);
    statement.clear();
    // One allocation instead of log(n) growth steps: pieces are known,
    // constants rarely exceed ~24 rendered bytes each.
    statement.reserve(tmpl.pieces_bytes + 24 * tmpl.span_count);
    for (size_t j = 0; j < tmpl.span_count; ++j) {
      statement.append(tmpl.pieces[j]);
      const size_t constant_start = statement.size();
      SQLOG_RETURN_IF_ERROR(ReadPackedConstant(reader, &statement));
      shape.constants.emplace_back(static_cast<uint32_t>(constant_start),
                                   static_cast<uint32_t>(statement.size() - constant_start));
    }
    statement.append(tmpl.pieces[tmpl.span_count]);
  }
  if (!reader.exhausted()) return reader.Error("trailing bytes in block payload");
  return Status::OK();
}

Status BinLogReader::ReadRecord(LogRecord* record, bool* eof) {
  *eof = false;
  while (next_record_ >= block_records_.size()) {
    if (next_block_ >= index_.size()) {
      *eof = true;
      return Status::OK();
    }
    SQLOG_RETURN_IF_ERROR(DecodeBlock(next_block_));
    ++next_block_;
    next_record_ = 0;
  }
  *record = std::move(block_records_[next_record_]);
  last_shape_ = &block_shapes_[next_record_];
  ++next_record_;
  ++records_read_;
  return Status::OK();
}

}  // namespace sqlog::log
