#include "log/log_stream.h"

#include <array>
#include <charconv>
#include <cstring>

#include "util/string_util.h"

namespace sqlog::log {

namespace {

constexpr size_t kLogCsvFieldCount = 7;

/// Trims a field for inclusion in an error message (malformed fields can
/// be arbitrarily long statements).
std::string FieldPreview(std::string_view field) {
  constexpr size_t kMax = 32;
  if (field.size() <= kMax) return std::string(field);
  return std::string(field.substr(0, kMax)) + "...";
}

/// Strict full-field integer parse: the entire field must be one valid
/// in-range number — no leading whitespace, no trailing characters, no
/// silent overflow (everything std::strtoull happily ignores).
template <typename IntT>
Status ParseIntField(std::string_view field, const char* name, uint64_t line_number,
                     IntT* out) {
  const char* end = field.data() + field.size();
  IntT value{};
  auto [ptr, ec] = std::from_chars(field.data(), end, value, 10);
  if (ec == std::errc::result_out_of_range) {
    return Status::ParseError(StrFormat("line %llu: %s out of range: '%s'",
                                        (unsigned long long)line_number, name,
                                        FieldPreview(field).c_str()));
  }
  if (ec != std::errc() || ptr != end) {
    return Status::ParseError(StrFormat("line %llu: invalid %s: '%s'",
                                        (unsigned long long)line_number, name,
                                        FieldPreview(field).c_str()));
  }
  *out = value;
  return Status::OK();
}

/// True when `line` looks like the file-format header (first column name
/// in place of a numeric seq).
bool IsLogCsvHeaderLine(std::string_view line) {
  return StartsWithIgnoreCase(line, "seq,");
}

/// One field of a logical line as it stands in the file.
struct RawField {
  std::string_view bytes;
  bool quoted = false;  // holds at least one quote
};

/// Splits one complete logical line at the commas outside quotes (each
/// quote opens or closes a quoted run, so a doubled quote closes and
/// reopens one). Stores the first kLogCsvFieldCount fields and returns
/// how many there are.
// sqlog-hot
size_t SplitFields(std::string_view line, std::array<RawField, kLogCsvFieldCount>* fields) {
  const size_t n = line.size();
  size_t count = 0;
  size_t start = 0;
  size_t i = 0;
  bool quoted = false;
  while (true) {
    while (i < n && line[i] != ',') {
      if (line[i] != '"') {
        ++i;
        continue;
      }
      // A complete line holds an even number of quotes, so the run closes.
      quoted = true;
      const size_t close = line.find('"', i + 1);
      i = close == std::string_view::npos ? n : close + 1;
    }
    if (count < kLogCsvFieldCount) (*fields)[count] = {line.substr(start, i - start), quoted};
    ++count;
    if (i == n) return count;
    start = ++i;
    quoted = false;
  }
}

/// The value of `field` under RFC-4180 quote rules: a quote opens or
/// closes a quoted run wherever it stands, and a doubled quote inside a
/// run is one literal quote. A field without quotes, or one quoted run
/// without inner quotes, is a view into the line; any other is decoded
/// into `*scratch`.
// sqlog-hot — sqlog-lint: allow(R10 scratch is reader-owned and keeps its capacity; only fields with doubled or inner quotes reach it)
std::string_view Unquote(const RawField& field, std::string* scratch) {
  const std::string_view raw = field.bytes;
  if (!field.quoted) return raw;
  if (raw.size() >= 2 && raw.front() == '"' && raw.find('"', 1) == raw.size() - 1) {
    return raw.substr(1, raw.size() - 2);
  }
  scratch->clear();
  bool in_quotes = false;
  for (size_t i = 0; i < raw.size(); ++i) {
    if (raw[i] != '"') {
      scratch->push_back(raw[i]);
    } else if (in_quotes && i + 1 < raw.size() && raw[i + 1] == '"') {
      scratch->push_back('"');
      ++i;
    } else {
      in_quotes = !in_quotes;
    }
  }
  return *scratch;
}

/// Appends `field` CSV-escaped: quoted when it holds a comma, quote, CR
/// or LF, with each embedded quote doubled.
// sqlog-hot — sqlog-lint: allow(R10 appends into the caller's row buffer, whose capacity persists across rows)
void AppendCsvField(std::string_view field, std::string& out) {
  size_t i = 0;
  while (i < field.size() && field[i] != ',' && field[i] != '"' && field[i] != '\n' &&
         field[i] != '\r') {
    ++i;
  }
  if (i == field.size()) {
    out.append(field);
    return;
  }
  // No quote precedes byte i: copy up to and including each quote, then
  // double it.
  out.push_back('"');
  size_t begin = 0;
  for (size_t quote = field.find('"', i); quote != std::string_view::npos;
       quote = field.find('"', begin)) {
    out.append(field.substr(begin, quote + 1 - begin));
    out.push_back('"');
    begin = quote + 1;
  }
  out.append(field.substr(begin));
  out.push_back('"');
}

template <typename IntT>
// sqlog-hot — sqlog-lint: allow(R10 appends into the caller's row buffer, whose capacity persists across rows)
void AppendInt(IntT value, std::string& out) {
  char digits[24];
  const auto result = std::to_chars(digits, digits + sizeof(digits), value);
  out.append(digits, result.ptr);
}

}  // namespace

// sqlog-hot — sqlog-lint: allow(R10 appends into the caller's row buffer, whose capacity persists across rows)
void AppendCsvRow(const LogRecord& record, uint64_t seq, std::string& out) {
  AppendInt(seq, out);
  out.push_back(',');
  AppendInt(record.timestamp_ms, out);
  out.push_back(',');
  AppendCsvField(record.user, out);
  out.push_back(',');
  AppendCsvField(record.session, out);
  out.push_back(',');
  AppendInt(record.row_count, out);
  out.push_back(',');
  out.append(TruthLabelName(record.truth));
  out.push_back(',');
  AppendCsvField(record.statement, out);
  out.push_back('\n');
}

// ---------------------------------------------------------------- LogReader

LogReader::LogReader(LogReaderOptions options) : options_(options) {
  if (options_.chunk_bytes == 0) options_.chunk_bytes = 4096;
}

Status LogReader::Open(const std::string& path) {
  path_ = path;
  in_.open(path, std::ios::binary);
  if (!in_) return Status::IoError("cannot open for reading: " + path);
  buffer_.resize(options_.chunk_bytes);
  begin_ = 0;
  scan_ = 0;
  end_ = 0;
  in_quotes_ = false;
  source_drained_ = false;
  exhausted_ = false;
  line_number_ = 0;
  records_read_ = 0;
  return Status::OK();
}

// sqlog-hot
bool LogReader::FindLineEnd(size_t* line_end, size_t* next) {
  // Locals, not members, in the loop: the buffer's chars may alias them.
  const char* data = buffer_.data();
  const size_t end = end_;
  bool in_quotes = in_quotes_;
  size_t i = scan_;
  while (i < end) {
    if (in_quotes) {
      // Only the closing quote matters inside quotes; a doubled quote
      // closes the run and reopens it.
      const void* quote = std::memchr(data + i, '"', end - i);
      if (quote == nullptr) {
        i = end;
        break;
      }
      i = static_cast<size_t>(static_cast<const char*>(quote) - data) + 1;
      in_quotes = false;
      continue;
    }
    const char c = data[i];
    if (c != '"' && c != '\n' && c != '\r') {
      ++i;
      continue;
    }
    if (c == '"') {
      in_quotes = true;
      ++i;
      continue;
    }
    // A CR at the end of the bytes read waits for the next read: CRLF is
    // one terminator, not two.
    if (c == '\r' && i + 1 == end && !source_drained_) break;
    *line_end = i;
    *next = i + 1;
    if (c == '\r' && *next < end && data[*next] == '\n') ++*next;
    in_quotes_ = false;
    return true;
  }
  scan_ = i;
  in_quotes_ = in_quotes;
  return false;
}

Status LogReader::Refill() {
  if (begin_ > 0) {
    std::memmove(buffer_.data(), buffer_.data() + begin_, end_ - begin_);
    scan_ -= begin_;
    end_ -= begin_;
    begin_ = 0;
  }
  if (end_ == buffer_.size()) buffer_.resize(buffer_.size() * 2);
  const size_t want = std::min(options_.chunk_bytes, buffer_.size() - end_);
  in_.read(buffer_.data() + end_, static_cast<std::streamsize>(want));
  end_ += static_cast<size_t>(in_.gcount());
  if (in_.eof()) {
    source_drained_ = true;
  } else if (!in_) {
    return Status::IoError("read failed: " + path_);
  }
  return Status::OK();
}

// sqlog-hot
Status LogReader::ReadRecord(LogRecord* record, bool* eof) {
  *eof = false;
  while (true) {
    size_t line_end = 0;
    size_t next = 0;
    if (!FindLineEnd(&line_end, &next)) {
      if (!source_drained_) {
        SQLOG_RETURN_IF_ERROR(Refill());
        continue;
      }
      if (begin_ == end_) {
        exhausted_ = true;
        *eof = true;
        return Status::OK();
      }
      if (in_quotes_) {
        return Status::ParseError(
            StrFormat("line %llu: input truncated inside a quoted field",
                      (unsigned long long)(line_number_ + 1)));
      }
      line_end = next = end_;  // the final line has no terminator
    }
    ++line_number_;
    const std::string_view line(buffer_.data() + begin_, line_end - begin_);
    begin_ = scan_ = next;
    if (Trim(line).empty()) continue;
    if (IsLogCsvHeaderLine(line)) {
      // The header is legal only as the very first logical line; a
      // header inside the file would otherwise be swallowed as data.
      if (line_number_ == 1) continue;
      return Status::ParseError(StrFormat("line %llu: stray header row",
                                          (unsigned long long)line_number_));
    }
    SQLOG_RETURN_IF_ERROR(DecodeRecord(line, record));
    ++records_read_;
    return Status::OK();
  }
}

// sqlog-hot — sqlog-lint: allow(R10 assigns into the caller's record, reusing its strings' capacity; a moved-from string takes one exact-size allocation)
Status LogReader::DecodeRecord(std::string_view line, LogRecord* record) {
  std::array<RawField, kLogCsvFieldCount> fields;
  const size_t count = SplitFields(line, &fields);
  if (count != kLogCsvFieldCount) {
    return Status::ParseError(StrFormat("line %llu: expected %zu CSV fields, got %zu",
                                        (unsigned long long)line_number_,
                                        kLogCsvFieldCount, count));
  }
  // Numbers first, so a malformed row leaves *record untouched.
  uint64_t seq = 0;
  int64_t timestamp_ms = 0;
  int64_t row_count = 0;
  SQLOG_RETURN_IF_ERROR(
      ParseIntField(Unquote(fields[0], &unquoted_), "seq", line_number_, &seq));
  SQLOG_RETURN_IF_ERROR(ParseIntField(Unquote(fields[1], &unquoted_), "timestamp_ms",
                                      line_number_, &timestamp_ms));
  SQLOG_RETURN_IF_ERROR(ParseIntField(Unquote(fields[4], &unquoted_), "row_count",
                                      line_number_, &row_count));
  record->seq = seq;
  record->timestamp_ms = timestamp_ms;
  record->row_count = row_count;
  record->user.assign(Unquote(fields[2], &unquoted_));
  record->session.assign(Unquote(fields[3], &unquoted_));
  record->truth = ParseTruthLabel(Unquote(fields[5], &unquoted_));
  record->statement.assign(Unquote(fields[6], &unquoted_));
  return Status::OK();
}

// ---------------------------------------------------------------- LogWriter

LogWriter::LogWriter(LogWriterOptions options) : options_(options) {
  if (options_.buffer_bytes == 0) options_.buffer_bytes = 4096;
}

LogWriter::~LogWriter() {
  if (open_) (void)Close();  // best-effort; callers wanting errors call Close()
}

Status LogWriter::Open(const std::string& path) {
  path_ = path;
  out_.open(path, std::ios::binary | std::ios::trunc);
  if (!out_) return Status::IoError("cannot open for writing: " + path);
  open_ = true;
  records_written_ = 0;
  buffer_.clear();
  if (options_.write_header) {
    buffer_ = kLogCsvHeader;
    buffer_.push_back('\n');
  }
  return Status::OK();
}

Status LogWriter::Append(const LogRecord& record) {
  if (!open_) return Status::Internal("LogWriter::Append on a closed writer");
  AppendCsvRow(record, options_.renumber ? records_written_ : record.seq, buffer_);
  ++records_written_;
  if (buffer_.size() >= options_.buffer_bytes) return Flush();
  return Status::OK();
}

Status LogWriter::Flush() {
  if (!open_) return Status::Internal("LogWriter::Flush on a closed writer");
  if (!buffer_.empty()) {
    out_.write(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
    buffer_.clear();
    if (!out_) return Status::IoError("write failed: " + path_);
  }
  return Status::OK();
}

Status LogWriter::Close() {
  if (!open_) return Status::OK();
  Status flushed = Flush();
  open_ = false;
  out_.close();
  if (!flushed.ok()) return flushed;
  if (out_.fail()) return Status::IoError("close failed: " + path_);
  return Status::OK();
}

}  // namespace sqlog::log
