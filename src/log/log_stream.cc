#include "log/log_stream.h"

#include <charconv>
#include <string_view>

#include "util/string_util.h"

namespace sqlog::log {

namespace {

/// Trims a field for inclusion in an error message (malformed fields can
/// be arbitrarily long statements).
std::string FieldPreview(const std::string& field) {
  constexpr size_t kMax = 32;
  if (field.size() <= kMax) return field;
  return field.substr(0, kMax) + "...";
}

/// Strict full-field integer parse: the entire field must be one valid
/// in-range number — no leading whitespace, no trailing characters, no
/// silent overflow (everything std::strtoull happily ignores).
template <typename IntT>
Status ParseIntField(const std::string& field, const char* name,
                     uint64_t line_number, IntT* out) {
  const char* begin = field.data();
  const char* end = begin + field.size();
  IntT value{};
  auto [ptr, ec] = std::from_chars(begin, end, value, 10);
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

constexpr size_t kLogCsvFieldCount = 7;

/// True when `line` looks like the file-format header (first column name
/// in place of a numeric seq).
bool IsLogCsvHeaderLine(std::string_view line) {
  return StartsWithIgnoreCase(line, "seq,");
}

/// Assembles a LogRecord from one parsed CSV row, validating every
/// numeric field strictly: non-numeric, partially-numeric, and
/// overflowing values are ParseErrors naming the 1-based `line_number`
/// and the offending field — never silently read as 0.
Result<LogRecord> RecordFromCsvFields(std::vector<std::string>&& fields,
                                      uint64_t line_number) {
  if (fields.size() != kLogCsvFieldCount) {
    return Status::ParseError(StrFormat("line %llu: expected %zu CSV fields, got %zu",
                                        (unsigned long long)line_number,
                                        kLogCsvFieldCount, fields.size()));
  }
  LogRecord record;
  SQLOG_RETURN_IF_ERROR_R(ParseIntField(fields[0], "seq", line_number, &record.seq));
  SQLOG_RETURN_IF_ERROR_R(
      ParseIntField(fields[1], "timestamp_ms", line_number, &record.timestamp_ms));
  SQLOG_RETURN_IF_ERROR_R(
      ParseIntField(fields[4], "row_count", line_number, &record.row_count));
  record.user = std::move(fields[2]);
  record.session = std::move(fields[3]);
  record.truth = ParseTruthLabel(fields[5]);
  record.statement = std::move(fields[6]);
  return record;
}

}  // namespace

void AppendCsvRow(const LogRecord& record, uint64_t seq, std::string& out) {
  out += std::to_string(seq);
  out.push_back(',');
  out += std::to_string(record.timestamp_ms);
  out.push_back(',');
  out += Csv::EscapeField(record.user);
  out.push_back(',');
  out += Csv::EscapeField(record.session);
  out.push_back(',');
  out += std::to_string(record.row_count);
  out.push_back(',');
  out += TruthLabelName(record.truth);
  out.push_back(',');
  out += Csv::EscapeField(record.statement);
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
  chunk_.resize(options_.chunk_bytes);
  splitter_ = Csv::LineSplitter();
  source_drained_ = false;
  exhausted_ = false;
  line_number_ = 0;
  records_read_ = 0;
  return Status::OK();
}

Status LogReader::NextLine(std::string* line, bool* got) {
  *got = false;
  while (true) {
    if (splitter_.Next(line)) {
      *got = true;
      return Status::OK();
    }
    if (source_drained_) return Status::OK();
    in_.read(chunk_.data(), static_cast<std::streamsize>(chunk_.size()));
    std::streamsize n = in_.gcount();
    if (n > 0) splitter_.Feed(std::string_view(chunk_.data(), static_cast<size_t>(n)));
    if (in_.eof()) {
      splitter_.Finish();
      source_drained_ = true;
      if (splitter_.truncated_in_quotes()) {
        return Status::ParseError(
            StrFormat("line %llu: input truncated inside a quoted field",
                      (unsigned long long)(line_number_ + 1)));
      }
    } else if (!in_) {
      return Status::IoError("read failed: " + path_);
    }
  }
}

Status LogReader::ReadRecord(LogRecord* record, bool* eof) {
  *eof = false;
  std::string line;
  while (true) {
    bool got = false;
    SQLOG_RETURN_IF_ERROR(NextLine(&line, &got));
    if (!got) {
      exhausted_ = true;
      *eof = true;
      return Status::OK();
    }
    ++line_number_;
    if (Trim(line).empty()) continue;
    if (IsLogCsvHeaderLine(line)) {
      // The header is legal only as the very first logical line; a
      // header inside the file would otherwise be swallowed as data.
      if (line_number_ == 1) continue;
      return Status::ParseError(StrFormat("line %llu: stray header row",
                                          (unsigned long long)line_number_));
    }
    auto fields = Csv::ParseLine(line);
    if (!fields.ok()) {
      return Status::ParseError(StrFormat("line %llu: %s",
                                          (unsigned long long)line_number_,
                                          fields.status().message().c_str()));
    }
    auto parsed = RecordFromCsvFields(std::move(fields.value()), line_number_);
    if (!parsed.ok()) return parsed.status();
    *record = std::move(parsed.value());
    ++records_read_;
    return Status::OK();
  }
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
