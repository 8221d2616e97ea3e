#include "util/csv.h"

#include <algorithm>

namespace sqlog {

std::string Csv::EscapeField(std::string_view field, char sep) {
  bool needs_quoting = false;
  for (char c : field) {
    if (c == sep || c == '"' || c == '\n' || c == '\r') {
      needs_quoting = true;
      break;
    }
  }
  if (!needs_quoting) return std::string(field);
  std::string out;
  out.reserve(field.size() + 2);
  out.push_back('"');
  for (char c : field) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

std::string Csv::JoinLine(const std::vector<std::string>& fields, char sep) {
  std::string out;
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out.push_back(sep);
    out += EscapeField(fields[i], sep);
  }
  return out;
}

Result<std::vector<std::string>> Csv::ParseLine(std::string_view line, char sep) {
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  size_t i = 0;
  while (i < line.size()) {
    char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current.push_back('"');
          i += 2;
          continue;
        }
        in_quotes = false;
        ++i;
        continue;
      }
      current.push_back(c);
      ++i;
      continue;
    }
    if (c == '"') {
      in_quotes = true;
      ++i;
      continue;
    }
    if (c == sep) {
      fields.push_back(std::move(current));
      current.clear();
      ++i;
      continue;
    }
    current.push_back(c);
    ++i;
  }
  if (in_quotes) {
    return Status::ParseError("unterminated quoted CSV field");
  }
  fields.push_back(std::move(current));
  return fields;
}

// sqlog-hot — sqlog-lint: allow(R10 appends into splitter-owned buffers whose capacity amortizes across the stream; finished lines are moved out, not copied)
void Csv::LineSplitter::Feed(std::string_view chunk) {
  // Out of quotes, everything up to the next '"' / '\r' / '\n' is an
  // inert span appended wholesale (a byte loop: find_first_of over three
  // bytes runs one memchr per input byte in libstdc++); inside quotes,
  // everything up to the next '"', found with string_view::find (libc
  // memchr). Escaped quote pairs ("") need no special state — each quote
  // toggles in_quotes_ and is appended, so a chunk boundary between the
  // two quotes lands in a well-defined state (see the csv_test boundary
  // sweep). A lone '\r' at the end of a chunk stays deferred in
  // pending_cr_: the CR/CRLF decision needs the next byte, which may be
  // in the next chunk.
  size_t i = 0;
  const size_t n = chunk.size();
  while (i < n) {
    if (pending_cr_) {
      // The CR ended a line; a following LF belongs to the same break.
      pending_cr_ = false;
      ready_.push_back(std::move(current_));
      current_.clear();
      if (chunk[i] == '\n') ++i;
      continue;
    }
    if (in_quotes_) {
      size_t q = std::min(chunk.find('"', i), n);
      current_.append(chunk.substr(i, q - i));
      if (q == n) return;
      current_.push_back('"');
      in_quotes_ = false;
      i = q + 1;
      continue;
    }
    size_t j = i;
    while (j < n && chunk[j] != '"' && chunk[j] != '\r' && chunk[j] != '\n') ++j;
    current_.append(chunk.substr(i, j - i));
    if (j == n) return;
    char c = chunk[j];
    i = j + 1;
    if (c == '"') {
      in_quotes_ = true;
      current_.push_back('"');
      continue;
    }
    if (c == '\r') {
      if (i == n) {
        // Hold the decision: an LF may follow in the next chunk.
        pending_cr_ = true;
        return;
      }
      ready_.push_back(std::move(current_));
      current_.clear();
      if (chunk[i] == '\n') ++i;
      continue;
    }
    // '\n'
    ready_.push_back(std::move(current_));
    current_.clear();
  }
}

// sqlog-hot
bool Csv::LineSplitter::Next(std::string* line) {
  if (next_ready_ == ready_.size()) {
    if (next_ready_ != 0) {
      ready_.clear();
      next_ready_ = 0;
    }
    return false;
  }
  *line = std::move(ready_[next_ready_]);
  ++next_ready_;
  return true;
}

void Csv::LineSplitter::Finish() {
  if (finished_) return;
  finished_ = true;
  // One unified flush: a deferred CR counts as a terminator for the line
  // accumulated so far (even an empty one), and any other pending bytes
  // form a final unterminated line. This holds regardless of where the
  // caller's chunk boundaries fell — a final record ending exactly at a
  // chunk boundary without a trailing newline is still emitted.
  if (pending_cr_ || !current_.empty()) {
    pending_cr_ = false;
    ready_.push_back(std::move(current_));
    current_.clear();
  }
}

std::vector<std::string> Csv::SplitLogicalLines(std::string_view content) {
  std::vector<std::string> lines;
  std::string current;
  bool in_quotes = false;
  for (size_t i = 0; i < content.size(); ++i) {
    char c = content[i];
    if (c == '"') {
      in_quotes = !in_quotes;
      current.push_back(c);
      continue;
    }
    if (!in_quotes && (c == '\n' || c == '\r')) {
      if (c == '\r' && i + 1 < content.size() && content[i + 1] == '\n') ++i;
      lines.push_back(std::move(current));
      current.clear();
      continue;
    }
    current.push_back(c);
  }
  if (!current.empty()) lines.push_back(std::move(current));
  return lines;
}

}  // namespace sqlog
