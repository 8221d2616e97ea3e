#ifndef SQLOG_LOG_LOG_STREAM_H_
#define SQLOG_LOG_LOG_STREAM_H_

#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "log/record.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace sqlog::log {

/// The CSV header of the query-log file format (shared by LogIo and the
/// streaming reader/writer).
inline constexpr const char* kLogCsvHeader =
    "seq,timestamp_ms,user,session,row_count,truth,statement";

/// Appends one CSV row (no trailing work left to the caller: includes
/// the '\n') for `record`, with `seq` written in place of record.seq.
/// Byte-identical to the rows LogIo::ToCsv emits. Integers are written
/// with std::to_chars; a text field holding a comma, quote, CR or LF is
/// quoted, with each embedded quote doubled. Every byte goes straight
/// into `out`.
void AppendCsvRow(const LogRecord& record, uint64_t seq, std::string& out);

/// Format-agnostic record-stream seams. The CSV LogReader/LogWriter and
/// the binary BinLogReader/BinLogWriter (log/binlog.h) both implement
/// them, so the streaming pipeline and the CLI can ingest or emit either
/// format through one code path (LogIo picks the implementation by
/// magic-byte detection).
class RecordReader {
 public:
  virtual ~RecordReader() = default;

  /// Opens `path` for reading; IoError when it cannot be opened (a
  /// structurally invalid file may also fail here with a ParseError).
  virtual Status Open(const std::string& path) = 0;

  /// Reads the next record into `*record`. Sets `*eof` (and leaves
  /// `*record` untouched) when the input is exhausted.
  virtual Status ReadRecord(LogRecord* record, bool* eof) = 0;

  /// Records decoded so far.
  virtual uint64_t records_read() const = 0;
};

class RecordWriter {
 public:
  virtual ~RecordWriter() = default;

  /// Opens `path` for writing (truncates); IoError on failure.
  virtual Status Open(const std::string& path) = 0;

  /// Appends one record.
  virtual Status Append(const LogRecord& record) = 0;

  /// Appends one record whose statement may still be a `.sqb` source
  /// reader's rendering of a dictionary template: `shape` is the shape
  /// that reader reported for it (BinLogReader::last_shape()), or null.
  /// The bytes written are always those Append would write; a writer
  /// that cannot use the shape (every writer but a BinLogWriter given
  /// the reader through SetSource) simply calls Append.
  virtual Status AppendShaped(const LogRecord& record, const RecordShape* shape) {
    (void)shape;
    return Append(record);
  }

  /// Finalizes and closes the output. Append afterwards is an error;
  /// Open may be called again.
  virtual Status Close() = 0;

  virtual uint64_t records_written() const = 0;
};

/// Options for LogReader.
struct LogReaderOptions {
  /// File-read granularity; memory held by the reader is O(chunk_bytes +
  /// longest logical line).
  size_t chunk_bytes = 1 << 20;
};

/// Chunked, bounded-memory CSV log reader, and the only CSV read path
/// (LogIo::ReadFile and LogIo::OpenLogReader use it). The file is read
/// `chunk_bytes` at a time into one buffer, and each record is decoded
/// in place from it: one scan finds the logical line's end (a byte loop
/// outside quotes, memchr inside them; quote state carries across reads,
/// so a quoted multi-line statement may span any number of them), and a
/// second splits its seven fields and assigns them into the caller's
/// LogRecord. The buffer grows only for a logical line longer than one
/// chunk. The header is recognized only on the first logical line; a
/// stray header mid-file is a ParseError, as is a wrong field count or
/// any malformed numeric field, each naming its 1-based logical line. A
/// final record truncated inside a quoted field is a ParseError naming
/// its own line, returned after every complete record before it.
class LogReader : public RecordReader {
 public:
  explicit LogReader(LogReaderOptions options = {});

  LogReader(LogReader&&) = default;
  LogReader& operator=(LogReader&&) = default;

  /// Opens `path` for reading; IoError when it cannot be opened. Every
  /// later IoError names `path` too.
  Status Open(const std::string& path) override;

  /// Reads the next record into `*record`, reusing its strings'
  /// capacity. Sets `*eof` (and leaves `*record` untouched) when the
  /// input is exhausted; an error leaves it untouched too.
  Status ReadRecord(LogRecord* record, bool* eof) override;

  /// True once the underlying file is fully consumed.
  bool exhausted() const { return exhausted_; }

  /// Records decoded so far (excluding the header and blank lines).
  uint64_t records_read() const override { return records_read_; }

 private:
  /// Scans the line starting at begin_ from scan_ on, in quote state
  /// in_quotes_. True when the line is complete: its content ends at
  /// `*line_end` and the next line starts at `*next`. False when the
  /// buffered bytes end first (or end in a CR whose LF may still come).
  bool FindLineEnd(size_t* line_end, size_t* next);

  /// Moves the unconsumed bytes to the front of the buffer, doubles it
  /// when they fill it, and reads up to chunk_bytes more.
  Status Refill();

  /// Splits one complete logical line into its fields and decodes them
  /// into `*record`.
  Status DecodeRecord(std::string_view line, LogRecord* record);

  LogReaderOptions options_ SQLOG_CONST_AFTER_INIT;
  std::string path_ SQLOG_SHARD_LOCAL;  // named by every IoError
  std::ifstream in_ SQLOG_SHARD_LOCAL;
  std::vector<char> buffer_ SQLOG_SHARD_LOCAL;
  size_t begin_ SQLOG_SHARD_LOCAL = 0;  // first byte of the current logical line
  size_t scan_ SQLOG_SHARD_LOCAL = 0;   // first byte of it not yet scanned
  size_t end_ SQLOG_SHARD_LOCAL = 0;    // end of the bytes read
  bool in_quotes_ SQLOG_SHARD_LOCAL = false;       // quote state at scan_
  std::string unquoted_ SQLOG_SHARD_LOCAL;         // a field with doubled or inner quotes
  bool source_drained_ SQLOG_SHARD_LOCAL = false;  // the file is fully read
  bool exhausted_ SQLOG_SHARD_LOCAL = false;       // no more records will be produced
  uint64_t line_number_ SQLOG_SHARD_LOCAL = 0;     // 1-based logical line counter
  uint64_t records_read_ SQLOG_SHARD_LOCAL = 0;
};

/// Options for LogWriter.
struct LogWriterOptions {
  /// Emit the header as the first line.
  bool write_header = true;
  /// Write seq = output position instead of record.seq — the streaming
  /// equivalent of QueryLog::Renumber() before LogIo::WriteFile().
  bool renumber = false;
  /// Buffered bytes before an implicit Flush.
  size_t buffer_bytes = 1 << 20;
};

/// Incremental CSV log writer: records are appended one at a time into a
/// bounded buffer, so a log of any size can be written with O(buffer)
/// memory. The byte stream is identical to LogIo::WriteFile of the same
/// record sequence (after Renumber() when options.renumber is set).
class LogWriter : public RecordWriter {
 public:
  explicit LogWriter(LogWriterOptions options = {});
  ~LogWriter() override;

  LogWriter(LogWriter&&) = default;
  LogWriter& operator=(LogWriter&&) = default;

  /// Opens `path` for writing (truncates); IoError on failure. Every
  /// later IoError names `path` too.
  Status Open(const std::string& path) override;

  /// Appends one record.
  Status Append(const LogRecord& record) override;

  /// Writes buffered bytes through to the file.
  Status Flush();

  /// Flushes and closes; Append afterwards is an error. Open may be
  /// called again. Destruction without Close() flushes best-effort.
  Status Close() override;

  uint64_t records_written() const override { return records_written_; }

 private:
  LogWriterOptions options_ SQLOG_CONST_AFTER_INIT;
  std::string path_ SQLOG_SHARD_LOCAL;  // named by every IoError
  std::ofstream out_ SQLOG_SHARD_LOCAL;
  std::string buffer_ SQLOG_SHARD_LOCAL;
  bool open_ SQLOG_SHARD_LOCAL = false;
  uint64_t records_written_ SQLOG_SHARD_LOCAL = 0;
};

}  // namespace sqlog::log

#endif  // SQLOG_LOG_LOG_STREAM_H_
