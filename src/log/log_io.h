#ifndef SQLOG_LOG_LOG_IO_H_
#define SQLOG_LOG_LOG_IO_H_

#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "log/log_stream.h"
#include "log/record.h"
#include "util/status.h"

namespace sqlog::log {

/// On-disk query-log formats. kAuto resolves by content for reads (the
/// `.sqb` magic is probed, so a renamed file still opens correctly) and
/// by file extension for writes.
enum class LogFormat {
  kAuto,
  kCsv,  // the textual format of kLogCsvHeader
  kSqb,  // the template-dictionary binary container (log/binlog.h)
};

/// Returns a stable name ("auto", "csv", "sqb") for a format.
const char* LogFormatName(LogFormat format);

/// Parses a `--format=` flag value; InvalidArgument on anything but
/// "auto", "csv" or "sqb".
Result<LogFormat> ParseLogFormatName(std::string_view name);

/// Probes the first bytes of `path`: the 8-byte `.sqb` magic means
/// kSqb, anything else (including a short or empty file) means kCsv —
/// CSV has no magic, so it is the fallback, and a corrupt binary file
/// still fails with a precise ParseError once actually opened as kSqb.
Result<LogFormat> DetectLogFormat(const std::string& path);

/// Resolves kAuto for a read of `path` via DetectLogFormat; concrete
/// formats pass through.
Result<LogFormat> ResolveReadFormat(LogFormat format, const std::string& path);

/// Resolves kAuto for a write to `path`: a ".sqb" extension means kSqb,
/// anything else kCsv.
LogFormat ResolveWriteFormat(LogFormat format, const std::string& path);

/// InvalidArgument naming both paths when two of `files` — (role, path)
/// pairs such as {"input", in} — are one file: an existing file reached
/// under two names (std::filesystem::equivalent), or the same
/// not-yet-existing path. Commands check this before opening any
/// writer, so an output never truncates an input or another output.
Status RequireDistinctFiles(
    std::initializer_list<std::pair<const char*, std::string>> files);

/// Builds the serialized template recipe stored with each dictionary
/// entry of a `.sqb` file (core::BuildStatementRecipe has this shape —
/// the log layer only transports the bytes).
using RecipeBuilder = std::function<std::string(const std::string&)>;

/// File serialization of query logs. The CSV format (with header row):
///   seq,timestamp_ms,user,session,row_count,truth,statement
/// Statements are CSV-escaped, so embedded commas/quotes/newlines
/// round-trip. The binary `.sqb` format round-trips the same records
/// byte-identically through a template dictionary (log/binlog.h).
class LogIo {
 public:
  /// Serializes a log to CSV text.
  static std::string ToCsv(const QueryLog& log);

  /// Writes a log to a file. kAuto picks the format from the extension;
  /// `recipe_builder` (used only for kSqb) adds parse-cache recipes to
  /// the dictionary so readers can ingest with zero full parses.
  static Status WriteFile(const QueryLog& log, const std::string& path,
                          LogFormat format = LogFormat::kCsv,
                          RecipeBuilder recipe_builder = nullptr);

  /// Reads a log from a file, record by record through OpenLogReader's
  /// reader; kAuto probes the content.
  static Result<QueryLog> ReadFile(const std::string& path,
                                   LogFormat format = LogFormat::kAuto);

  /// Opens `path` with the reader implementation matching `format`
  /// (kAuto probes the file magic). The `.sqb` branch validates the
  /// whole container structure during Open.
  static Result<std::unique_ptr<RecordReader>> OpenLogReader(
      const std::string& path, LogFormat format = LogFormat::kAuto);

  /// Creates (but does not open) the writer implementation for
  /// `format`, which must be concrete — resolve kAuto first. `renumber`
  /// maps to the corresponding writer option; `recipe_builder` is used
  /// only by the `.sqb` writer.
  static std::unique_ptr<RecordWriter> MakeLogWriter(
      LogFormat format, bool renumber = false, RecipeBuilder recipe_builder = nullptr);
};

}  // namespace sqlog::log

#endif  // SQLOG_LOG_LOG_IO_H_
