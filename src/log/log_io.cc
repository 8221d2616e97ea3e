#include "log/log_io.h"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "log/binlog.h"
#include "log/binlog_format.h"
#include "log/log_stream.h"
#include "util/string_util.h"

namespace sqlog::log {

const char* LogFormatName(LogFormat format) {
  switch (format) {
    case LogFormat::kAuto:
      return "auto";
    case LogFormat::kCsv:
      return "csv";
    case LogFormat::kSqb:
      return "sqb";
  }
  return "unknown";
}

Result<LogFormat> ParseLogFormatName(std::string_view name) {
  if (name == "auto") return LogFormat::kAuto;
  if (name == "csv") return LogFormat::kCsv;
  if (name == "sqb") return LogFormat::kSqb;
  return Status::InvalidArgument(
      StrFormat("unknown log format '%.*s' (expected auto, csv or sqb)",
                static_cast<int>(name.size()), name.data()));
}

Result<LogFormat> DetectLogFormat(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open for reading: " + path);
  char probe[sizeof(binfmt::kFileMagic)];
  in.read(probe, sizeof(probe));
  if (in.gcount() == static_cast<std::streamsize>(sizeof(probe)) &&
      std::memcmp(probe, binfmt::kFileMagic, sizeof(probe)) == 0) {
    return LogFormat::kSqb;
  }
  return LogFormat::kCsv;
}

Result<LogFormat> ResolveReadFormat(LogFormat format, const std::string& path) {
  if (format != LogFormat::kAuto) return format;
  return DetectLogFormat(path);
}

LogFormat ResolveWriteFormat(LogFormat format, const std::string& path) {
  if (format != LogFormat::kAuto) return format;
  constexpr std::string_view kExt = ".sqb";
  if (path.size() >= kExt.size() &&
      std::string_view(path).substr(path.size() - kExt.size()) == kExt) {
    return LogFormat::kSqb;
  }
  return LogFormat::kCsv;
}

Status RequireDistinctFiles(
    std::initializer_list<std::pair<const char*, std::string>> files) {
  namespace fs = std::filesystem;
  auto same_file = [](const fs::path& a, const fs::path& b) {
    std::error_code ec;
    if (fs::equivalent(a, b, ec)) return true;  // one existing file, two names
    // Neither exists yet (or one cannot be inspected): compare the paths.
    return ec && fs::weakly_canonical(a, ec) == fs::weakly_canonical(b, ec);
  };
  for (auto a = files.begin(); a != files.end(); ++a) {
    for (auto b = a + 1; b != files.end(); ++b) {
      if (!same_file(a->second, b->second)) continue;
      return Status::InvalidArgument(StrFormat("%s '%s' and %s '%s' are the same file",
                                               b->first, b->second.c_str(), a->first,
                                               a->second.c_str()));
    }
  }
  return Status::OK();
}

Result<std::unique_ptr<RecordReader>> LogIo::OpenLogReader(const std::string& path,
                                                           LogFormat format) {
  auto resolved = ResolveReadFormat(format, path);
  SQLOG_RETURN_IF_ERROR_R(resolved.status());
  std::unique_ptr<RecordReader> reader;
  if (*resolved == LogFormat::kSqb) {
    reader = std::make_unique<BinLogReader>();
  } else {
    reader = std::make_unique<LogReader>();
  }
  SQLOG_RETURN_IF_ERROR_R(reader->Open(path));
  return reader;
}

std::unique_ptr<RecordWriter> LogIo::MakeLogWriter(LogFormat format, bool renumber,
                                                   RecipeBuilder recipe_builder) {
  if (format == LogFormat::kSqb) {
    BinLogWriterOptions options;
    options.renumber = renumber;
    options.recipe_builder = std::move(recipe_builder);
    return std::make_unique<BinLogWriter>(options);
  }
  LogWriterOptions options;
  options.renumber = renumber;
  return std::make_unique<LogWriter>(options);
}

std::string LogIo::ToCsv(const QueryLog& log) {
  std::string out = kLogCsvHeader;
  out.push_back('\n');
  for (const auto& record : log.records()) {
    AppendCsvRow(record, record.seq, out);
  }
  return out;
}

Status LogIo::WriteFile(const QueryLog& log, const std::string& path, LogFormat format,
                        RecipeBuilder recipe_builder) {
  std::unique_ptr<RecordWriter> writer = MakeLogWriter(
      ResolveWriteFormat(format, path), /*renumber=*/false, std::move(recipe_builder));
  SQLOG_RETURN_IF_ERROR(writer->Open(path));
  for (const auto& record : log.records()) {
    SQLOG_RETURN_IF_ERROR(writer->Append(record));
  }
  return writer->Close();
}

Result<QueryLog> LogIo::ReadFile(const std::string& path, LogFormat format) {
  // Streams records one at a time instead of slurping the file into one
  // string — only the decoded records are held.
  auto reader = OpenLogReader(path, format);
  SQLOG_RETURN_IF_ERROR_R(reader.status());
  QueryLog log;
  LogRecord record;
  bool eof = false;
  while (true) {
    SQLOG_RETURN_IF_ERROR_R((*reader)->ReadRecord(&record, &eof));
    if (eof) break;
    log.Append(std::move(record));
  }
  return log;
}

}  // namespace sqlog::log
