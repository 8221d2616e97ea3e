#ifndef SQLOG_LOG_BINLOG_H_
#define SQLOG_LOG_BINLOG_H_

#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "log/log_stream.h"
#include "log/record.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace sqlog::log {

/// `.sqb`: the template-dictionary binary query-log format. The writer
/// lexes each statement, interns its normalized template into a
/// dictionary, and stores each record as (template id, constant bytes)
/// plus delta/varint-coded metadata columns — the Xie et al. template
/// compression idea applied to the repo's own fingerprint machinery. The
/// reader splices the constants back into the template text, so a CSV →
/// `.sqb` → CSV round trip is byte-identical (the writer verifies each
/// encoded statement against its reconstruction and falls back to a
/// verbatim encoding on any mismatch).
///
/// A `.sqb` → `.sqb` copy need not lex: a writer given the source reader
/// (BinLogWriter::SetSource) re-encodes a record handed to AppendShaped
/// straight from the reader's RecordShape, once that source template is
/// mapped onto an output template. The bytes are the ones the lexing
/// path writes; any record the mapping cannot vouch for takes that path.
///
/// Dictionary entries also carry an opaque serialized facts *recipe*
/// (core::BuildStatementRecipe) so a reader-side parse cache can be
/// seeded straight from the file and ingest with zero full parses. The
/// log layer never interprets recipe bytes — layering keeps the SQL
/// parser out of src/log (lint rule R1).
///
/// Wire layout, versioning and checksum scheme: binlog_format.h and
/// DESIGN.md "Binary log format".

class BinLogReader;

struct BinLogWriterOptions {
  /// Records per columnar block. Blocks are the checksum, compression
  /// and skip granularity; the reader's peak memory is O(block).
  size_t block_records = 4096;
  /// Write seq = output position instead of record.seq (the streaming
  /// equivalent of QueryLog::Renumber, mirroring LogWriterOptions).
  bool renumber = false;
  /// Builds the serialized facts recipe stored with each new dictionary
  /// template (pass core::BuildStatementRecipe). Null stores no recipes:
  /// the file still round-trips byte-identically, readers just cannot
  /// seed a parse cache from it.
  std::function<std::string(const std::string&)> recipe_builder;
};

class BinLogWriter : public RecordWriter {
 public:
  explicit BinLogWriter(BinLogWriterOptions options = {});
  ~BinLogWriter() override;

  BinLogWriter(BinLogWriter&&) = default;
  BinLogWriter& operator=(BinLogWriter&&) = default;

  /// Opens `path` (truncating it); every IoError names `path`. Forgets
  /// the source-template mappings, which refer to output templates.
  Status Open(const std::string& path) override;
  Status Append(const LogRecord& record) override;

  /// Names the reader whose records reach AppendShaped; null detaches.
  /// The reader must outlive the writes. Each source dictionary ordinal
  /// is mapped once: its first shaped record is lexed as Append lexes
  /// it, then the source template text is lexed and the ordinal maps
  /// onto the output template only if the source spans are exactly its
  /// literal tokens, its normalized key names an output template with
  /// the same bytes between constants, and every constant sits between
  /// bytes that cannot join a literal token (whitespace, punctuation,
  /// the statement's ends).
  void SetSource(const BinLogReader* source);

  /// Appends `record` as Append would, but without lexing when `shape`
  /// is the source reader's shape of a mapped ordinal and the record
  /// passes two checks: splicing its constants into the output
  /// template reproduces the statement, and each constant is one
  /// canonical literal of its slot's kind (a plain decimal in a numeric
  /// slot, else lexed alone). Anything else takes the lexing path, so
  /// the bytes never depend on the shape.
  Status AppendShaped(const LogRecord& record, const RecordShape* shape) override;

  /// Flushes the current block, writes the dictionary/strings/index
  /// sections and the footer, and closes the file.
  Status Close() override;

  uint64_t records_written() const override { return records_written_; }

  /// Statements that did not match their template's byte layout (or did
  /// not lex) and were stored verbatim. The round-trip stays exact; the
  /// ratio is a compression health signal surfaced by `sqlog convert`.
  uint64_t verbatim_records() const { return verbatim_records_; }
  /// Records AppendShaped encoded from their shape, without lexing.
  uint64_t shaped_records() const { return shaped_records_; }
  /// Templates interned so far.
  uint64_t dictionary_size() const { return dictionary_.size(); }

 private:
  struct DictEntry {
    std::string text;                                   // representative raw statement
    std::vector<std::pair<uint32_t, uint32_t>> spans;   // constant byte ranges in text
    std::string recipe;                                 // opaque serialized facts recipe
  };

  /// What one source dictionary ordinal maps onto (see SetSource).
  struct SourceTemplate {
    static constexpr uint32_t kUnseen = ~uint32_t{0};
    static constexpr uint32_t kUnmappable = kUnseen - 1;
    uint32_t dict_id = kUnseen;      // output template, or kUnseen / kUnmappable
    std::vector<bool> string_slots;  // per constant: a string (else a number) literal
  };

  Status FlushBlock();
  uint32_t InternString(const std::string& value);
  /// Encodes `statement` into statements_ as a template reference or a
  /// verbatim payload.
  void EncodeStatement(const std::string& statement);
  /// Decides what source ordinal `ordinal` maps onto (see SetSource).
  void MapSourceTemplate(uint32_t ordinal);
  /// Encodes `statement` from `shape`, whose ordinal maps as `mapping`
  /// says, when the checks of AppendShaped pass; false (nothing
  /// written) sends it to EncodeStatement.
  bool EncodeShaped(const std::string& statement, const RecordShape& shape,
                    const SourceTemplate& mapping);

  BinLogWriterOptions options_ SQLOG_CONST_AFTER_INIT;
  std::string path_ SQLOG_SHARD_LOCAL;  // named by every IoError
  std::ofstream out_ SQLOG_SHARD_LOCAL;
  bool open_ SQLOG_SHARD_LOCAL = false;
  uint64_t records_written_ SQLOG_SHARD_LOCAL = 0;
  uint64_t verbatim_records_ SQLOG_SHARD_LOCAL = 0;
  uint64_t shaped_records_ SQLOG_SHARD_LOCAL = 0;
  uint64_t bytes_written_ SQLOG_SHARD_LOCAL = 0;

  // AppendShaped's source reader and its per-ordinal mappings.
  const BinLogReader* source_ SQLOG_SHARD_LOCAL = nullptr;
  std::vector<SourceTemplate> source_templates_ SQLOG_SHARD_LOCAL;

  // Template dictionary + user/session string table (insertion-ordered;
  // the maps are lookup indices only and are never iterated, so the
  // on-disk bytes stay deterministic).
  std::vector<DictEntry> dictionary_ SQLOG_SHARD_LOCAL;
  std::unordered_map<std::string, uint32_t> dict_ids_ SQLOG_SHARD_LOCAL;
  std::vector<std::string> strings_ SQLOG_SHARD_LOCAL;
  std::unordered_map<std::string, uint32_t> string_ids_ SQLOG_SHARD_LOCAL;

  // Current block, column by column.
  std::vector<uint64_t> seqs_ SQLOG_SHARD_LOCAL;
  std::vector<int64_t> timestamps_ SQLOG_SHARD_LOCAL;
  std::vector<uint32_t> users_ SQLOG_SHARD_LOCAL;
  std::vector<uint32_t> sessions_ SQLOG_SHARD_LOCAL;
  std::vector<int64_t> row_counts_ SQLOG_SHARD_LOCAL;
  std::vector<uint8_t> truths_ SQLOG_SHARD_LOCAL;
  std::string statements_ SQLOG_SHARD_LOCAL;  // pre-encoded statement column

  // Per-block index rows accumulated for the footer index section.
  struct IndexRow {
    uint64_t offset = 0;
    uint64_t record_count = 0;
    int64_t first_timestamp = 0;
  };
  std::vector<IndexRow> index_ SQLOG_SHARD_LOCAL;

  std::string key_buffer_ SQLOG_SHARD_LOCAL;  // reused normalized-key scratch
  std::string scratch_ SQLOG_SHARD_LOCAL;     // reused encode scratch
};

/// Streams a `.sqb` file: Open reads the header, footer and sections,
/// ReadRecord reads one block at a time into a reused buffer, so memory
/// is O(block) plus the decoded dictionary and string table. A file cut
/// short after Open fails the next block read with an IoError naming it.
class BinLogReader : public RecordReader {
 public:
  BinLogReader() = default;

  /// Moving keeps last_shape() valid; a writer given this reader through
  /// SetSource keeps the old address.
  BinLogReader(BinLogReader&&) = default;
  BinLogReader& operator=(BinLogReader&&) = default;

  /// Opens and validates `path`: header, footer, dictionary, string
  /// table and block index are checked (magics, version, checksums,
  /// bounds) before the first record is produced. Any corruption is a
  /// ParseError naming the offset and section; every IoError names
  /// `path`.
  Status Open(const std::string& path) override;

  /// Borrow-the-buffer flavour for tests and the fuzz harness: decodes
  /// straight from `data`, which must outlive the reader.
  Status OpenFromBuffer(std::string_view data);

  Status ReadRecord(LogRecord* record, bool* eof) override;

  uint64_t records_read() const override { return records_read_; }

  /// Shape of the record most recently produced by ReadRecord: its
  /// dictionary ordinal and the (offset, size) of each constant inside
  /// the returned statement text, or kVerbatim. The writer only emits a
  /// template reference when every constant span is the canonical
  /// rendering of its literal, so consumers may derive slot texts from
  /// the spans without lexing. Null before the first successful read;
  /// the pointee is valid until the next ReadRecord call — batch loops
  /// copy it out with RecordShape::CopyFrom against a pooled element
  /// (moving the span vector would strand the reader's block-to-block
  /// capacity reuse).
  const RecordShape* last_shape() const { return last_shape_; }

  /// One decoded dictionary template: the raw template text, its
  /// constant spans, and the opaque facts recipe stored by the writer
  /// (empty when the file carries none). Exposed so core can seed its
  /// parse cache without the log layer touching recipe contents.
  struct DictionaryEntry {
    std::string text;
    std::vector<std::pair<uint32_t, uint32_t>> spans;
    std::string recipe;
  };
  const std::vector<DictionaryEntry>& dictionary() const { return dictionary_; }

  uint64_t record_count() const { return record_count_; }
  uint64_t block_count() const { return index_.size(); }

 private:
  struct IndexRow {
    uint64_t offset = 0;
    uint64_t record_count = 0;
    int64_t first_timestamp = 0;
  };

  Status OpenCommon();
  /// Points `*bytes` at the `size` bytes at `offset`: a view of the
  /// OpenFromBuffer data, or a read from the file into buffer_, which the
  /// next call reuses. Every byte the reader decodes comes through here.
  Status Fetch(uint64_t offset, uint64_t size, std::string_view* bytes);
  Status DecodeMetadata(std::string_view dict, std::string_view strings,
                        std::string_view index, uint64_t dict_offset,
                        uint64_t strings_offset, uint64_t index_offset);
  Status DecodeBlock(size_t block_index);
  void ResetState();

  std::string path_ SQLOG_SHARD_LOCAL;  // named by every IoError

  // The source: the file while in_ is open, else the borrowed buffer.
  std::string_view borrowed_ SQLOG_SHARD_LOCAL;
  std::ifstream in_ SQLOG_SHARD_LOCAL;
  uint64_t file_size_ SQLOG_SHARD_LOCAL = 0;  // bytes in the source
  std::string buffer_ SQLOG_SHARD_LOCAL;      // Fetch's file-read scratch

  // Decoded metadata.
  struct DecodedTemplate {
    std::vector<std::string> pieces;  // spans.size() + 1 text pieces
    size_t span_count = 0;
    size_t pieces_bytes = 0;  // sum of piece sizes, for statement reserve
  };
  std::vector<DictionaryEntry> dictionary_ SQLOG_SHARD_LOCAL;
  std::vector<DecodedTemplate> templates_ SQLOG_SHARD_LOCAL;
  std::vector<std::string> strings_ SQLOG_SHARD_LOCAL;
  std::vector<IndexRow> index_ SQLOG_SHARD_LOCAL;
  uint64_t record_count_ SQLOG_SHARD_LOCAL = 0;
  uint64_t dict_offset_end_ SQLOG_SHARD_LOCAL = 0;  // where the last block ends

  // Iteration state.
  size_t next_block_ SQLOG_SHARD_LOCAL = 0;
  std::vector<LogRecord> block_records_ SQLOG_SHARD_LOCAL;
  std::vector<RecordShape> block_shapes_ SQLOG_SHARD_LOCAL;  // parallel to block_records_
  RecordShape* last_shape_ SQLOG_SHARD_LOCAL = nullptr;
  size_t next_record_ SQLOG_SHARD_LOCAL = 0;
  uint64_t records_read_ SQLOG_SHARD_LOCAL = 0;
};

}  // namespace sqlog::log

#endif  // SQLOG_LOG_BINLOG_H_
