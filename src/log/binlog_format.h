#ifndef SQLOG_LOG_BINLOG_FORMAT_H_
#define SQLOG_LOG_BINLOG_FORMAT_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "util/hash.h"
#include "util/status.h"
#include "util/string_util.h"

/// Wire-level definitions of the `.sqb` template-dictionary binary log
/// container (see DESIGN.md "Binary log format" for the layout diagram).
/// Everything here is deterministic and platform-independent: integers
/// are little-endian, variable-width fields use LEB128 varints, signed
/// columns are zigzag-coded. The reader side never trusts a length or
/// count before bounds-checking it against the remaining bytes, so a
/// corrupt file yields a structured ParseError naming the offset and
/// section instead of an allocation blow-up or an out-of-bounds read.
namespace sqlog::log::binfmt {

/// File layout:
///
///   [header 16B][record blocks ...][dict][strings][index][footer 80B]
///
/// The header is validated first (magic, version, flags); the footer is
/// located from the end of the file and carries the section offsets plus
/// its own checksum, so a reader can seek straight to any block via the
/// index.
inline constexpr char kFileMagic[8] = {'\x89', 'S', 'Q', 'B', '\r', '\n', '\x1a', '\n'};
inline constexpr char kFooterMagic[8] = {'S', 'Q', 'B', 'E', 'N', 'D', '\r', '\n'};
inline constexpr uint32_t kVersion = 1;
inline constexpr size_t kHeaderBytes = 16;   // magic + version + flags
inline constexpr size_t kFooterBytes = 80;   // 9 u64 fields + trailing magic

/// Frame magics ("BLK1", "DIC1", "STR1", "IDX1" as little-endian u32).
inline constexpr uint32_t kBlockMagic = 0x314B4C42;
inline constexpr uint32_t kDictMagic = 0x31434944;
inline constexpr uint32_t kStringsMagic = 0x31525453;
inline constexpr uint32_t kIndexMagic = 0x31584449;

/// Block frame: magic u32 | payload_len u32 | record_count u32 |
/// checksum u64 | payload. Section frames (dict/strings/index) reuse the
/// shape with a u64 payload length and no record count.
inline constexpr size_t kBlockFrameBytes = 4 + 4 + 4 + 8;
inline constexpr size_t kSectionFrameBytes = 4 + 8 + 8;

/// Hard ceilings, far above anything a real log produces, so a corrupt
/// count fails fast instead of driving a giant loop or allocation.
inline constexpr uint64_t kMaxBlockPayload = uint64_t{1} << 31;
inline constexpr uint64_t kMaxSectionPayload = uint64_t{1} << 33;

// --------------------------------------------------------------- encoding

inline void AppendU32(uint32_t v, std::string* out) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

inline void AppendU64(uint64_t v, std::string* out) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

/// LEB128: 7 value bits per byte, high bit = continuation.
inline void AppendVarint(uint64_t v, std::string* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

inline uint64_t ZigzagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

inline int64_t ZigzagDecode(uint64_t v) {
  return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

inline void AppendZigzag(int64_t v, std::string* out) {
  AppendVarint(ZigzagEncode(v), out);
}

// --------------------------------------------------------------- decoding

/// Bounds-checked cursor over one region of the file. Every read either
/// succeeds or produces a ParseError naming the section and the absolute
/// file offset where decoding stopped — the uniform failure shape the
/// corruption tests pin.
class ByteReader {
 public:
  /// `base_offset` is the absolute file offset of data[0]; `section`
  /// names the region in error messages ("block 3", "dictionary", ...).
  ByteReader(std::string_view data, uint64_t base_offset, std::string section)
      : data_(data), base_(base_offset), section_(std::move(section)) {}

  size_t pos() const { return pos_; }
  uint64_t file_offset() const { return base_ + pos_; }
  size_t remaining() const { return data_.size() - pos_; }
  bool exhausted() const { return pos_ == data_.size(); }

  Status Error(const std::string& what) const {
    return Status::ParseError(StrFormat("%s at offset %llu (%s section)", what.c_str(),
                                        (unsigned long long)file_offset(),
                                        section_.c_str()));
  }

  Status ReadVarint(uint64_t* out) {
    uint64_t value = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (pos_ >= data_.size()) return Error("truncated varint");
      uint8_t byte = static_cast<uint8_t>(data_[pos_++]);
      value |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) {
        // Reject non-canonical 10-byte encodings that would shift bits
        // past the top of the value.
        if (shift == 63 && byte > 1) return Error("varint overflows 64 bits");
        *out = value;
        return Status::OK();
      }
    }
    return Error("varint overflows 64 bits");
  }

  Status ReadZigzag(int64_t* out) {
    uint64_t raw = 0;
    SQLOG_RETURN_IF_ERROR(ReadVarint(&raw));
    *out = ZigzagDecode(raw);
    return Status::OK();
  }

  Status ReadU32(uint32_t* out) {
    if (remaining() < 4) return Error("truncated u32");
    uint32_t v = 0;
    std::memcpy(&v, data_.data() + pos_, 4);  // little-endian hosts only; see below
    *out = FromLittle32(v);
    pos_ += 4;
    return Status::OK();
  }

  Status ReadU64(uint64_t* out) {
    if (remaining() < 8) return Error("truncated u64");
    uint64_t v = 0;
    std::memcpy(&v, data_.data() + pos_, 8);
    *out = FromLittle64(v);
    pos_ += 8;
    return Status::OK();
  }

  /// Reads `len` raw bytes as a view into the underlying region. The
  /// caller must have obtained `len` from a bounds-checked read; this
  /// still re-validates it.
  Status ReadBytes(uint64_t len, std::string_view* out) {
    if (len > remaining()) return Error(StrFormat("length %llu exceeds remaining %zu bytes",
                                                  (unsigned long long)len, remaining()));
    *out = data_.substr(pos_, static_cast<size_t>(len));
    pos_ += static_cast<size_t>(len);
    return Status::OK();
  }

  /// Varint length followed by that many raw bytes.
  Status ReadLengthDelimited(std::string_view* out) {
    uint64_t len = 0;
    SQLOG_RETURN_IF_ERROR(ReadVarint(&len));
    return ReadBytes(len, out);
  }

 private:
  // The repo targets little-endian platforms; these keep the decode
  // well-defined if that ever changes.
  static uint32_t FromLittle32(uint32_t v) {
    unsigned char b[4];
    std::memcpy(b, &v, 4);
    return static_cast<uint32_t>(b[0]) | (static_cast<uint32_t>(b[1]) << 8) |
           (static_cast<uint32_t>(b[2]) << 16) | (static_cast<uint32_t>(b[3]) << 24);
  }
  static uint64_t FromLittle64(uint64_t v) {
    unsigned char b[8];
    std::memcpy(b, &v, 8);
    uint64_t out = 0;
    for (int i = 7; i >= 0; --i) out = (out << 8) | b[i];
    return out;
  }

  std::string_view data_;
  size_t pos_ = 0;
  uint64_t base_ = 0;
  std::string section_;
};

/// The fixed-size footer. `checksum` covers the eight preceding u64
/// fields, so a bit flip anywhere in the offsets or counts is caught
/// before any of them is dereferenced.
struct Footer {
  uint64_t dict_offset = 0;
  uint64_t strings_offset = 0;
  uint64_t index_offset = 0;
  uint64_t record_count = 0;
  uint64_t block_count = 0;
  uint64_t dict_count = 0;
  uint64_t string_count = 0;
  uint64_t reserved = 0;

  void AppendTo(std::string* out) const {
    std::string fields;
    fields.reserve(64);
    AppendU64(dict_offset, &fields);
    AppendU64(strings_offset, &fields);
    AppendU64(index_offset, &fields);
    AppendU64(record_count, &fields);
    AppendU64(block_count, &fields);
    AppendU64(dict_count, &fields);
    AppendU64(string_count, &fields);
    AppendU64(reserved, &fields);
    out->append(fields);
    AppendU64(Fnv1a64(fields), out);
    out->append(kFooterMagic, sizeof(kFooterMagic));
  }

  /// Parses + verifies a footer from its `kFooterBytes` raw bytes.
  /// `base_offset` is the footer's absolute file offset (for errors).
  static Result<Footer> Parse(std::string_view bytes, uint64_t base_offset) {
    ByteReader reader(bytes, base_offset, "footer");
    if (bytes.size() != kFooterBytes) return reader.Error("footer size mismatch");
    if (std::memcmp(bytes.data() + 72, kFooterMagic, sizeof(kFooterMagic)) != 0) {
      return reader.Error("bad footer magic");
    }
    const uint64_t expected = Fnv1a64(bytes.substr(0, 64));
    Footer footer;
    SQLOG_RETURN_IF_ERROR_R(reader.ReadU64(&footer.dict_offset));
    SQLOG_RETURN_IF_ERROR_R(reader.ReadU64(&footer.strings_offset));
    SQLOG_RETURN_IF_ERROR_R(reader.ReadU64(&footer.index_offset));
    SQLOG_RETURN_IF_ERROR_R(reader.ReadU64(&footer.record_count));
    SQLOG_RETURN_IF_ERROR_R(reader.ReadU64(&footer.block_count));
    SQLOG_RETURN_IF_ERROR_R(reader.ReadU64(&footer.dict_count));
    SQLOG_RETURN_IF_ERROR_R(reader.ReadU64(&footer.string_count));
    SQLOG_RETURN_IF_ERROR_R(reader.ReadU64(&footer.reserved));
    uint64_t stored = 0;
    SQLOG_RETURN_IF_ERROR_R(reader.ReadU64(&stored));
    if (stored != expected) return reader.Error("footer checksum mismatch");
    return footer;
  }
};

}  // namespace sqlog::log::binfmt

#endif  // SQLOG_LOG_BINLOG_FORMAT_H_
