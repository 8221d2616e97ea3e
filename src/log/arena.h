#ifndef SQLOG_LOG_ARENA_H_
#define SQLOG_LOG_ARENA_H_

#include <cstddef>
#include <memory>
#include <string_view>
#include <vector>

namespace sqlog::log {

/// Append-only string storage for state that outlives the records it
/// came from — the (user, statement) keys of streaming dedup. Callers
/// get stable string_views into chunked arena storage, so a stored
/// string costs its bytes plus no per-string heap block. The arena
/// does not deduplicate: callers store each string they need once.
///
/// Views stay valid for the arena's lifetime (chunks are never moved or
/// freed before destruction). Not thread-safe; each streaming stage owns
/// its own arena.
class StringArena {
 public:
  explicit StringArena(size_t chunk_bytes = kDefaultChunkBytes);

  StringArena(const StringArena&) = delete;
  StringArena& operator=(const StringArena&) = delete;

  /// Copies `s` into chunk storage and returns a view of the copy.
  std::string_view Store(std::string_view s);

  /// Strings stored.
  size_t size() const { return size_; }

  /// Bytes of string payload held (excluding chunk slack).
  size_t payload_bytes() const { return payload_bytes_; }

  static constexpr size_t kDefaultChunkBytes = 64 * 1024;

 private:
  size_t chunk_bytes_;
  std::vector<std::unique_ptr<char[]>> chunks_;
  size_t chunk_used_ = 0;  // bytes used in chunks_.back()
  size_t size_ = 0;
  size_t payload_bytes_ = 0;
};

}  // namespace sqlog::log

#endif  // SQLOG_LOG_ARENA_H_
