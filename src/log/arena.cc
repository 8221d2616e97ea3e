#include "log/arena.h"

#include <algorithm>
#include <cstring>

namespace sqlog::log {

StringArena::StringArena(size_t chunk_bytes)
    : chunk_bytes_(std::max<size_t>(chunk_bytes, 64)) {}

std::string_view StringArena::Store(std::string_view s) {
  ++size_;
  // Oversized strings get a dedicated chunk so the common chunk size
  // stays small; empty strings need no storage at all.
  if (s.empty()) return std::string_view();
  size_t need = s.size();
  if (need > chunk_bytes_) {
    chunks_.push_back(std::make_unique<char[]>(need));
    char* dst = chunks_.back().get();
    std::memcpy(dst, s.data(), need);
    // Keep the partially-filled regular chunk (if any) usable by moving
    // the dedicated chunk behind it; otherwise mark the dedicated chunk
    // full so regular stores never write into it.
    if (chunks_.size() >= 2 && chunk_used_ < chunk_bytes_) {
      std::swap(chunks_[chunks_.size() - 1], chunks_[chunks_.size() - 2]);
    } else {
      chunk_used_ = chunk_bytes_;
    }
    payload_bytes_ += need;
    return std::string_view(dst, need);
  }
  if (chunks_.empty() || chunk_used_ + need > chunk_bytes_) {
    chunks_.push_back(std::make_unique<char[]>(chunk_bytes_));
    chunk_used_ = 0;
  }
  char* dst = chunks_.back().get() + chunk_used_;
  std::memcpy(dst, s.data(), need);
  chunk_used_ += need;
  payload_bytes_ += need;
  return std::string_view(dst, need);
}

}  // namespace sqlog::log
