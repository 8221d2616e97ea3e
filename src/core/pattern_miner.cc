#include "core/pattern_miner.h"

#include <algorithm>

#include "util/hash.h"

namespace sqlog::core {

namespace {

/// One mined window: the positions [begin, begin + length) of the
/// flattened streams. The hash only groups windows for the sort; two
/// windows count together only when their template ids are equal.
/// Positions are 32-bit: 2^32 parsed queries would first need terabytes
/// of QueryFacts.
struct Window {
  uint64_t hash;
  uint32_t begin;
  uint32_t length;
};
static_assert(sizeof(Window) == 16);

/// The parsed log's user streams laid end to end, users ascending and
/// each stream in time order, cut into gap-bounded segments. Windows
/// never cross a segment end.
struct FlatStreams {
  std::vector<uint64_t> template_ids;  // per position
  std::vector<uint32_t> users;         // user id per position
  std::vector<uint32_t> user_begins;   // first position of each user's stream
  std::vector<uint32_t> segment_ends;  // exclusive, ascending
};

FlatStreams Flatten(const ParsedLog& parsed, int64_t max_gap_ms) {
  size_t total = 0;
  for (const auto& stream : parsed.user_streams) total += stream.size();
  FlatStreams flat;
  flat.template_ids.reserve(total);
  flat.users.reserve(total);
  flat.user_begins.reserve(parsed.user_streams.size());
  for (uint32_t user_id = 0; user_id < parsed.user_streams.size(); ++user_id) {
    const auto& stream = parsed.user_streams[user_id];
    flat.user_begins.push_back(static_cast<uint32_t>(flat.users.size()));
    for (size_t k = 0; k < stream.size(); ++k) {
      const ParsedQuery& query = parsed.queries[stream[k]];
      if (k > 0 && query.timestamp_ms - parsed.queries[stream[k - 1]].timestamp_ms > max_gap_ms) {
        flat.segment_ends.push_back(static_cast<uint32_t>(flat.users.size()));
      }
      flat.template_ids.push_back(query.template_id);
      flat.users.push_back(user_id);
    }
    if (!stream.empty()) flat.segment_ends.push_back(static_cast<uint32_t>(flat.users.size()));
  }
  return flat;
}

/// True when the window [ids, ids+len) is a repetition of a shorter
/// prefix period (e.g. A A, or A B A B). Such windows are subsumed by
/// the shorter pattern and excluded from the report.
bool IsSelfRepetition(const uint64_t* ids, size_t len) {
  for (size_t period = 1; period <= len / 2; ++period) {
    if (len % period != 0) continue;
    bool repeats = true;
    for (size_t i = period; i < len && repeats; ++i) {
      repeats = ids[i] == ids[i - period];
    }
    if (repeats) return true;
  }
  return false;
}

/// Calls `visit(hash, begin, length)` for every window of at most
/// `max_length` positions inside one segment that is not a
/// self-repetition.
// sqlog-hot
template <typename Visit>
void ForEachWindow(const FlatStreams& flat, size_t max_length, Visit&& visit) {
  const uint64_t* ids = flat.template_ids.data();
  uint32_t segment_begin = 0;
  for (uint32_t segment_end : flat.segment_ends) {
    for (uint32_t begin = segment_begin; begin < segment_end; ++begin) {
      const uint32_t longest =
          static_cast<uint32_t>(std::min<size_t>(max_length, segment_end - begin));
      uint64_t hash = 0x9ae16a3b2f90404fULL;
      for (uint32_t length = 1; length <= longest; ++length) {
        hash = HashCombine(hash, ids[begin + length - 1] + 0x9e3779b97f4a7c15ULL);
        if (length > 1 && IsSelfRepetition(ids + begin, length)) continue;
        visit(hash, begin, length);
      }
    }
    segment_begin = segment_end;
  }
}

/// Every window, in a buffer sized by a counting sweep: 16 B a window.
// sqlog-hot
std::vector<Window> CollectWindows(const FlatStreams& flat, size_t max_length) {
  size_t count = 0;
  ForEachWindow(flat, max_length, [&](uint64_t, uint32_t, uint32_t) { ++count; });
  std::vector<Window> windows;
  windows.reserve(count);  // sqlog-lint: allow(R10 the one buffer of the run, sized exactly)
  ForEachWindow(flat, max_length, [&](uint64_t hash, uint32_t begin, uint32_t length) {
    // sqlog-lint: allow(R10 appends into the buffer reserved above; never reallocates)
    windows.push_back({hash, begin, length});
  });
  return windows;
}

/// Folds the sorted windows: each run of equal sequences is one
/// candidate pattern, its windows in position order.
// sqlog-hot
std::vector<Pattern> FoldRuns(const ParsedLog& parsed, const FlatStreams& flat,
                              const std::vector<Window>& windows, uint64_t min_support) {
  const uint64_t* ids = flat.template_ids.data();
  std::vector<Pattern> patterns;
  for (size_t first = 0; first < windows.size();) {
    const Window& head = windows[first];
    const uint64_t* head_ids = ids + head.begin;
    // Non-overlapping instances: a window starting before the last
    // counted one ends lies inside it, so in its segment too.
    uint64_t frequency = 1;
    uint64_t counted_end = head.begin + head.length;
    size_t last = first + 1;
    for (; last < windows.size(); ++last) {
      const Window& window = windows[last];
      if (window.hash != head.hash || window.length != head.length ||
          !std::equal(head_ids, head_ids + head.length, ids + window.begin)) {
        break;
      }
      if (window.begin >= counted_end) {
        ++frequency;
        counted_end = window.begin + head.length;
      }
    }
    if (frequency >= min_support) {
      // sqlog-lint: allow(R10 one Pattern per reported sequence, amortized growth)
      Pattern& pattern = patterns.emplace_back();
      pattern.template_ids.assign(head_ids, head_ids + head.length);
      pattern.frequency = frequency;
      const uint32_t user = flat.users[head.begin];
      pattern.sample_query = parsed.user_streams[user][head.begin - flat.user_begins[user]];
      // A user's first window in the run is always counted, so the
      // counted windows' users are all the run's users.
      for (size_t k = first; k < last; ++k) {
        // sqlog-lint: allow(R10 one node per distinct user of a reported pattern)
        pattern.users.insert(flat.users[windows[k].begin]);
      }
    }
    first = last;
  }
  return patterns;
}

}  // namespace

std::vector<Pattern> MinePatterns(const ParsedLog& parsed, const MinerOptions& options,
                                  util::ThreadPool* pool) {
  (void)pool;
  const FlatStreams flat = Flatten(parsed, options.max_gap_ms);
  std::vector<Window> windows = CollectWindows(flat, options.max_length);
  // (hash, length, template ids, begin): equal sequences become one run,
  // in position order, so its head is the first window the log shows.
  const uint64_t* ids = flat.template_ids.data();
  std::sort(windows.begin(), windows.end(), [ids](const Window& a, const Window& b) {
    if (a.hash != b.hash) return a.hash < b.hash;
    if (a.length != b.length) return a.length < b.length;
    const auto [at, bt] = std::mismatch(ids + a.begin, ids + a.begin + a.length, ids + b.begin);
    if (at != ids + a.begin + a.length) return *at < *bt;
    return a.begin < b.begin;
  });
  return FoldRuns(parsed, flat, windows, options.min_support);
}

void SortByFrequency(std::vector<Pattern>& patterns) {
  std::sort(patterns.begin(), patterns.end(), [](const Pattern& a, const Pattern& b) {
    if (a.frequency != b.frequency) return a.frequency > b.frequency;
    if (a.template_ids.size() != b.template_ids.size()) {
      return a.template_ids.size() < b.template_ids.size();
    }
    return a.template_ids < b.template_ids;
  });
}

}  // namespace sqlog::core
