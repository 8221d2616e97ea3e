#include "analysis/recommender.h"

#include <algorithm>

namespace sqlog::analysis {

Recommender::Recommender() : options_() {}

Recommender::Recommender(Options options) : options_(options) {}

template <typename Fn>
void Recommender::ForEachTransition(const core::ParsedLog& parsed, Fn&& fn) const {
  for (const auto& stream : parsed.user_streams) {
    for (size_t i = 1; i < stream.size(); ++i) {
      const core::ParsedQuery& prev = parsed.queries[stream[i - 1]];
      const core::ParsedQuery& next = parsed.queries[stream[i]];
      if (next.timestamp_ms - prev.timestamp_ms > options_.max_gap_ms) continue;
      fn(prev.facts.shared->tmpl.fingerprint, next.facts.shared->tmpl.fingerprint);
    }
  }
}

void Recommender::Train(const core::ParsedLog& parsed) {
  ForEachTransition(parsed, [this](uint64_t from, uint64_t to) {
    ++transitions_[from][to];
    ++transition_count_;
  });
}

std::vector<uint64_t> Recommender::Recommend(uint64_t fingerprint, size_t k) const {
  auto it = transitions_.find(fingerprint);
  if (it == transitions_.end()) return {};
  std::vector<std::pair<uint64_t, uint64_t>> ranked(it->second.begin(), it->second.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;  // deterministic tie-break
  });
  std::vector<uint64_t> out;
  out.reserve(std::min(k, ranked.size()));
  for (size_t i = 0; i < ranked.size() && i < k; ++i) out.push_back(ranked[i].first);
  return out;
}

double Recommender::HitRate(const core::ParsedLog& eval, size_t k) const {
  size_t total = 0;
  size_t hits = 0;
  ForEachTransition(eval, [&](uint64_t from, uint64_t to) {
    ++total;
    for (uint64_t candidate : Recommend(from, k)) {
      if (candidate == to) {
        ++hits;
        break;
      }
    }
  });
  if (total == 0) return 0.0;
  return static_cast<double>(hits) / static_cast<double>(total);
}

double Recommender::FlaggedRecommendationRate(
    const core::ParsedLog& eval, const std::unordered_set<uint64_t>& flagged) const {
  size_t total = 0;
  size_t flagged_hits = 0;
  ForEachTransition(eval, [&](uint64_t from, uint64_t to) {
    (void)to;
    std::vector<uint64_t> top = Recommend(from, 1);
    if (top.empty()) return;
    ++total;
    if (flagged.count(top[0]) > 0) ++flagged_hits;
  });
  if (total == 0) return 0.0;
  return static_cast<double>(flagged_hits) / static_cast<double>(total);
}

}  // namespace sqlog::analysis
