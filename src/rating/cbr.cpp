#include "rating/cbr.hpp"

#include "obs/metrics.hpp"
#include "support/check.hpp"

namespace peak::rating {

ContextBasedRater::ContextBasedRater(WindowPolicy policy)
    : policy_(policy) {}

void ContextBasedRater::add(const ContextKey& context, double time) {
  static obs::Counter& fills = obs::counter("cbr.bucket_fills");
  static obs::Counter& buckets_created = obs::counter("cbr.buckets");
  auto it = buckets_.find(context);
  if (it == buckets_.end()) {
    it = buckets_.emplace(context, Bucket{WindowedRater(policy_), 0.0})
             .first;
    buckets_created.inc();
  }
  fills.inc();
  it->second.rater.add(time);
  it->second.total_time += time;
  ++total_;
}

const ContextKey& ContextBasedRater::dominant_context() const {
  PEAK_CHECK(!buckets_.empty(), "no contexts recorded");
  const ContextKey* best = nullptr;
  double best_time = -1.0;
  for (const auto& [key, bucket] : buckets_) {
    if (bucket.total_time > best_time) {
      best_time = bucket.total_time;
      best = &key;
    }
  }
  return *best;
}

Rating ContextBasedRater::rating() const {
  if (buckets_.empty()) return Rating{};
  return buckets_.at(dominant_context()).rater.rating();
}

bool ContextBasedRater::converged() const {
  if (buckets_.empty()) return false;
  return buckets_.at(dominant_context()).rater.converged();
}

Rating ContextBasedRater::rating_for(const ContextKey& context) const {
  auto it = buckets_.find(context);
  if (it == buckets_.end()) return Rating{};
  return it->second.rater.rating();
}

std::map<ContextKey, Rating> ContextBasedRater::all_ratings() const {
  std::map<ContextKey, Rating> out;
  for (const auto& [key, bucket] : buckets_)
    out.emplace(key, bucket.rater.rating());
  return out;
}

bool ContextBasedRater::exhausted() const {
  if (buckets_.empty()) return false;
  return buckets_.at(dominant_context()).rater.exhausted();
}

void ContextBasedRater::reset() {
  buckets_.clear();
  total_ = 0;
}

}  // namespace peak::rating
