#include "arith.hpp"

#include <algorithm>
#include <cmath>

namespace tunebench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Tail tail_percentile(std::vector<double> values, std::size_t min_beyond) {
  Tail tail;
  tail.n = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  for (int p = 99; p >= 1; --p) {
    // Integer ceil(p·n/100): exact, no floating-point rank.
    const std::size_t rank = (static_cast<std::size_t>(p) * n + 99) / 100;
    if (n - rank >= min_beyond) {
      tail.percentile = p;
      tail.value = values[rank - 1];
      tail.beyond = n - rank;
      return tail;
    }
  }
  tail.value = values.back();
  return tail;
}

double geomean(const std::vector<double>& ratios) {
  if (ratios.empty()) return 0.0;
  double log_sum = 0.0;
  for (double r : ratios) log_sum += std::log(r);
  return std::exp(log_sum / static_cast<double>(ratios.size()));
}

double failure_share(std::size_t failed, std::size_t attempted) {
  return attempted == 0 ? 0.0
                        : static_cast<double>(failed) /
                              static_cast<double>(attempted);
}

double covered(const Interval& parent, std::vector<Interval> children) {
  for (Interval& c : children) {
    c.start = std::clamp(c.start, parent.start, parent.end);
    c.end = std::clamp(c.end, parent.start, parent.end);
  }
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  double total = 0.0;
  double reach = parent.start;  // end of the union built so far
  for (const Interval& c : children) {
    const double from = std::max(c.start, reach);
    if (c.end > from) {
      total += c.end - from;
      reach = c.end;
    }
  }
  return total;
}

double self_time(const Interval& parent,
                 const std::vector<Interval>& children) {
  return (parent.end - parent.start) - covered(parent, children);
}

}  // namespace tunebench
