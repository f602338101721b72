// Self-test of the benchmark's arithmetic on fixed inputs: the
// tail-percentile rule, the geometric mean, the failure share, and span
// self time and coverage. Exits non-zero if any answer is wrong.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <vector>

#include "arith.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-12; }

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void test_median() {
  expect(tunebench::median({}) == 0.0, "median of nothing is 0");
  expect(tunebench::median({3, 1, 2}) == 2.0, "odd median");
  expect(tunebench::median({4, 1, 3, 2}) == 2.5, "even median");
}

void test_tail() {
  using tunebench::tail_percentile;
  // n = 20: p50 sits at rank 10 with exactly 10 beyond; p51 would sit
  // at rank ceil(10.2) = 11 with 9 beyond.
  const tunebench::Tail t20 = tail_percentile(one_to(20));
  expect(t20.percentile == 50, "n=20 tail is p50");
  expect(t20.value == 10.0 && t20.beyond == 10 && t20.n == 20,
         "n=20 tail value, beyond, n");

  // n = 100: p90 = rank 90, 10 beyond.
  const tunebench::Tail t100 = tail_percentile(one_to(100));
  expect(t100.percentile == 90 && t100.value == 90.0 && t100.beyond == 10,
         "n=100 tail is p90");

  // n = 1000: p99 = rank 990, 10 beyond; the rule caps at p99.
  const tunebench::Tail t1000 = tail_percentile(one_to(1000));
  expect(t1000.percentile == 99 && t1000.value == 990.0 &&
             t1000.beyond == 10,
         "n=1000 tail is p99");

  // n = 22: ceil(54·22/100) = 12 leaves 10; p55 → rank 13 leaves 9.
  const tunebench::Tail t22 = tail_percentile(one_to(22));
  expect(t22.percentile == 54 && t22.value == 12.0 && t22.beyond == 10,
         "n=22 tail is p54");

  // Every qualifying answer really has >= 10 beyond and the next
  // percentile up does not.
  for (int n = 11; n <= 400; ++n) {
    const tunebench::Tail t = tail_percentile(one_to(n));
    const std::size_t rank = static_cast<std::size_t>(t.value);
    const std::size_t next_rank =
        (static_cast<std::size_t>(t.percentile + 1) * n + 99) / 100;
    if (t.percentile < 1 || n - rank < 10 || t.beyond != n - rank ||
        (t.percentile < 99 && n - next_rank >= 10)) {
      expect(false, "tail rule holds for every n in 11..400");
      break;
    }
  }

  // Too few samples: no percentile has 10 beyond it.
  const tunebench::Tail t10 = tail_percentile(one_to(10));
  expect(t10.percentile == 0 && t10.value == 10.0 && t10.beyond == 0,
         "n=10 has no qualifying percentile");

  // A failed session counts as +inf and so misses every limit.
  std::vector<double> with_failures = one_to(20);
  for (int i = 0; i < 11; ++i)
    with_failures[i] = std::numeric_limits<double>::infinity();
  expect(std::isinf(tail_percentile(with_failures).value),
         "failed sessions push the tail to +inf");
}

void test_geomean() {
  expect(near(tunebench::geomean({2.0, 8.0}), 4.0), "geomean(2, 8) = 4");
  expect(near(tunebench::geomean({1.0, 1.0, 1.0}), 1.0), "geomean of 1s");
  expect(near(tunebench::geomean({1.1}), 1.1), "geomean of one ratio");
  expect(tunebench::geomean({}) == 0.0, "geomean of nothing is 0");
}

void test_failure_share() {
  expect(tunebench::failure_share(0, 40) == 0.0, "no failures");
  expect(near(tunebench::failure_share(1, 4), 0.25), "1 of 4 failed");
  expect(tunebench::failure_share(0, 0) == 0.0, "nothing attempted");
}

void test_spans() {
  using tunebench::Interval;
  const Interval parent{0.0, 100.0};
  // Disjoint children.
  expect(near(tunebench::self_time(parent, {{10, 20}, {30, 50}}), 70.0),
         "self time with disjoint children");
  // Overlapping and nested children count once.
  expect(near(tunebench::covered(parent, {{10, 40}, {20, 30}, {35, 60}}),
              50.0),
         "overlapping children count once");
  // Children sticking out of the parent are clipped.
  expect(near(tunebench::covered({10, 20}, {{0, 15}, {18, 30}}), 7.0),
         "children clipped to parent");
  // Coverage is covered time over the parent's duration.
  expect(near(tunebench::covered(parent, {{0, 45}, {50, 95}}) / 100.0, 0.9),
         "coverage 0.9");
  expect(tunebench::covered(parent, {}) == 0.0, "no children");
  expect(tunebench::self_time(parent, {}) == 100.0, "all self time");
  expect(tunebench::covered({5, 5}, {{5, 5}}) == 0.0, "empty parent");
}

}  // namespace

int main() {
  test_median();
  test_tail();
  test_geomean();
  test_failure_share();
  test_spans();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return EXIT_FAILURE;
  }
  std::printf("tunebench self-test: all checks passed\n");
  return EXIT_SUCCESS;
}
