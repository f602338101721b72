#pragma once

/// \file rng.hpp
/// Deterministic random number generation. All stochastic behaviour in the
/// simulator (timing noise, perturbation spikes, workload traces) flows
/// through Rng so that experiments are exactly reproducible from a seed.
///
/// The generator is xoshiro256**, seeded via splitmix64 — the standard
/// recipe, fast and high quality, with a tiny state that is cheap to copy
/// when forking independent streams.

#include <cmath>
#include <cstdint>
#include <string_view>

namespace peak::support {

/// splitmix64 step; used for seeding and for stable string hashing.
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Stable 64-bit hash of a string (FNV-1a). Used to derive per-entity
/// sub-seeds (e.g. per tuning-section flag effects) that do not depend on
/// iteration order or pointer values.
constexpr std::uint64_t stable_hash(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Combine two 64-bit values into one (boost::hash_combine style).
constexpr std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b) {
  return a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
}

/// xoshiro256** deterministic generator.
class Rng {
public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x5eedULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  /// Derive an independent stream keyed by a label; the parent is unchanged.
  [[nodiscard]] Rng fork(std::string_view label) const {
    return Rng(hash_combine(state_[0] ^ state_[3], stable_hash(label)));
  }

  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  // UniformRandomBitGenerator interface.
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }
  result_type operator()() { return next_u64(); }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    const auto range = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(next_u64() % range);
  }

  /// Standard normal via Box–Muller (no cached spare: keeps state minimal).
  double normal() {
    double u1 = uniform();
    while (u1 <= 0.0) u1 = uniform();
    const double u2 = uniform();
    return std::sqrt(-2.0 * std::log(u1)) *
           std::cos(6.283185307179586 * u2);
  }

  double normal(double mean, double stddev) {
    return mean + stddev * normal();
  }

  /// True with probability p.
  bool bernoulli(double p) { return uniform() < p; }

  /// Lognormal with multiplicative sigma (mean of the log = 0).
  double lognormal(double sigma) { return std::exp(sigma * normal()); }

private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4]{};
};

}  // namespace peak::support
