#pragma once

/// \file rating.hpp
/// Common vocabulary of the rating subsystem. A *rating* is the (EVAL,
/// VAR) pair of Section 3: EVAL estimates the speed of one code version,
/// VAR its measurement uncertainty over the current window. EVAL's
/// units differ per method — CBR/MBR/AVG/WHL produce a time (lower is
/// better), RBR produces a relative improvement ratio over the base
/// version (higher is better) — score_time() normalizes to a time-like
/// scalar so the tuning driver can compare uniformly.

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

namespace peak::rating {

enum class Method { kCBR, kMBR, kRBR, kAVG, kWHL };

const char* to_string(Method m);
/// Inverse of to_string(); nullopt for any other name.
std::optional<Method> parse_method(std::string_view name);

struct Rating {
  double eval = 0.0;
  double var = 0.0;
  std::size_t samples = 0;
  bool converged = false;

  /// Time-like score: lower = faster version.
  [[nodiscard]] double score_time(Method m) const {
    return m == Method::kRBR ? (eval > 0.0 ? 1.0 / eval : 1e300) : eval;
  }
};

}  // namespace peak::rating
