#include "support/cpus.hpp"

#include <sched.h>

#include <algorithm>
#include <thread>

namespace peak::support {

unsigned usable_cpus() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof mask, &mask) == 0)
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&mask)));
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace peak::support
