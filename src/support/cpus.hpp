#pragma once

/// \file cpus.hpp
/// How many CPUs this process may run on.

namespace peak::support {

/// The CPUs in the process's affinity mask (what `nproc` prints): a run
/// confined with `taskset -c 0` can use one core however many the
/// machine has. Falls back to std::thread::hardware_concurrency() when
/// the mask cannot be read; at least 1.
unsigned usable_cpus();

}  // namespace peak::support
