// Workload registry of the step benchmark.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "driver/harness.h"

namespace stepbench {

/// Names accepted by make_workload, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// A fresh instance (own Runtime, inputs generated from `seed`), or
/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

}  // namespace stepbench
