#pragma once

#include <cstdint>

namespace perfbench {

/// Calls to any global operator new since the process started.
std::uint64_t heap_new_calls();

}  // namespace perfbench
