// lint-path: src/cache/fixture.cpp
// Self-test fixture for the pool fan-out rule: a hand-rolled TaskGroup
// loop and a hard-wired sweep grain outside src/support and src/sweep.
// Reading the grain and mentioning TaskGroup in a comment are the
// negative cases.
#include <cstddef>
#include <vector>

#include "support/thread_pool.hpp"

namespace rdv::fixture {

struct Config {
  std::size_t chunk_size = 0;  // lint-expect: pool-fanout
};

void fan_out(support::ThreadPool& pool, std::vector<int>& out) {
  support::TaskGroup group(pool);  // lint-expect: pool-fanout
  for (int& v : out) group.submit([&v] { v = 1; });
}

void override_grain(Config& config) {
  config.chunk_size = 4;  // lint-expect: pool-fanout
}

// Negative cases: these must stay silent.
bool derived(const Config& config) { return config.chunk_size == 0; }

}  // namespace rdv::fixture
