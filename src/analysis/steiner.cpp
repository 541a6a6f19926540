#include "analysis/steiner.hpp"

#include <algorithm>
#include <vector>

#include "graph/families/qhat.hpp"

namespace rdv::analysis {

using sim::Mailbox;
using sim::Observation;
using sim::Proc;

std::uint64_t theorem41_lower_bound(std::uint32_t k) {
  return k == 0 ? 0 : (std::uint64_t{1} << (k - 1));
}

std::uint64_t midpoint_count(std::uint32_t k) {
  return std::uint64_t{1} << k;
}

std::uint64_t steiner_closed_walk(std::uint32_t k) {
  return 2 * ((std::uint64_t{2} << k) - 2);
}

namespace {

Proc dedicated_z_body(Mailbox& mb, std::uint32_t k) {
  const auto gammas = graph::families::qhat_gamma_strings(k);
  std::vector<graph::Port> path(2 * k);
  std::vector<graph::Port> entries(2 * k);
  for (const auto& gamma : gammas) {
    // Traverse gamma gamma, then walk back home.
    std::copy(gamma.begin(), gamma.end(), path.begin());
    std::copy(gamma.begin(), gamma.end(), path.begin() + k);
    co_await mb.walk_ports(path, entries);
    co_await mb.retrace(entries);
  }
}

}  // namespace

sim::AgentProgram dedicated_z_program(std::uint32_t k) {
  return [k](Mailbox& mb, Observation) -> Proc {
    return dedicated_z_body(mb, k);
  };
}

std::uint64_t dedicated_z_predicted_rounds(std::uint32_t k,
                                           std::uint64_t i) {
  return 4ull * k * (i - 1);
}

}  // namespace rdv::analysis
