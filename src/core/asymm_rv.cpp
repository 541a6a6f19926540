#include "core/asymm_rv.hpp"

#include <span>
#include <vector>

#include "core/bounds.hpp"
#include "core/explore.hpp"
#include "core/signature.hpp"
#include "support/saturating.hpp"

namespace rdv::core {

using sim::Mailbox;
using sim::Observation;
using sim::Proc;
using support::sat_add;
using support::sat_mul;
using support::sat_pow;

namespace {

/// One explore-and-return: walk the application of Y, backtrack home.
/// Exactly explore_return_rounds(M) = 2(M+1) rounds. `entries` holds
/// M + 1 ports.
Proc uxs_explore_return(Mailbox& mb, const uxs::Uxs& y,
                        std::span<graph::Port> entries) {
  co_await mb.walk_uxs(y.terms(), entries);
  co_await mb.retrace(entries);
}

/// Waits out the rest of the budget; the agent must be at its home.
Proc drain(Mailbox& mb, std::uint64_t end_clock) {
  if (mb.clock() < end_clock) co_await mb.wait(end_clock - mb.clock());
}

}  // namespace

Proc asymm_rv(Mailbox& mb, std::uint32_t n, const uxs::Uxs& y,
              std::uint64_t end_clock,
              std::optional<std::vector<bool>> label) {
  const std::uint64_t E = explore_return_rounds(y.length());
  auto remaining = [&]() -> std::uint64_t {
    return end_clock > mb.clock() ? end_clock - mb.clock() : 0;
  };

  std::vector<bool> bits;
  if (label.has_value()) {
    bits = std::move(*label);
  } else {
    if (remaining() < E) {
      co_await drain(mb, end_clock);
      co_return;
    }
    co_await signature_walk(mb, n, y, &bits);
  }
  if (bits.empty()) bits.push_back(true);  // degenerate label: explore

  std::vector<graph::Port> entries(y.length() + 1);

  for (std::uint32_t p = 0;; ++p) {
    const std::uint64_t block = sat_mul(E, sat_pow(2, p + 2));
    const std::uint64_t reps = block / E;
    for (const bool bit : bits) {
      if (bit) {
        for (std::uint64_t r = 0; r < reps; ++r) {
          if (remaining() < E) {
            co_await drain(mb, end_clock);
            co_return;
          }
          co_await uxs_explore_return(mb, y, entries);
        }
      } else {
        if (remaining() < block) {
          co_await drain(mb, end_clock);
          co_return;
        }
        co_await mb.wait(block);
      }
    }
  }
}

sim::AgentProgram asymm_rv_program(std::uint32_t n, uxs::Uxs y,
                                   std::uint64_t budget,
                                   std::optional<std::vector<bool>> label) {
  return [n, y = std::move(y), budget, label = std::move(label)](
             Mailbox& mb, Observation) -> Proc {
    return [](Mailbox& mb2, std::uint32_t n2, uxs::Uxs y2,
              std::uint64_t budget2,
              std::optional<std::vector<bool>> label2) -> Proc {
      co_await asymm_rv(mb2, n2, y2, sat_add(mb2.clock(), budget2),
                        std::move(label2));
    }(mb, n, y, budget, label);
  };
}

}  // namespace rdv::core
