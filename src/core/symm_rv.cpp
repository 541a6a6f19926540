#include "core/symm_rv.hpp"

#include <stdexcept>
#include <vector>

#include "core/explore.hpp"

namespace rdv::core {

using sim::Mailbox;
using sim::Observation;
using sim::Proc;

namespace {

/// Walks home along recorded entry ports and, under a finite deadline,
/// waits out the remaining budget there.
Proc go_home_and_level(Mailbox& mb, std::vector<graph::Port> home_entries,
                       std::uint64_t end_clock) {
  if (!home_entries.empty()) co_await mb.retrace(home_entries);
  if (end_clock != kNoDeadline && mb.clock() < end_clock) {
    co_await mb.wait(end_clock - mb.clock());
  }
}

}  // namespace

Proc symm_rv(Mailbox& mb, std::uint32_t n, std::uint32_t d,
             std::uint64_t delta, const uxs::Uxs& y,
             std::uint64_t end_clock, bool* completed) {
  if (delta < d) throw std::invalid_argument("symm_rv: requires delta >= d");
  (void)n;  // n fixes Y(n) = y and appears in the time bound only
  *completed = false;

  // Entry ports along u_0 .. u_i, for the final backtrack (and for
  // budget-truncated early returns).
  std::vector<graph::Port> home_entries;
  home_entries.reserve(y.length() + 1);
  bool sub_completed = false;

  // Explore(u_0, d, delta).
  co_await explore(mb, d, delta, end_clock, 0, &sub_completed);
  if (!sub_completed) {
    co_await go_home_and_level(mb, std::move(home_entries), end_clock);
    co_return;
  }

  // u_1 = succ(u_0, 0), then Explore(u_1, d, delta).
  if (end_clock != kNoDeadline && mb.clock() + 1 + 1 > end_clock) {
    co_await go_home_and_level(mb, std::move(home_entries), end_clock);
    co_return;
  }
  Observation o = co_await mb.move(0);
  home_entries.push_back(*o.entry_port);
  graph::Port entry = *o.entry_port;
  co_await explore(mb, d, delta, end_clock, home_entries.size(),
                   &sub_completed);
  if (!sub_completed) {
    co_await go_home_and_level(mb, std::move(home_entries), end_clock);
    co_return;
  }

  // for i = 1..M: u_{i+1} = succ(u_i, (q + a_i) mod d(u_i)); Explore.
  for (std::uint64_t a : y.terms()) {
    const graph::Port deg = mb.last().degree;
    const graph::Port port = static_cast<graph::Port>((entry + a) % deg);
    if (end_clock != kNoDeadline &&
        mb.clock() + 1 + (home_entries.size() + 1) > end_clock) {
      co_await go_home_and_level(mb, std::move(home_entries), end_clock);
      co_return;
    }
    o = co_await mb.move(port);
    entry = *o.entry_port;
    home_entries.push_back(entry);
    co_await explore(mb, d, delta, end_clock, home_entries.size(),
                     &sub_completed);
    if (!sub_completed) {
      co_await go_home_and_level(mb, std::move(home_entries), end_clock);
      co_return;
    }
  }

  // Go back to u_0 along the traversed path.
  co_await mb.retrace(home_entries);
  *completed = true;
}

sim::AgentProgram symm_rv_program(std::uint32_t n, std::uint32_t d,
                                  std::uint64_t delta, uxs::Uxs y) {
  return [n, d, delta, y = std::move(y)](Mailbox& mb,
                                         Observation) -> Proc {
    return [](Mailbox& mb2, std::uint32_t n2, std::uint32_t d2,
              std::uint64_t delta2, uxs::Uxs y2) -> Proc {
      bool completed = false;
      co_await symm_rv(mb2, n2, d2, delta2, y2, kNoDeadline, &completed);
    }(mb, n, d, delta, y);
  };
}

}  // namespace rdv::core
