#include "core/explore.hpp"

#include <span>
#include <stdexcept>
#include <vector>

namespace rdv::core {

using sim::Mailbox;
using sim::Proc;

Proc explore(Mailbox& mb, std::uint32_t d, std::uint64_t delta,
             std::uint64_t end_clock, std::uint64_t reserve,
             bool* completed) {
  if (delta < d) {
    throw std::invalid_argument("explore: requires delta >= d");
  }
  *completed = false;
  if (d == 0) {
    // Degenerate single empty path: the iteration is a pure wait.
    if (end_clock == kNoDeadline ||
        mb.clock() + delta + reserve <= end_clock) {
      if (delta > 0) co_await mb.wait(delta);
      *completed = true;
    }
    co_return;
  }

  // The current port sequence, the degree before each step (for the
  // lexicographic successor) and the entry ports (for the reverse
  // path), in one allocation per call.
  std::vector<graph::Port> buffer(3 * static_cast<std::size_t>(d), 0);
  const std::span<graph::Port> path(buffer.data(), d);
  const std::span<graph::Port> degrees(buffer.data() + d, d);
  const std::span<graph::Port> entries(buffer.data() + 2 * d, d);
  const std::uint64_t iteration_cost = static_cast<std::uint64_t>(d) + delta;

  for (;;) {
    if (end_clock != kNoDeadline &&
        mb.clock() + iteration_cost + reserve > end_clock) {
      co_return;  // would overrun; agent is at u
    }
    // Traverse the path, then take the reverse path back to u. A
    // one-move path stays a plain move: there a segment's setup costs
    // more than the resume it saves.
    if (d == 1) {
      degrees[0] = mb.last().degree;
      entries[0] = *(co_await mb.move(path[0])).entry_port;
      co_await mb.move(entries[0]);
    } else {
      co_await mb.walk_ports(path, entries, degrees);
      co_await mb.retrace(entries);
    }
    if (delta > d) co_await mb.wait(delta - d);

    // Lexicographic successor under the discovered degrees; prefix
    // degrees stay valid because the prefix nodes are unchanged.
    std::uint32_t i = d;
    while (i-- > 0) {
      if (path[i] + 1 < degrees[i]) {
        ++path[i];
        for (std::uint32_t j = i + 1; j < d; ++j) path[j] = 0;
        break;
      }
      if (i == 0) {
        *completed = true;
        co_return;
      }
    }
  }
}

Proc explore_full(Mailbox& mb, std::uint32_t d, std::uint64_t delta) {
  bool completed = false;
  co_await explore(mb, d, delta, kNoDeadline, 0, &completed);
}

}  // namespace rdv::core
