#include "core/signature.hpp"

#include "support/saturating.hpp"

namespace rdv::core {

using sim::Mailbox;
using sim::Proc;

namespace {

void append_fixed_width(std::vector<bool>* bits, std::uint64_t value,
                        unsigned width) {
  for (unsigned b = width; b-- > 0;) {
    bits->push_back(((value >> b) & 1u) != 0);
  }
}

}  // namespace

Proc signature_walk(Mailbox& mb, std::uint32_t n, const uxs::Uxs& y,
                    std::vector<bool>* bits_out) {
  const unsigned width = support::bits_for(n == 0 ? 1 : n);
  const std::size_t steps = y.length() + 1;
  std::vector<graph::Port> entries(steps);
  std::vector<graph::Port> degrees(steps);

  // Step i enters node u_{i+1}; its degree is the degree before step
  // i + 1, or the arrival observation's after the last step.
  const graph::Port last_degree =
      (co_await mb.walk_uxs(y.terms(), entries, degrees)).degree;
  for (std::size_t i = 0; i < steps; ++i) {
    const graph::Port degree = i + 1 < steps ? degrees[i + 1] : last_degree;
    append_fixed_width(bits_out, entries[i] & ((1ull << width) - 1), width);
    append_fixed_width(bits_out, degree & ((1ull << width) - 1), width);
  }
  co_await mb.retrace(entries);
}

std::vector<bool> signature_offline(const graph::ITopology& g,
                                    graph::Node start, std::uint32_t n,
                                    const uxs::Uxs& y) {
  const unsigned width = support::bits_for(n == 0 ? 1 : n);
  std::vector<bool> bits;
  graph::Step s = g.step(start, 0);
  append_fixed_width(&bits, s.entry_port & ((1ull << width) - 1), width);
  append_fixed_width(&bits, g.degree(s.to) & ((1ull << width) - 1), width);
  for (std::uint64_t a : y.terms()) {
    const graph::Port port =
        static_cast<graph::Port>((s.entry_port + a) % g.degree(s.to));
    s = g.step(s.to, port);
    append_fixed_width(&bits, s.entry_port & ((1ull << width) - 1), width);
    append_fixed_width(&bits, g.degree(s.to) & ((1ull << width) - 1), width);
  }
  return bits;
}

}  // namespace rdv::core
