#include "store/codec.hpp"

#include <algorithm>
#include <cstring>

namespace rdv::store {

namespace {

constexpr std::uint64_t kGamma = 0x9E3779B97F4A7C15ULL;

constexpr std::uint64_t scramble(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

std::uint64_t checksum(std::string_view bytes) noexcept {
  // Same position-salted SplitMix compression as cache::fingerprint:
  // permuted byte blocks hash differently.
  std::uint64_t state = 0xC0DEC0DE5EED0003ULL;
  std::uint64_t position = 0;
  const std::size_t full = bytes.size() - bytes.size() % 8;
  for (std::size_t i = 0; i < full; i += 8) {
    const auto word = le::load<std::uint64_t>(bytes.data() + i);
    state = scramble(state ^ (word + kGamma * ++position));
  }
  if (full < bytes.size()) {
    char tail[8] = {};
    std::memcpy(tail, bytes.data() + full, bytes.size() - full);
    const auto word = le::load<std::uint64_t>(tail);
    state = scramble(state ^ (word + kGamma * ++position));
  }
  return scramble(state ^ bytes.size());
}

const char* kind_name(Kind kind) noexcept {
  switch (kind) {
    case Kind::kViewClasses: return "view_classes";
    case Kind::kQuotients: return "quotients";
    case Kind::kUxs: return "uxs";
    case Kind::kShrinkAllPairs: return "shrink_all_pairs";
  }
  return "?";
}

std::string encode_uxs(const uxs::Uxs& y) {
  Encoder e(8 + 8 * y.terms().size() + 8 + y.provenance().size());
  e.u64_vec(y.terms());
  e.str(y.provenance());
  return e.take();
}

uxs::Uxs decode_uxs(std::string_view bytes) {
  Decoder d(bytes);
  std::vector<std::uint64_t> terms = d.u64_vec();
  std::string provenance = d.str();
  d.finish();
  return uxs::Uxs(std::move(terms), std::move(provenance));
}

std::string encode_view_classes(const views::ViewClasses& c) {
  Encoder e(8 + 4 * c.class_of.size() + 4 + 4);
  e.u32_vec(c.class_of);
  e.u32(c.class_count);
  e.u32(c.rounds);
  return e.take();
}

views::ViewClasses decode_view_classes(std::string_view bytes) {
  Decoder d(bytes);
  views::ViewClasses c;
  c.class_of = d.u32_vec();
  c.class_count = d.u32();
  c.rounds = d.u32();
  d.finish();
  return c;
}

std::string encode_quotient(const views::QuotientGraph& q) {
  std::size_t size = 8 + 8 + 4 * q.multiplicity.size();
  for (const std::vector<views::QuotientArc>& arcs : q.arcs) {
    size += 8 + 8 * arcs.size();
  }
  Encoder e(size);
  e.u64(q.arcs.size());
  for (const std::vector<views::QuotientArc>& arcs : q.arcs) {
    e.u64(arcs.size());
    for (const views::QuotientArc& arc : arcs) {
      e.u32(arc.to_class);
      e.u32(arc.rev_port);
    }
  }
  e.u32_vec(q.multiplicity);
  return e.take();
}

views::QuotientGraph decode_quotient(std::string_view bytes) {
  Decoder d(bytes);
  views::QuotientGraph q;
  const std::uint64_t classes = d.u64();
  if (classes > d.remaining() / 8) {
    throw CodecError("quotient class count past end");
  }
  q.arcs.resize(classes);
  for (std::uint64_t c = 0; c < classes; ++c) {
    const std::uint64_t ports = d.u64();
    if (ports > d.remaining() / 8) {
      throw CodecError("quotient arc count past end");
    }
    q.arcs[c].resize(ports);
    for (std::uint64_t p = 0; p < ports; ++p) {
      q.arcs[c][p].to_class = d.u32();
      q.arcs[c][p].rev_port = d.u32();
    }
  }
  q.multiplicity = d.u32_vec();
  d.finish();
  return q;
}

namespace {

/// Bytes per Shrink cell: the narrowest width whose all-ones value (the
/// unreachable sentinel) lies above every finite cell. `top` is one
/// more than the largest finite cell, 0 when there is none.
std::uint32_t shrink_cell_width(std::uint32_t top) noexcept {
  if (top <= 0xFFu) return 1;
  if (top <= 0xFFFFu) return 2;
  return 4;
}

/// Widens `out.size()` little-endian T cells to u32, all-ones to
/// graph::kUnreachable, and returns `top` of the cells. Adding 1 wraps
/// all-ones to 0, so the max needs no branch and the loop vectorizes.
template <typename T>
std::uint32_t widen_cells(const char* cells, std::span<std::uint32_t> out) {
  constexpr T kAllOnes = static_cast<T>(~T{0});
  T top = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const T c = le::load<T>(cells + i * sizeof(T));
    out[i] = c == kAllOnes ? graph::kUnreachable : c;
    const T next = static_cast<T>(c + 1);
    top = next > top ? next : top;
  }
  return top;
}

}  // namespace

std::string encode_all_pairs_shrink(const views::AllPairsShrink& a) {
  std::uint32_t top = 0;
  for (const std::uint32_t v : a.values) top = std::max(top, v + 1);
  const std::uint32_t width = shrink_cell_width(top);
  Encoder e(4 + 4 + width * a.values.size() + 8);
  e.u32(a.n);
  e.u32(width);
  switch (width) {
    case 1: e.narrow<std::uint8_t>(a.values); break;
    case 2: e.narrow<std::uint16_t>(a.values); break;
    default: e.narrow<std::uint32_t>(a.values); break;
  }
  e.u64(a.pairs_explored);
  return e.take();
}

views::AllPairsShrink decode_all_pairs_shrink(std::string_view bytes) {
  Decoder d(bytes);
  views::AllPairsShrink a;
  a.n = d.u32();
  const std::uint32_t width = d.u32();
  if (width != 1 && width != 2 && width != 4) {
    throw CodecError("all-pairs shrink cell width not 1, 2 or 4");
  }
  const std::uint64_t count = static_cast<std::uint64_t>(a.n) * a.n;
  if (count > d.remaining() / width) {
    throw CodecError("all-pairs shrink table past end");
  }
  const char* cells = d.view(count * width).data();
  a.pairs_explored = d.u64();
  d.finish();
  a.values.resize(count);
  std::uint32_t top = 0;
  switch (width) {
    case 1: top = widen_cells<std::uint8_t>(cells, a.values); break;
    case 2: top = widen_cells<std::uint16_t>(cells, a.values); break;
    default: top = widen_cells<std::uint32_t>(cells, a.values); break;
  }
  if (shrink_cell_width(top) != width) {
    throw CodecError("all-pairs shrink cell width is not the narrowest");
  }
  for (std::uint64_t u = 0; u < a.n; ++u) {
    if (a.values[u * a.n + u] != 0) {
      throw CodecError("all-pairs shrink diagonal cell is not 0");
    }
  }
  return a;
}

}  // namespace rdv::store
