#include "store/codec.hpp"

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

std::string encode_all_pairs_shrink(const views::AllPairsShrink& a) {
  Encoder e(4 + 8 + 4 * a.values.size() + 8);
  e.u32(a.n);
  e.u32_vec(a.values);
  e.u64(a.pairs_explored);
  return e.take();
}

views::AllPairsShrink decode_all_pairs_shrink(std::string_view bytes) {
  Decoder d(bytes);
  views::AllPairsShrink a;
  a.n = d.u32();
  a.values = d.u32_vec();
  a.pairs_explored = d.u64();
  d.finish();
  if (a.values.size() !=
      static_cast<std::size_t>(a.n) * static_cast<std::size_t>(a.n)) {
    throw CodecError("all-pairs shrink table is not n x n");
  }
  return a;
}

}  // namespace rdv::store
