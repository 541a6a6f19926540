#include "graph/families/qhat_implicit.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace rdv::graph::families {
namespace {

constexpr std::array<Step, 4> kUnresolved{Step{kNoNode, 0}, Step{kNoNode, 0},
                                          Step{kNoNode, 0}, Step{kNoNode, 0}};
constexpr std::uint64_t kLengthUnit = std::uint64_t{1} << 56;

// Registered at load, so every snapshot carries it, zero included.
obs::Counter& index_builds = obs::counter("graph.qhat_index_builds");

}  // namespace

QhatImplicitTopology::PackedPath QhatImplicitTopology::PackedPath::pushed(
    Dir d) const noexcept {
  const std::uint32_t i = size();
  assert(i < kMaxHeight);
  PackedPath next = *this;
  const std::uint64_t bits = static_cast<std::uint64_t>(d) << (2 * (i % 32));
  (i < 32 ? next.lo : next.hi) |= bits;
  next.hi += kLengthUnit;
  return next;
}

QhatImplicitTopology::PackedPath QhatImplicitTopology::PackedPath::popped()
    const noexcept {
  assert(size() > 0);
  const std::uint32_t i = size() - 1;
  PackedPath next = *this;
  (i < 32 ? next.lo : next.hi) &= ~(std::uint64_t{3} << (2 * (i % 32)));
  next.hi -= kLengthUnit;
  return next;
}

std::uint64_t QhatImplicitTopology::PackedPath::hash() const noexcept {
  // SplitMix64's finalizer over both words.
  std::uint64_t z = lo ^ (hi * 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

QhatImplicitTopology::PackedPath QhatImplicitTopology::pack(
    std::span<const Dir> path) {
  PackedPath packed;
  for (const Dir d : path) packed = packed.pushed(d);
  return packed;
}

void QhatImplicitTopology::unpack(const PackedPath& path,
                                  std::span<Dir> out) {
  assert(out.size() >= path.size());
  for (std::uint32_t i = 0; i < path.size(); ++i) out[i] = path.at(i);
}

QhatImplicitTopology::QhatImplicitTopology(std::uint32_t h) : h_(h) {
  if (h < 2 || h > kMaxHeight) {
    throw std::invalid_argument(
        "QhatImplicitTopology: h must be in [2, 39]");
  }
  x_ = qhat_leaves_per_type(h);
  // dp_[r][c][l]; dp_[0][c][l] = (c == l).
  dp_.resize(h_);
  for (std::uint8_t c = 0; c < 4; ++c) {
    for (std::uint8_t l = 0; l < 4; ++l) dp_[0][c][l] = (c == l) ? 1 : 0;
  }
  for (std::uint32_t r = 1; r < h_; ++r) {
    for (std::uint8_t c = 0; c < 4; ++c) {
      for (std::uint8_t l = 0; l < 4; ++l) {
        std::uint64_t total = 0;
        for (std::uint8_t d = 0; d < 4; ++d) {
          if (static_cast<Dir>(d) == opposite(static_cast<Dir>(c))) continue;
          total += dp_[r - 1][d][l];
        }
        dp_[r][c][l] = total;
      }
    }
  }
  // Materialize the root; the hash index waits for its first lookup.
  (void)append(PackedPath{});
}

Port QhatImplicitTopology::degree(Node v) const {
  assert(v < paths_.size());
  (void)v;
  return 4;  // Q-hat is 4-regular by construction.
}

std::string QhatImplicitTopology::name() const {
  return "qhat_implicit(" + std::to_string(h_) + ")";
}

std::vector<Dir> QhatImplicitTopology::path_of(Node v) const {
  assert(v < paths_.size());
  std::vector<Dir> path(paths_[v].size());
  unpack(paths_[v], path);
  return path;
}

Node QhatImplicitTopology::node_at(std::span<const Dir> path) const {
  if (path.size() > h_) {
    throw std::invalid_argument("node_at: path longer than height");
  }
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (static_cast<std::uint8_t>(path[i]) >= 4) {
      throw std::invalid_argument("node_at: direction out of range");
    }
    if (i > 0 && path[i] == opposite(path[i - 1])) {
      throw std::invalid_argument("node_at: path steps back to parent");
    }
  }
  return intern(pack(path));
}

Node QhatImplicitTopology::append(const PackedPath& path) const {
  const auto id = static_cast<Node>(paths_.size());
  paths_.push_back(path);
  adj_.push_back(kUnresolved);
  return id;
}

Node QhatImplicitTopology::intern(const PackedPath& path) const {
  if (slots_.empty()) {
    // First lookup: index every node so far, leaving room for this one.
    index_builds.add();
    rehash(std::max<std::size_t>(16, std::bit_ceil(2 * paths_.size() + 2)));
  }
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = path.hash() & mask;
  for (; slots_[i] != kNoNode; i = (i + 1) & mask) {
    if (paths_[slots_[i]] == path) return slots_[i];
  }
  const Node id = append(path);
  slots_[i] = id;
  if (2 * paths_.size() > slots_.size()) rehash(2 * slots_.size());
  return id;
}

void QhatImplicitTopology::rehash(std::size_t slot_count) const {
  slots_.assign(slot_count, kNoNode);
  const std::size_t mask = slot_count - 1;
  for (Node id = 0; id < paths_.size(); ++id) {
    std::size_t i = paths_[id].hash() & mask;
    while (slots_[i] != kNoNode) i = (i + 1) & mask;
    slots_[i] = id;
  }
}

std::uint64_t QhatImplicitTopology::completions(std::uint32_t remaining,
                                                Dir at, Dir last) const {
  return dp_[remaining][static_cast<std::uint8_t>(at)]
            [static_cast<std::uint8_t>(last)];
}

std::uint64_t QhatImplicitTopology::leaf_rank(
    std::span<const Dir> path) const {
  assert(path.size() == h_);
  const Dir last = path.back();
  std::uint64_t rank = 1;
  for (std::uint32_t j = 0; j < h_; ++j) {
    for (std::uint8_t c = 0; c < static_cast<std::uint8_t>(path[j]); ++c) {
      const Dir dir = static_cast<Dir>(c);
      if (j > 0 && dir == opposite(path[j - 1])) continue;
      rank += completions(h_ - 1 - j, dir, last);
    }
  }
  return rank;
}

std::vector<Dir> QhatImplicitTopology::leaf_unrank(
    Dir last, std::uint64_t rank) const {
  std::vector<Dir> path(h_);
  unrank_into(last, rank, path);
  return path;
}

void QhatImplicitTopology::unrank_into(Dir last, std::uint64_t rank,
                                       std::span<Dir> out) const {
  assert(rank >= 1 && rank <= x_);
  assert(out.size() >= h_);
  for (std::uint32_t j = 0; j < h_; ++j) {
    [[maybe_unused]] bool placed = false;
    for (std::uint8_t c = 0; c < 4; ++c) {
      const Dir dir = static_cast<Dir>(c);
      if (j > 0 && dir == opposite(out[j - 1])) continue;
      const std::uint64_t count = completions(h_ - 1 - j, dir, last);
      if (rank <= count) {
        out[j] = dir;
        placed = true;
        break;
      }
      rank -= count;
    }
    assert(placed);
  }
  assert(rank == 1);
}

Step QhatImplicitTopology::resolve(Node v, Port p) const {
  const PackedPath path = paths_[v];  // copy: intern may reallocate
  const std::uint32_t length = path.size();
  const Dir port = static_cast<Dir>(p);
  Step far;
  if (length > 0 && port == opposite(path.at(length - 1))) {
    // Tree edge toward the parent (the root has none).
    far = Step{intern(path.popped()), to_port(path.at(length - 1))};
  } else if (length < h_) {
    // Tree edge toward a child. Without an index every node so far came
    // down a tree edge whose memo holds it, so an unresolved child edge
    // leads to a new node.
    const PackedPath child = path.pushed(port);
    far = Step{slots_.empty() ? append(child) : intern(child),
               to_port(opposite(port))};
  } else {
    // Leaf-to-leaf edge: resolve through the shared Section-4 wiring rule.
    std::array<Dir, kMaxHeight> dirs{};
    const std::span<Dir> leaf(dirs.data(), h_);
    unpack(path, leaf);
    const Dir type = opposite(leaf.back());
    assert(port != type);  // type == tree-edge port, handled above
    const LeafLink link = leaf_link(type, leaf_rank(leaf), x_, port);
    // A leaf of type T has final direction opposite(T).
    unrank_into(opposite(link.type), link.index, leaf);
    far = Step{intern(pack(leaf)), to_port(link.entry)};
  }
  // Port-labeled edges are symmetric: the far end's entry port leads back.
  adj_[v][p] = far;
  adj_[far.to][far.entry_port] = Step{v, p};
  return far;
}

}  // namespace rdv::graph::families
