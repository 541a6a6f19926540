#include "views/shrink.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <queue>

namespace rdv::views {

using graph::Graph;
using graph::Node;
using graph::Port;

namespace {

std::atomic<std::uint64_t> pair_bfs_runs{0};
std::atomic<std::uint64_t> all_pairs_runs{0};
std::atomic<std::uint64_t> distance_rows{0};
std::atomic<std::uint64_t> pull_layers{0};

/// Sentinel "no parent yet" marker for the flat parent table.
constexpr std::uint64_t kNoPair = static_cast<std::uint64_t>(-1);

}  // namespace

ShrinkResult shrink_with_witness(const Graph& g, Node u, Node v) {
  pair_bfs_runs.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t n = g.size();
  const auto pair_id = [n](Node a, Node b) -> std::uint64_t {
    return static_cast<std::uint64_t>(a) * n + b;
  };

  // Product BFS over ordered pairs; parent pointers (pair, port) let us
  // reconstruct the witness sequence. n^2 is known up front, so the
  // parent table is a flat vector keyed by pair id, not a hash map.
  struct Parent {
    std::uint64_t from = kNoPair;
    Port port = 0;
  };
  std::vector<Parent> parents(n * n);
  std::queue<std::uint64_t> queue;
  const std::uint64_t start = pair_id(u, v);
  parents[start] = Parent{start, 0};
  queue.push(start);

  // Distances to every node from every *distinct second coordinate* we
  // meet would be wasteful; instead gather reachable pairs first, then
  // BFS per distinct first coordinate.
  std::vector<std::uint64_t> reachable;
  while (!queue.empty()) {
    const std::uint64_t id = queue.front();
    queue.pop();
    reachable.push_back(id);
    const Node a = static_cast<Node>(id / n);
    const Node b = static_cast<Node>(id % n);
    const Port common = std::min(g.degree(a), g.degree(b));
    for (Port p = 0; p < common; ++p) {
      const Node a2 = g.step(a, p).to;
      const Node b2 = g.step(b, p).to;
      const std::uint64_t id2 = pair_id(a2, b2);
      if (parents[id2].from == kNoPair) {
        parents[id2] = Parent{id, p};
        queue.push(id2);
      }
    }
  }

  // Minimum distance over reachable pairs, grouped by first coordinate
  // so each BFS is reused.
  std::sort(reachable.begin(), reachable.end());
  ShrinkResult out;
  out.shrink = graph::kUnreachable;
  out.pairs_explored = reachable.size();
  std::uint64_t best_pair = start;
  std::vector<std::uint32_t> dist;
  Node dist_source = graph::kNoNode;
  for (const std::uint64_t id : reachable) {
    const Node a = static_cast<Node>(id / n);
    const Node b = static_cast<Node>(id % n);
    if (a != dist_source) {
      dist = graph::bfs_distances(g, a);
      dist_source = a;
    }
    if (dist[b] < out.shrink) {
      out.shrink = dist[b];
      best_pair = id;
      if (out.shrink == 0) break;
    }
  }

  if (out.shrink == graph::kUnreachable) {
    // Disconnected input: the two coordinates stay in their own
    // components under every port sequence, so no reachable pair is at
    // finite distance. Per the ShrinkResult contract there is no
    // closest pair and no witness.
    return out;
  }

  // Reconstruct the witness port sequence.
  out.closest_u = static_cast<Node>(best_pair / n);
  out.closest_v = static_cast<Node>(best_pair % n);
  std::uint64_t cursor = best_pair;
  while (cursor != start) {
    const Parent& p = parents[cursor];
    out.witness.push_back(p.port);
    cursor = p.from;
  }
  std::reverse(out.witness.begin(), out.witness.end());
  return out;
}

std::uint32_t shrink(const Graph& g, Node u, Node v) {
  return shrink_with_witness(g, u, v).shrink;
}

namespace {

/// A closure layer pulls instead of pushing once its frontier holds at
/// least 1/kPullDivisor of the still-unassigned pairs: scanning every
/// unassigned pair's successors is then cheaper than enumerating the
/// frontier's predecessors.
constexpr std::uint64_t kPullDivisor = 32;

/// The all-pairs sweep. A pair (a, b) has the packed id
/// (a << shift_) | b, whose row of 2^shift_ >= max(n, 64) bits keeps
/// unpacking to a shift and a mask; the queues hold canonical ids
/// (a <= b).
///
/// A pair is "assigned" once its Shrink is final. Assigned pairs are
/// marked in a bitset indexed by packed id (both orders set at once,
/// the row padding b >= n preset), and their value is written to both
/// cells of `values` the moment they are discovered (a level-d seed's
/// cells already hold d).
class PairSweep {
 public:
  PairSweep(const Graph& g, std::vector<std::uint32_t>& values)
      : n_(g.size()),
        maxdeg_(g.max_degree()),
        shift_(std::max(6, static_cast<int>(std::bit_width(n_ - 1)))),
        words_((std::size_t{1} << shift_) / 64),
        values_(values),
        marks_(static_cast<std::size_t>(n_) * words_, 0),
        deg_(n_),
        succ_(static_cast<std::size_t>(n_) * maxdeg_, 0),
        rev_off_(static_cast<std::size_t>(n_) * maxdeg_ + 1, 0) {
    for (Node a = 0; a < n_; ++a) {
      deg_[a] = g.degree(a);
      for (Port p = 0; p < deg_[a]; ++p) {
        const Node to = g.step(a, p).to;
        succ_[static_cast<std::size_t>(a) * maxdeg_ + p] = to;
        ++rev_off_[static_cast<std::size_t>(to) * maxdeg_ + p + 1];
      }
    }
    // Reverse product adjacency as a flat CSR keyed by (node, port):
    // rev_nodes_[rev_off_[x*maxdeg+p] ..] = all a with succ(a, p) == x.
    // The ordered predecessors of a pair (a', b') under port p are
    // exactly rev[a'][p] x rev[b'][p] (p is applicable at a predecessor
    // iff both nodes own port p, which membership implies).
    for (std::size_t i = 1; i < rev_off_.size(); ++i)
      rev_off_[i] += rev_off_[i - 1];
    rev_nodes_.resize(rev_off_.back());
    std::vector<std::uint32_t> cursor(rev_off_.begin(), rev_off_.end() - 1);
    for (Node a = 0; a < n_; ++a)
      for (Port p = 0; p < deg_[a]; ++p) {
        const Node to = succ_[static_cast<std::size_t>(a) * maxdeg_ + p];
        rev_nodes_[cursor[static_cast<std::size_t>(to) * maxdeg_ + p]++] = a;
      }
    std::vector<std::uint64_t> padding(words_, 0);
    for (std::size_t b = n_; b < words_ * 64; ++b)
      padding[b / 64] |= std::uint64_t{1} << (b % 64);
    for (Node a = 0; a < n_; ++a)
      std::copy(padding.begin(), padding.end(),
                marks_.begin() + static_cast<std::ptrdiff_t>(a * words_));
  }

  /// Fills `values` and returns the number of assigned canonical pairs.
  std::uint64_t run() {
    // Level 0 needs no distances: it is the backward closure of the
    // diagonal.
    for (Node a = 0; a < n_; ++a) assign(a, a, 0);
    close_level(0);
    // Only pairs level 0 left open need their distance; only rows that
    // hold one run a BFS. Processing levels in increasing d keeps the
    // assignment exact: a pair that reaches some pair at distance
    // d' < d was assigned while level d' closed, so a pair first reached
    // at level d has minimum reachable distance exactly d.
    seed_by_distance();
    for (std::uint32_t d = 1; d + 1 < seed_off_.size(); ++d) {
      next_.clear();
      for (std::size_t i = seed_off_[d]; i < seed_off_[d + 1]; ++i) {
        const Node a = static_cast<Node>(seeds_[i] >> shift_);
        const Node b = static_cast<Node>(seeds_[i] & mask());
        // A seed still open at its own level takes its distance, which
        // both of its cells already hold.
        if (!marked(a, b)) mark(a, b);
      }
      close_level(d);
    }
    return assigned_;
  }

  [[nodiscard]] std::uint64_t distance_rows() const { return rows_; }
  [[nodiscard]] std::uint64_t pull_layers() const { return pulls_; }

 private:
  [[nodiscard]] bool marked(Node a, Node b) const {
    const std::size_t bit = (static_cast<std::size_t>(a) << shift_) | b;
    return (marks_[bit / 64] >> (bit % 64)) & 1u;
  }

  [[nodiscard]] std::uint64_t mask() const {
    return (std::uint64_t{1} << shift_) - 1;
  }

  [[nodiscard]] std::uint64_t pack(Node a, Node b) const {
    return (static_cast<std::uint64_t>(a) << shift_) | b;
  }

  void assign(Node a, Node b, std::uint32_t d) {
    values_[static_cast<std::size_t>(a) * n_ + b] = d;
    values_[static_cast<std::size_t>(b) * n_ + a] = d;
    mark(a, b);
  }

  void mark(Node a, Node b) {
    const std::size_t ab = (static_cast<std::size_t>(a) << shift_) | b;
    const std::size_t ba = (static_cast<std::size_t>(b) << shift_) | a;
    marks_[ab / 64] |= std::uint64_t{1} << (ab % 64);
    marks_[ba / 64] |= std::uint64_t{1} << (ba % 64);
    next_.push_back(a <= b ? pack(a, b) : pack(b, a));
    ++assigned_;
  }

  /// The unassigned b > a in word w of row a, for w >= (a + 1) / 64.
  [[nodiscard]] std::uint64_t open_bits(Node a, std::size_t w) const {
    std::uint64_t open = ~marks_[static_cast<std::size_t>(a) * words_ + w];
    if (w == (a + 1) / 64) open &= ~std::uint64_t{0} << ((a + 1) % 64);
    return open;
  }

  [[nodiscard]] bool has_open(Node a) const {
    for (std::size_t w = (a + 1) / 64; w < words_; ++w)
      if (open_bits(a, w) != 0) return true;
    return false;
  }

  /// Calls f(b) for every unassigned b > a, in increasing order.
  template <typename F>
  void for_each_open(Node a, F&& f) const {
    for (std::size_t w = (a + 1) / 64; w < words_; ++w) {
      for (std::uint64_t open = open_bits(a, w); open != 0; open &= open - 1)
        f(static_cast<Node>(w * 64 + std::countr_zero(open)));
    }
  }

  /// Closes level d from the pairs just assigned to it (in next_), one
  /// BFS layer at a time. The seed layer always pushes; a later layer
  /// pulls when it is a large share of the unassigned pairs.
  void close_level(std::uint32_t d) {
    const std::uint64_t total =
        static_cast<std::uint64_t>(n_) * (n_ + 1) / 2;
    for (bool seed = true; !next_.empty() && assigned_ < total; seed = false) {
      frontier_.swap(next_);
      next_.clear();
      if (!seed && frontier_.size() * kPullDivisor >= total - assigned_) {
        pull(d);
      } else {
        push(d);
      }
    }
  }

  /// Push: assigns every unassigned predecessor of the frontier.
  void push(std::uint32_t d) {
    for (const std::uint64_t id : frontier_) {
      const std::size_t a2 = static_cast<std::size_t>(id >> shift_) * maxdeg_;
      const std::size_t b2 = static_cast<std::size_t>(id & mask()) * maxdeg_;
      for (Port p = 0; p < maxdeg_; ++p) {
        const std::uint32_t a_end = rev_off_[a2 + p + 1];
        const std::uint32_t b_begin = rev_off_[b2 + p];
        const std::uint32_t b_end = rev_off_[b2 + p + 1];
        for (std::uint32_t i = rev_off_[a2 + p]; i < a_end; ++i)
          for (std::uint32_t j = b_begin; j < b_end; ++j)
            if (!marked(rev_nodes_[i], rev_nodes_[j]))
              assign(rev_nodes_[i], rev_nodes_[j], d);
      }
    }
  }

  /// Pull: every unassigned pair joins level d on its first assigned
  /// successor. Exact because an unassigned pair has no successor
  /// assigned at a level below d (it would have joined that level), so
  /// any assigned successor belongs to level d. A successor assigned
  /// later in the same scan is in next_, so the next layer catches it.
  void pull(std::uint32_t d) {
    ++pulls_;
    for (Node a = 0; a + 1 < n_; ++a) {
      const Node* sa = &succ_[static_cast<std::size_t>(a) * maxdeg_];
      for_each_open(a, [&](Node b) {
        const Node* sb = &succ_[static_cast<std::size_t>(b) * maxdeg_];
        const Port common = std::min(deg_[a], deg_[b]);
        for (Port p = 0; p < common; ++p)
          if (marked(sa[p], sb[p])) {
            assign(a, b, d);
            return;
          }
      });
    }
  }

  /// One BFS row per source whose row still has an unassigned pair,
  /// then a counting sort of those pairs by distance into seeds_. Both
  /// cells of each such pair take its distance: the counting sort reads
  /// it back, it is the pair's value if no lower level claims the pair
  /// (a closure that does overwrites it), and cross-component pairs
  /// keep graph::kUnreachable, their final value. Writing the cells
  /// row by row here keeps the mirror writes cache-friendly.
  void seed_by_distance() {
    std::vector<std::uint64_t> count(n_, 0);
    // The rows walk the flat succ_ table with reused buffers: calling
    // graph::bfs_distances per row made the kernel about 10% slower on
    // graphs where every row runs (an oriented ring or torus).
    std::vector<std::uint32_t> dist(n_);
    std::vector<Node> queue(n_);
    for (Node a = 0; a + 1 < n_; ++a) {
      if (!has_open(a)) continue;
      ++rows_;
      std::fill(dist.begin(), dist.end(), graph::kUnreachable);
      dist[a] = 0;
      queue[0] = a;
      for (std::size_t head = 0, tail = 1; head < tail; ++head) {
        const Node v = queue[head];
        const Node* sv = &succ_[static_cast<std::size_t>(v) * maxdeg_];
        for (Port p = 0; p < deg_[v]; ++p)
          if (dist[sv[p]] == graph::kUnreachable) {
            dist[sv[p]] = dist[v] + 1;
            queue[tail++] = sv[p];
          }
      }
      for_each_open(a, [&](Node b) {
        values_[static_cast<std::size_t>(a) * n_ + b] = dist[b];
        values_[static_cast<std::size_t>(b) * n_ + a] = dist[b];
        if (dist[b] != graph::kUnreachable) ++count[dist[b]];
      });
    }
    seed_off_.assign(count.size() + 1, 0);
    for (std::size_t d = 0; d < count.size(); ++d)
      seed_off_[d + 1] = seed_off_[d] + count[d];
    seeds_.resize(seed_off_.back());
    std::vector<std::uint64_t> cursor(seed_off_.begin(), seed_off_.end() - 1);
    for (Node a = 0; a + 1 < n_; ++a) {
      const std::uint32_t* row = &values_[static_cast<std::size_t>(a) * n_];
      for_each_open(a, [&](Node b) {
        if (row[b] != graph::kUnreachable)
          seeds_[cursor[row[b]]++] = pack(a, b);
      });
    }
  }

  const std::uint32_t n_;
  const Port maxdeg_;
  const int shift_;
  const std::size_t words_;
  std::vector<std::uint32_t>& values_;
  std::vector<std::uint64_t> marks_;
  std::vector<Port> deg_;
  std::vector<Node> succ_;
  std::vector<std::uint32_t> rev_off_;
  std::vector<Node> rev_nodes_;
  std::vector<std::uint64_t> frontier_;
  std::vector<std::uint64_t> next_;
  std::vector<std::uint64_t> seeds_;
  std::vector<std::uint64_t> seed_off_;
  std::uint64_t assigned_ = 0;
  std::uint64_t rows_ = 0;
  std::uint64_t pulls_ = 0;
};

}  // namespace

AllPairsShrink shrink_all_pairs(const Graph& g) {
  all_pairs_runs.fetch_add(1, std::memory_order_relaxed);
  const std::uint32_t n = g.size();
  AllPairsShrink out;
  out.n = n;
  out.values.assign(static_cast<std::size_t>(n) * n, graph::kUnreachable);
  if (n == 0) return out;
  PairSweep sweep(g, out.values);
  out.pairs_explored = sweep.run();
  distance_rows.fetch_add(sweep.distance_rows(), std::memory_order_relaxed);
  pull_layers.fetch_add(sweep.pull_layers(), std::memory_order_relaxed);
  return out;
}

std::uint64_t shrink_pair_bfs_count() noexcept {
  return pair_bfs_runs.load(std::memory_order_relaxed);
}

std::uint64_t shrink_all_pairs_compute_count() noexcept {
  return all_pairs_runs.load(std::memory_order_relaxed);
}

std::uint64_t shrink_distance_row_count() noexcept {
  return distance_rows.load(std::memory_order_relaxed);
}

std::uint64_t shrink_pull_layer_count() noexcept {
  return pull_layers.load(std::memory_order_relaxed);
}

}  // namespace rdv::views
