#include "views/shrink.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <queue>
#include <span>

#include "graph/automorphism.hpp"
#include "obs/metrics.hpp"

namespace rdv::views {

using graph::Graph;
using graph::Node;
using graph::Port;

namespace {

// Registered at load, so every snapshot carries them, zero included.
obs::Counter& pair_bfs_runs = obs::counter("views.shrink_pair_bfs");
obs::Counter& all_pairs_runs = obs::counter("views.shrink_all_pairs_computes");
obs::Counter& distance_rows = obs::counter("views.shrink_distance_rows");
obs::Counter& pull_layers = obs::counter("views.shrink_pull_layers");
obs::Counter& transitive_tables =
    obs::counter("views.shrink_transitive_tables");

/// Sentinel "no parent yet" marker for the flat parent table.
constexpr std::uint64_t kNoPair = static_cast<std::uint64_t>(-1);

}  // namespace

ShrinkResult shrink_with_witness(const Graph& g, Node u, Node v) {
  pair_bfs_runs.add();
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

/// The graph as flat tables keyed by (node, port), built once by the
/// PairSweep and walked by both all-pairs paths: succ[a * maxdeg + p] =
/// a·p, and the reverse adjacency as a CSR, rev_nodes[rev_off[x * maxdeg
/// + p] .. rev_off[x * maxdeg + p + 1]) = every a with a·p == x. The
/// ordered predecessors of a pair (a', b') under port p are exactly
/// rev[a'][p] x rev[b'][p] (p is applicable at a predecessor iff both
/// nodes own port p, which membership implies).
struct PortTables {
  explicit PortTables(const Graph& g)
      : n(g.size()),
        maxdeg(g.max_degree()),
        deg(n),
        succ(static_cast<std::size_t>(n) * maxdeg, 0),
        rev_off(static_cast<std::size_t>(n) * maxdeg + 1, 0) {
    for (Node a = 0; a < n; ++a) {
      deg[a] = g.degree(a);
      for (Port p = 0; p < deg[a]; ++p) {
        const Node to = g.step(a, p).to;
        succ[static_cast<std::size_t>(a) * maxdeg + p] = to;
        ++rev_off[static_cast<std::size_t>(to) * maxdeg + p + 1];
      }
    }
    for (std::size_t i = 1; i < rev_off.size(); ++i)
      rev_off[i] += rev_off[i - 1];
    rev_nodes.resize(rev_off.back());
    std::vector<std::uint32_t> cursor(rev_off.begin(), rev_off.end() - 1);
    for (Node a = 0; a < n; ++a)
      for (Port p = 0; p < deg[a]; ++p) {
        const Node to = succ[static_cast<std::size_t>(a) * maxdeg + p];
        rev_nodes[cursor[static_cast<std::size_t>(to) * maxdeg + p]++] = a;
      }
  }

  [[nodiscard]] const Node* successors(Node a) const {
    return &succ[static_cast<std::size_t>(a) * maxdeg];
  }

  /// BFS from src with caller-owned buffers of n entries: dist[v] is the
  /// hop distance (graph::kUnreachable where not reached), and
  /// order[0 .. reached) lists the reached nodes in discovery order.
  /// Returns the number of nodes reached.
  std::size_t bfs(Node src, std::vector<std::uint32_t>& dist,
                  std::vector<Node>& order) const {
    std::fill(dist.begin(), dist.end(), graph::kUnreachable);
    dist[src] = 0;
    order[0] = src;
    std::size_t tail = 1;
    for (std::size_t head = 0; head < tail; ++head) {
      const Node v = order[head];
      const Node* sv = successors(v);
      for (Port p = 0; p < deg[v]; ++p)
        if (dist[sv[p]] == graph::kUnreachable) {
          dist[sv[p]] = dist[v] + 1;
          order[tail++] = sv[p];
        }
    }
    return tail;
  }

  const std::uint32_t n;
  const Port maxdeg;
  std::vector<Port> deg;
  std::vector<Node> succ;
  std::vector<std::uint32_t> rev_off;
  std::vector<Node> rev_nodes;
};

/// The pair-orbit path (the proof is in shrink.hpp). When the graph's
/// port-preserving automorphisms act transitively on its nodes, fills
/// every cell of `values` and returns true; otherwise returns false
/// and leaves `values` untouched.
bool shrink_pair_orbits(const Graph& g, const PortTables& t,
                        std::vector<std::uint32_t>& values) {
  const std::uint32_t n = t.n;
  const Port delta = t.maxdeg;
  if (std::any_of(t.deg.begin(), t.deg.end(),
                  [delta](Port d) { return d != delta; }))
    return false;
  // BFS distances from r = 0, and its nodes in discovery order.
  std::vector<std::uint32_t> dist(n);
  std::vector<Node> order(n);
  if (t.bfs(0, dist, order) != n) return false;
  // gen[p * n + x] = φ_p(x) for the automorphism φ_p with φ_p(r) = r·p.
  // When every φ_p exists, the automorphisms act transitively.
  const graph::TreeWalk tree(g, 0);
  std::vector<Node> gen(static_cast<std::size_t>(delta) * n);
  for (Port p = 0; p < delta; ++p) {
    const std::span<Node> phi(&gen[static_cast<std::size_t>(p) * n], n);
    if (!tree.automorphism(t.succ[p], phi)) return false;
  }
  // orbit[x] = Shrink(r, x). Port p steps the orbit of (r, x) to the
  // orbit of (r, φ_p⁻¹(x·p)), so the orbits stepping to y under p are
  // rev[φ_p(y)][p]. Seeds in BFS order have nondecreasing distance, and
  // each seed's backward closure runs before the next seed, so every
  // orbit takes the least distance it reaches.
  std::vector<std::uint32_t> orbit(n, graph::kUnreachable);
  std::vector<Node> stack;
  for (const Node x : order) {
    if (orbit[x] != graph::kUnreachable) continue;
    orbit[x] = dist[x];
    stack.push_back(x);
    while (!stack.empty()) {
      const Node y = stack.back();
      stack.pop_back();
      for (Port p = 0; p < delta; ++p) {
        const Node target = gen[static_cast<std::size_t>(p) * n + y];
        const std::size_t z = static_cast<std::size_t>(target) * delta + p;
        for (std::uint32_t j = t.rev_off[z]; j < t.rev_off[z + 1]; ++j) {
          const Node w = t.rev_nodes[j];
          if (orbit[w] == graph::kUnreachable) {
            orbit[w] = dist[x];
            stack.push_back(w);
          }
        }
      }
    }
  }
  // Row a is the orbit table carried by the automorphism ψ_a with
  // ψ_a(r) = a: Shrink(a, ψ_a(x)) = orbit[x]. One map at a time: the
  // rows never hold more than one.
  std::vector<Node> psi(n);
  for (Node a = 0; a < n; ++a) {
    tree.candidate(a, psi);
    std::uint32_t* row = &values[static_cast<std::size_t>(a) * n];
    for (Node x = 0; x < n; ++x) row[psi[x]] = orbit[x];
  }
  return true;
}

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
        t_(g) {
    std::vector<std::uint64_t> padding(words_, 0);
    for (std::size_t b = n_; b < words_ * 64; ++b)
      padding[b / 64] |= std::uint64_t{1} << (b % 64);
    for (Node a = 0; a < n_; ++a)
      std::copy(padding.begin(), padding.end(),
                marks_.begin() + static_cast<std::ptrdiff_t>(a * words_));
  }

  [[nodiscard]] const PortTables& tables() const { return t_; }

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
    const std::vector<std::uint32_t>& rev_off = t_.rev_off;
    const std::vector<Node>& rev_nodes = t_.rev_nodes;
    for (const std::uint64_t id : frontier_) {
      const std::size_t a2 = static_cast<std::size_t>(id >> shift_) * maxdeg_;
      const std::size_t b2 = static_cast<std::size_t>(id & mask()) * maxdeg_;
      for (Port p = 0; p < maxdeg_; ++p) {
        const std::uint32_t a_end = rev_off[a2 + p + 1];
        const std::uint32_t b_begin = rev_off[b2 + p];
        const std::uint32_t b_end = rev_off[b2 + p + 1];
        for (std::uint32_t i = rev_off[a2 + p]; i < a_end; ++i)
          for (std::uint32_t j = b_begin; j < b_end; ++j)
            if (!marked(rev_nodes[i], rev_nodes[j]))
              assign(rev_nodes[i], rev_nodes[j], d);
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
      const Node* sa = t_.successors(a);
      for_each_open(a, [&](Node b) {
        const Node* sb = t_.successors(b);
        const Port common = std::min(t_.deg[a], t_.deg[b]);
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
    // The rows walk the flat successor table with reused buffers:
    // calling graph::bfs_distances per row made the kernel about 10%
    // slower on graphs where every row runs.
    std::vector<std::uint32_t> dist(n_);
    std::vector<Node> queue(n_);
    for (Node a = 0; a + 1 < n_; ++a) {
      if (!has_open(a)) continue;
      ++rows_;
      t_.bfs(a, dist, queue);
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
  const PortTables t_;
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
  all_pairs_runs.add();
  const std::uint32_t n = g.size();
  AllPairsShrink out;
  out.n = n;
  out.values.assign(static_cast<std::size_t>(n) * n, graph::kUnreachable);
  if (n == 0) return out;
  PairSweep sweep(g, out.values);
  if (shrink_pair_orbits(g, sweep.tables(), out.values)) {
    transitive_tables.add();
    out.pairs_explored = static_cast<std::uint64_t>(n) * (n + 1) / 2;
    return out;
  }
  out.pairs_explored = sweep.run();
  distance_rows.add(sweep.distance_rows());
  pull_layers.add(sweep.pull_layers());
  return out;
}

std::uint64_t shrink_pair_bfs_count() noexcept { return pair_bfs_runs.value(); }

std::uint64_t shrink_all_pairs_compute_count() noexcept {
  return all_pairs_runs.value();
}

}  // namespace rdv::views
