#include "sim/multi_engine.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <functional>
#include <map>
#include <numeric>
#include <optional>
#include <span>
#include <sstream>
#include <tuple>
#include <type_traits>

#include "graph/automorphism.hpp"
#include "graph/graph.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "support/map_cells.hpp"
#include "support/saturating.hpp"

namespace rdv::sim {
namespace {

using graph::ITopology;
using graph::Node;
using graph::Port;
using support::kRoundInfinity;
using support::sat_add;

/// Rounds per window: an eighth of the rounds before it, at least the
/// first and at most the last. Constants, so the work done (and every
/// sim.* counter) is the same at any thread count; a run is generated
/// at most a window (so about an eighth) past its end, and a path holds
/// at most a window plus its runs' delays.
constexpr std::uint64_t kFirstWindow = 16;
constexpr std::uint64_t kMaxWindow = std::uint64_t{1} << 16;

/// An agent that issues more zero-length waits back to back fails.
constexpr std::uint32_t kMaxZeroWaitSpin = 1u << 20;

/// Topologies other than an explicit Graph may materialize nodes when
/// stepped, so their paths run ahead on ITopology::peek only: a step it
/// cannot resolve blocks the path until the merger takes it.
template <class Topo>
constexpr bool kLazy = !std::is_same_v<Topo, graph::Graph>;

/// Agent i of a run follows path `path`, appearing at round `start`.
struct Track {
  std::size_t path;
  std::uint64_t start;
};

/// The port of step `step` of segment s, leaving a node of the given
/// degree that the previous step entered by `entry`.
Port segment_port(const Segment& s, std::uint32_t step, Port entry,
                  Port degree) {
  switch (s.kind) {
    case Segment::Kind::kUxs:
      return step == 0
                 ? 0
                 : static_cast<Port>((entry + s.terms[step - 1]) % degree);
    case Segment::Kind::kPorts:
      return s.ports[step];
    case Segment::Kind::kRetrace:
      break;
  }
  return s.ports[s.length - 1 - step];
}

/// One agent's path, generated alone: for each round of its own clock
/// (0 = its appearance) the node it occupies, as a Cell (the narrowest
/// type that holds every node id), whether a move landed then and, when
/// a trace is recorded, the port the move took. Rounds [base, hi) are
/// held; the move chosen at hi - 1 lands when round hi is generated.
template <class Topo, class Cell>
class Path {
 public:
  enum class State : std::uint8_t { kUnstarted, kMove, kWait, kDone, kError };

  Path(const Topo& g, const AgentProgram& program, Node start,
       const MultiRunConfig& config)
      : g_(g), program_(program), config_(config), pos_(start) {}
  Path(const Path&) = delete;
  Path& operator=(const Path&) = delete;

  /// Generates the rounds before `until`, stopping early at an error or
  /// at a step that waits for take_step().
  void generate(std::uint64_t until) {
    if (until <= hi || blocked) return;
    reserve(until);
    if (state == State::kUnstarted) spawn();
    while (hi < until && !blocked && state != State::kError) {
      if (state == State::kMove) {
        walk(until);
      } else if (state == State::kWait && busy_until_ < until) {
        fill(busy_until_ + 1);
        resume(busy_until_);
      } else {
        fill(until);
      }
    }
  }

  /// Takes the step chosen at hi - 1 without generating its round: the
  /// run has reached that round (generate() waits on the step), or ended
  /// in it after the choice.
  void take_step() {
    blocked = false;
    if (state == State::kMove) (void)g_.step(pos_, port_);
  }

  /// Jumps to round `to` over rounds in which the agent stays put,
  /// keeping `history` rounds before it.
  void skip_to(std::uint64_t to, std::uint64_t history) {
    trim(hi);
    base = hi = to - std::min(to, history);
    reserve(to);
    fill(to);
  }

  /// Makes this path the image of `rep`'s under an automorphism: rep's
  /// rounds with every node mapped through `map`, and their state.
  void mirror(const Path& rep, std::span<const Cell> map) {
    base = rep.base;
    hi = rep.hi;
    moves_before_base = rep.moves_before_base;
    reserve(hi);
    support::map_cells(rep.nodes.data(), nodes.data(), hi - base, map);
    std::copy_n(rep.moved.begin(), hi - base, moved.begin());
    std::copy_n(rep.ports.begin(), ports.empty() ? 0 : hi - base, ports.begin());
    state = rep.state;
    end_round = rep.end_round;
    static_since = rep.static_since;
    busy_until_ = rep.busy_until_;
    error_ = rep.error_;
    error_indexed_ = rep.error_indexed_;
  }

  /// Drops the rounds before `keep`.
  void trim(std::uint64_t keep) {
    const std::size_t shift = std::min(keep, hi) - std::min(base, keep);
    if (shift == 0) return;
    const std::size_t used = hi - base;
    moves_before_base = moves_through(base + shift - 1);
    std::copy(nodes.begin() + shift, nodes.begin() + used, nodes.begin());
    std::copy(moved.begin() + shift, moved.begin() + used, moved.begin());
    if (!ports.empty()) {
      std::copy(ports.begin() + shift, ports.begin() + used, ports.begin());
    }
    base += shift;
  }

  [[nodiscard]] Node node(std::uint64_t t) const { return nodes[t - base]; }
  [[nodiscard]] std::uint64_t moves_through(std::uint64_t t) const {
    return std::accumulate(moved.begin(), moved.begin() + (t + 1 - base),
                           moves_before_base);
  }
  /// Resting since static_since: nothing happens before idle_until()
  /// (the end of its wait, or never once the program has ended).
  [[nodiscard]] std::uint64_t idle_until() const {
    if (state == State::kWait) return busy_until_;
    return state == State::kDone ? kRoundInfinity : 0;
  }
  /// The error message, naming the agent as agent i of its run.
  [[nodiscard]] std::string error(std::size_t i) const {
    return error_indexed_ ? "agent " + std::to_string(i) + " " + error_
                          : error_;
  }

  // The record and the state the merger reads.
  std::vector<Cell> nodes;
  std::vector<std::uint8_t> moved;
  std::vector<Port> ports;
  std::uint64_t base = 0;
  std::uint64_t hi = 0;
  std::uint64_t moves_before_base = 0;
  State state = State::kUnstarted;
  bool blocked = false;
  /// The round the program ended (kDone) or failed (kError).
  std::uint64_t end_round = 0;
  std::uint64_t static_since = 0;
  // Work done, for the sim.* counters.
  std::uint64_t moves = 0;
  std::uint64_t rounds = 0;
  std::uint64_t resumes = 0;
  std::uint64_t segments = 0;

 private:
  /// Growing to the exact need reallocates rarely (resize grows the
  /// capacity geometrically) and holds at most a window plus the runs'
  /// delays.
  void reserve(std::uint64_t until) {
    const std::size_t need = until - base;
    if (nodes.size() >= need) return;
    nodes.resize(need);
    moved.resize(need);
    if (config_.record_trace) ports.resize(need);
  }

  /// The agent stays at its node up to `end`.
  void fill(std::uint64_t end) {
    std::fill(nodes.begin() + (hi - base), nodes.begin() + (end - base),
              static_cast<Cell>(pos_));
    std::fill(moved.begin() + (hi - base), moved.begin() + (end - base), 0);
    rounds += end - hi;
    hi = end;
  }

  void spawn() {
    fill(1);
    const Observation initial{g_.degree(pos_), std::nullopt, 0};
    mailbox_.set_initial(initial);
    proc_.emplace(program_(mailbox_, initial));
    ++resumes;
    proc_->start();
    collect(0);
  }

  /// Lands the move in flight at hi and, in a walk segment, the steps
  /// after it up to `until`; resumes the program once the single move
  /// or the whole segment has landed.
  void walk(std::uint64_t until) {
    if (!in_segment_ && !kLazy<Topo>) {  // one move: no loop to set up
      const graph::Step next = g_.step(pos_, port_);
      const std::size_t i = hi - base;
      nodes[i] = static_cast<Cell>(next.to);
      moved[i] = 1;
      if (config_.record_trace) ports[i] = port_;
      pos_ = next.to;
      entry_ = next.entry_port;
      ++moves;
      ++rounds;
      resume(hi++);
      return;
    }
    // Everything the loop touches is local: a store through a narrow
    // Cell may alias any object, which would reload members per move.
    const Topo& g = g_;
    const Segment seg = mailbox_.segment();
    const bool single = !in_segment_;
    Cell* const cells = nodes.data();
    std::uint8_t* const flags = moved.data();
    Port* const taken = config_.record_trace ? ports.data() : nullptr;
    const std::size_t first = hi - base;
    const std::size_t last = until - base;
    std::size_t i = first;
    Node pos = pos_;
    Port port = port_;
    Port entry = 0;
    std::uint32_t step = step_;
    bool landed = false;
    for (;;) {
      graph::Step next;
      if constexpr (kLazy<Topo>) {
        next = g.peek(pos, port);
        if (next.to == graph::kNoNode) {
          blocked = true;
          break;
        }
      } else {
        next = g.step(pos, port);
      }
      pos = next.to;
      entry = next.entry_port;
      cells[i] = static_cast<Cell>(pos);
      flags[i] = 1;
      if (taken != nullptr) taken[i] = port;
      ++i;
      if (!single && seg.entries != nullptr) seg.entries[step] = entry;
      if (single || ++step == seg.length) {
        in_segment_ = false;
        landed = true;
        break;
      }
      const Port degree = g.degree(pos);
      port = segment_port(seg, step, entry, degree);
      if (seg.degrees != nullptr) seg.degrees[step] = degree;
      if (port >= degree) {
        pos_ = pos;
        take(base + i - 1, port, degree);
        break;
      }
      if (i == last) break;
    }
    if (i > first) entry_ = entry;
    moves += i - first;
    rounds += i - first;
    hi = base + i;
    pos_ = pos;
    step_ = step;
    if (state == State::kMove) port_ = port;
    if (landed) resume(hi - 1);
  }

  void resume(std::uint64_t t) {
    ++resumes;
    mailbox_.deliver_and_resume(Observation{g_.degree(pos_), entry_, t});
    collect(t);
  }

  void fail(std::uint64_t t, std::string error, bool indexed) {
    state = State::kError;
    end_round = t;
    error_ = std::move(error);
    error_indexed_ = indexed;
  }

  /// Takes port p at round t from a node of the given degree, or fails
  /// with the model's port-range error. The check runs when the move is
  /// chosen, whether by the coroutine or by a segment.
  void take(std::uint64_t t, Port p, Port degree) {
    if (p >= degree) {
      std::ostringstream err;
      err << "used port " << p << " at a degree-" << degree << " node";
      fail(t, err.str(), true);
      return;
    }
    port_ = p;
    state = State::kMove;
    zero_spin_ = 0;
  }

  /// Runs the program at round t until it chooses its next action.
  void collect(std::uint64_t t) {
    for (;;) {
      if (proc_->done()) {
        try {
          proc_->rethrow_if_failed();
        } catch (const std::exception& e) {
          fail(t, std::string("threw: ") + e.what(), true);
          return;
        }
        state = State::kDone;
        end_round = static_since = t;
        return;
      }
      if (!mailbox_.has_pending()) {
        fail(t, "agent suspended without an action", false);
        return;
      }
      const Action action = mailbox_.take_action();
      if (action.kind == Action::Kind::kMove) {
        take(t, action.port, g_.degree(pos_));
        return;
      }
      if (action.kind == Action::Kind::kSegment) {
        ++segments;
        const Segment& seg = mailbox_.segment();
        if (seg.length > 0) {
          in_segment_ = true;
          step_ = 0;
          const Port degree = g_.degree(pos_);
          if (seg.degrees != nullptr) seg.degrees[0] = degree;
          take(t, segment_port(seg, 0, entry_.value_or(0), degree), degree);
          return;
        }
        // An empty segment is a zero-length wait.
      } else if (action.wait_rounds > 0) {
        state = State::kWait;
        entry_.reset();
        busy_until_ = sat_add(t, action.wait_rounds);
        static_since = t;
        zero_spin_ = 0;
        return;
      }
      if (++zero_spin_ > kMaxZeroWaitSpin) {
        fail(t, "agent spun on zero-length waits", false);
        return;
      }
      ++resumes;
      mailbox_.deliver_and_resume(
          Observation{g_.degree(pos_), std::nullopt, t});
    }
  }

  const Topo& g_;
  const AgentProgram& program_;
  const MultiRunConfig& config_;
  Mailbox mailbox_;
  std::optional<Proc> proc_;
  Node pos_;
  /// Entry port of the last move, for the next observation.
  std::optional<Port> entry_;
  bool in_segment_ = false;
  std::uint32_t step_ = 0;  ///< The segment step in flight.
  Port port_ = 0;           ///< The port of the move in flight.
  std::uint64_t busy_until_ = 0;
  std::uint32_t zero_spin_ = 0;
  std::string error_;
  bool error_indexed_ = false;
};

/// The one merger: a run's agents, each a Track over a Path, merged
/// round by round into a MultiRunResult in the header's order. It alone
/// ends the run and takes the steps a lazy path is blocked on.
template <class Topo, class Cell>
class Merge {
 public:
  using P = Path<Topo, Cell>;

  Merge(const std::vector<P*>& paths, std::span<const Track> tracks,
        const MultiRunConfig& config, std::uint64_t cap)
      : paths_(paths.data()),
        tracks_(tracks),
        config_(&config),
        cap_(cap),
        spawned_(tracks.size(), 0) {
    const std::size_t k = tracks.size();
    if (config.record_trace) result_.trace.enable(config.trace_limit);
    result_.first_meeting.assign(k * k, kNever);
    result_.moves.assign(k, 0);
    result_.final_pos.assign(k, graph::kNoNode);
  }

  [[nodiscard]] std::span<const Track> tracks() const { return tracks_; }
  [[nodiscard]] bool ended() const { return ended_; }
  void skip_to(std::uint64_t round) { r_ = round; }
  MultiRunResult take_result() { return std::move(result_); }

  /// Merges the rounds before `window_end`; true once the run has
  /// ended. A path of a lazy topology blocked on a step is taken on once
  /// the run has reached the round the step was chosen in (in the
  /// round's agent order) and generated on to the window's end.
  bool advance(std::uint64_t window_end) {
    for (bool unblocked = true; unblocked;) {
      if (merge_to(window_end)) return true;
      unblocked = false;
      for_each_choice(r_ - 1, 2 * tracks_.size(), [&](P& p, const Track& tr) {
        if (p.blocked && p.hi + tr.start == r_) {
          p.take_step();
          p.generate(window_end - tr.start);
          unblocked = true;
        }
      });
    }
    return false;
  }

  /// The first round at which something can happen, when every agent
  /// has appeared and rests since before r_ - 1; r_ otherwise.
  [[nodiscard]] std::uint64_t quiet_until() const {
    std::uint64_t until = cap_;
    for (std::size_t i = 0; i < tracks_.size(); ++i) {
      const P& p = path(i);
      if (spawned_[i] == 0 || p.idle_until() == 0 ||
          p.static_since + tracks_[i].start >= r_) {
        return r_;
      }
      until = std::min(until, sat_add(p.idle_until(), tracks_[i].start));
    }
    return until;
  }

 private:
  [[nodiscard]] P& path(std::size_t i) const {
    return *paths_[tracks_[i].path];
  }
  [[nodiscard]] Node pos(std::size_t i, std::uint64_t t) const {
    return spawned_[i] != 0 ? path(i).node(t - tracks_[i].start)
                            : graph::kNoNode;
  }

  /// Merges the rounds before `end` that every agent's path holds;
  /// true once the run has ended.
  bool merge_to(std::uint64_t end) {
    for (std::size_t i = 0; i < tracks_.size(); ++i) {
      if (tracks_[i].start < end) {
        end = std::min(end, path(i).hi + tracks_[i].start);
      }
    }
    // Two agents: the rounds between events are scanned in bulk;
    // otherwise every round is merged alone.
    const bool bulk = tracks_.size() == 2;
    std::uint64_t next = bulk ? next_event() : 0;
    while (!ended_ && r_ < end) {
      const std::uint64_t stop = std::min(end, next);
      if (r_ < stop) {
        const std::uint64_t from = r_;
        if (spawned_[0] == 0 || spawned_[1] == 0) {
          r_ = stop;  // one agent present: nothing to merge
        } else {
          scan_pair(stop);
        }
        record_moves(from, ended_ ? r_ + 1 : r_);
      } else if (!event()) {
        ++r_;
        if (bulk) next = next_event();
      }
    }
    return ended_;
  }

  /// The next round that must be merged alone: an appearance, an error,
  /// the end of the last program, or the cap.
  [[nodiscard]] std::uint64_t next_event() const {
    std::uint64_t next = std::min(cap_, programs_end());
    for (std::size_t i = 0; i < tracks_.size(); ++i) {
      const P& p = path(i);
      if (spawned_[i] == 0) next = std::min(next, tracks_[i].start);
      if (p.state == P::State::kError) {
        next = std::min(next, p.end_round + tracks_[i].start);
      }
    }
    return next;
  }

  /// The round by which every program has ended, or kNever while one
  /// still runs.
  [[nodiscard]] std::uint64_t programs_end() const {
    std::uint64_t last = 0;
    for (std::size_t i = 0; i < tracks_.size(); ++i) {
      const P& p = path(i);
      if (p.state != P::State::kDone) return kNever;
      last = std::max(last, p.end_round + tracks_[i].start);
    }
    return last;
  }

  /// Rounds [r_, stop) of two present agents, with no event among them:
  /// blocks of 64 rounds are checked for a shared node and counted for
  /// crossings in one branch-free pass each.
  bool scan_pair(std::uint64_t stop) {
    const P& pa = path(0);
    const P& pb = path(1);
    const Cell* a = pa.nodes.data() + (r_ - tracks_[0].start - pa.base);
    const Cell* b = pb.nodes.data() + (r_ - tracks_[1].start - pb.base);
    const std::uint64_t n = stop - r_;
    std::uint64_t crossings = 0;
    for (std::uint64_t off = 0; off < n; off += 64) {
      const Cell* x = a + off;
      const Cell* y = b + off;
      const std::uint64_t len = std::min<std::uint64_t>(64, n - off);
      unsigned hit = 0;
      unsigned cross = 0;
      for (std::uint64_t j = 0; j < len; ++j) {
        hit |= static_cast<unsigned>(x[j] == y[j]);
        cross += static_cast<unsigned>((x[j] == y[j - 1]) & (y[j] == x[j - 1]));
      }
      if (hit != 0) {
        std::uint64_t j = 0;
        for (cross = 0; x[j] != y[j]; ++j) {
          cross += static_cast<unsigned>((x[j] == y[j - 1]) &
                                         (y[j] == x[j - 1]));
        }
        result_.edge_crossings += crossings + cross;
        r_ += off + j;
        meetings(r_);  // both agents present: a meeting ends the run
        return end(r_, 4);
      }
      crossings += cross;
    }
    result_.edge_crossings += crossings;
    r_ = stop;
    return false;
  }

  /// The trace events of the moves landing in rounds [from, to), round
  /// by round in agent order (agents appearing then are not present).
  void record_moves(std::uint64_t from, std::uint64_t to) {
    if (!config_->record_trace) return;
    for (std::uint64_t t = from; t < to; ++t) {
      for (std::size_t i = 0; i < tracks_.size(); ++i) {
        const P& p = path(i);
        const std::uint64_t local = t - tracks_[i].start;
        if (spawned_[i] != 0 && p.moved[local - p.base] != 0) {
          result_.trace.record(t, static_cast<std::uint32_t>(i), pos(i, t),
                               p.ports[local - p.base]);
        }
      }
    }
  }

  /// Round r_ merged alone, in the header's order.
  bool event() {
    const std::uint64_t t = r_;
    const std::size_t k = tracks_.size();
    // The moves landing at t: trace events, then crossings.
    record_moves(t, t + 1);
    for (std::size_t i = 0; i < k; ++i) {
      for (std::size_t j = i + 1; spawned_[i] != 0 && j < k; ++j) {
        const Node pi = pos(i, t);
        const Node pj = pos(j, t);
        if (spawned_[j] != 0 && pi != pj && pi == pos(j, t - 1) &&
            pj == pos(i, t - 1)) {
          ++result_.edge_crossings;
        }
      }
    }
    for (std::size_t i = 0; i < k; ++i) {
      const P& p = path(i);
      if (spawned_[i] != 0 && p.state == P::State::kError &&
          p.end_round + tracks_[i].start == t) {
        return fail(i, t, i);
      }
    }
    for (std::size_t i = 0; i < k; ++i) {
      if (tracks_[i].start != t) continue;
      spawned_[i] = 1;
      result_.trace.record(t, static_cast<std::uint32_t>(i), pos(i, t),
                           kNoPort);
      const P& p = path(i);
      if (p.state == P::State::kError && p.end_round == 0) {
        return fail(i, t, k + i);
      }
    }
    if (meetings(t)) return end(t, 2 * k);
    // Every agent has appeared by then: each ended at or after its start.
    if (programs_end() == t) {
      result_.programs_finished = true;
      return end(t, 2 * k);
    }
    return t == cap_ && end(t, 2 * k);
  }

  /// Records round t's first meetings; true when the agents gather
  /// (with two agents, when they meet).
  bool meetings(std::uint64_t t) {
    const std::size_t k = tracks_.size();
    bool all_same = true;
    std::size_t unspawned = 0;
    const Node first = k > 0 ? pos(0, t) : graph::kNoNode;
    for (std::size_t i = 0; i < k; ++i) {
      if (spawned_[i] == 0) {
        ++unspawned;
        continue;
      }
      const Node pi = pos(i, t);
      all_same &= pi == first;
      for (std::size_t j = i + 1; j < k; ++j) {
        if (spawned_[j] == 0 || pi != pos(j, t)) continue;
        auto& cell = result_.first_meeting[i * k + j];
        if (cell == kNever) cell = t;
      }
    }
    if (unspawned == 0 && all_same) {
      result_.gathered = true;
      result_.gather_round_absolute = t;
      std::uint64_t last_start = 0;
      for (const Track& tr : tracks_) {
        last_start = std::max(last_start, tr.start);
      }
      result_.gather_from_last_start = t - last_start;
      return true;
    }
    return false;
  }

  bool fail(std::size_t i, std::uint64_t t, std::size_t order) {
    result_.error = path(i).error(i);
    return end(t, order);
  }

  /// Ends the run at round t. The agents before position `order` of the
  /// round's agent order chose their next action at t: their steps are
  /// taken.
  bool end(std::uint64_t t, std::size_t order) {
    if constexpr (kLazy<Topo>) {
      for_each_choice(t, order, [&](P& p, const Track& tr) {
        if (p.hi + tr.start == t + 1) p.take_step();
      });
    }
    ended_ = true;
    result_.rounds_simulated = t;
    for (std::size_t i = 0; i < tracks_.size(); ++i) {
      if (spawned_[i] == 0) continue;
      result_.moves[i] = path(i).moves_through(t - tracks_[i].start);
      result_.final_pos[i] = pos(i, t);
    }
    return true;
  }

  /// Calls fn on the first `order` agents choosing at round t, in the
  /// round's order: the agents already present by index, then those
  /// appearing at t by index.
  template <class Fn>
  void for_each_choice(std::uint64_t t, std::size_t order, Fn fn) {
    const std::size_t k = tracks_.size();
    for (std::size_t o = 0; o < order; ++o) {
      const std::size_t i = o < k ? o : o - k;
      const Track& tr = tracks_[i];
      if (tr.start <= t && (tr.start == t) == (o >= k)) fn(path(i), tr);
    }
  }

  P* const* paths_;  ///< Every path of the call, indexed by Track::path.
  std::span<const Track> tracks_;
  const MultiRunConfig* config_;
  std::uint64_t cap_;
  std::vector<std::uint8_t> spawned_;
  std::uint64_t r_ = 0;
  bool ended_ = false;
  MultiRunResult result_;
};

using PathSpec = std::pair<const AgentProgram*, Node>;

/// Path `path` is the image of path `rep` under the automorphism `map`
/// (an explicit graph's node ids).
struct Image {
  std::size_t path;
  std::size_t rep;
  std::vector<Node> map;
};

/// Generates the paths window by window, relabels the images, and
/// merges every run (each k consecutive tracks); each path is extended
/// only while an open run still needs it or its images.
template <class Topo, class Cell>
std::vector<MultiRunResult> simulate(const Topo& g,
                                     const std::vector<PathSpec>& specs,
                                     const std::vector<Track>& tracks,
                                     std::size_t k,
                                     const MultiRunConfig& config,
                                     const std::vector<Image>& images) {
  using P = Path<Topo, Cell>;
  using Clock = std::chrono::steady_clock;
  const std::uint64_t cap = std::min(config.max_rounds, kRoundInfinity - 1);
  std::deque<P> paths;
  std::vector<P*> path_of;
  for (const auto& [program, start] : specs) {
    path_of.push_back(&paths.emplace_back(g, *program, start, config));
  }
  // group[p]: the path generated for p, p itself or its representative.
  std::vector<std::size_t> group(paths.size());
  std::iota(group.begin(), group.end(), std::size_t{0});
  std::vector<std::vector<Cell>> cell_maps;
  for (const Image& image : images) {
    group[image.path] = image.rep;
    cell_maps.emplace_back(image.map.begin(), image.map.end());
  }
  // k = 0 is one run without agents.
  const std::size_t runs = k == 0 ? 1 : tracks.size() / k;
  std::vector<Merge<Topo, Cell>> merges;
  merges.reserve(runs);
  for (std::size_t m = 0; m < runs; ++m) {
    merges.emplace_back(path_of, std::span(tracks).subspan(m * k, k), config,
                        cap);
  }
  // Per generated path, over the open runs' agents on it and its images:
  // the round to generate to (for those appearing before the window's
  // end), the first round to keep (0 for one yet to appear) and the
  // range of their starts.
  struct Need {
    std::uint64_t until = 0;
    std::uint64_t keep = kNever;
    std::uint64_t min_start = kNever;
    std::uint64_t max_start = 0;
  };
  std::vector<Need> need(paths.size());
  const auto plan = [&](std::uint64_t r, std::uint64_t end) {
    std::fill(need.begin(), need.end(), Need{});
    for (const auto& m : merges) {
      for (std::size_t i = 0; !m.ended() && i < m.tracks().size(); ++i) {
        const Track& tr = m.tracks()[i];
        Need& n = need[group[tr.path]];
        n.keep = std::min(n.keep, r > tr.start ? r - 1 - tr.start : 0);
        if (tr.start < end) n.until = std::max(n.until, end - tr.start);
        n.min_start = std::min(n.min_start, tr.start);
        n.max_start = std::max(n.max_start, tr.start);
      }
    }
  };
  std::uint64_t windows = 0;
  // Wall time generating (and relabeling) and merging, one clock read
  // after each per window.
  std::uint64_t generate_ns = 0;
  std::uint64_t merge_ns = 0;
  Clock::time_point lap = Clock::now();
  const auto split = [&lap](std::uint64_t& into) {
    const Clock::time_point now = Clock::now();
    into += std::chrono::nanoseconds(now - lap).count();
    lap = now;
  };
  for (std::uint64_t r = 0;;) {
    const std::uint64_t window = std::clamp(r / 8, kFirstWindow, kMaxWindow);
    const std::uint64_t end = std::min(sat_add(r, window), cap) + 1;
    plan(r, end);
    for (std::size_t p = 0; p < paths.size(); ++p) {
      if (group[p] != p || need[p].until == 0) continue;
      ++windows;
      paths[p].trim(need[p].keep);
      paths[p].generate(need[p].until);
    }
    for (std::size_t i = 0; i < images.size(); ++i) {
      if (need[images[i].rep].until == 0) continue;
      paths[images[i].path].mirror(paths[images[i].rep], cell_maps[i]);
    }
    split(generate_ns);
    for (auto& m : merges) {
      if (!m.ended()) (void)m.advance(end);
    }
    split(merge_ns);
    // Then the rounds in which every agent of every open run rests are
    // skipped: each path jumps, keeping the rounds its runs still read.
    r = cap;
    for (const auto& m : merges) {
      if (!m.ended()) r = std::min(r, m.quiet_until());
    }
    if (r == cap && std::all_of(merges.begin(), merges.end(),
                                [](const auto& m) { return m.ended(); })) {
      break;
    }
    if (r <= end) {
      r = end;
      continue;
    }
    plan(r, kRoundInfinity);
    for (std::size_t p = 0; p < paths.size(); ++p) {
      if (need[p].until == 0) continue;
      paths[p].skip_to(r - need[p].min_start,
                       need[p].max_start - need[p].min_start + 1);
    }
    for (auto& m : merges) {
      if (!m.ended()) m.skip_to(r);
    }
  }

  // Process-wide series, bumped once per call, never per move.
  static obs::Counter& run_count = obs::counter("sim.runs");
  static obs::Counter& path_count = obs::counter("sim.paths");
  static obs::Counter& image_count = obs::counter("sim.images");
  static obs::Counter& generate_time = obs::counter("sim.generate_ns");
  static obs::Counter& merge_time = obs::counter("sim.merge_ns");
  static obs::Counter& window_count = obs::counter("sim.windows");
  static obs::Counter& moves = obs::counter("sim.moves");
  static obs::Counter& rounds = obs::counter("sim.rounds");
  static obs::Counter& resumes = obs::counter("sim.resumes");
  static obs::Counter& segments = obs::counter("sim.segments");
  run_count.add(merges.size());
  window_count.add(windows);
  generate_time.add(generate_ns);
  merge_time.add(merge_ns);
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const P& p = paths[i];
    if (p.state == P::State::kUnstarted) continue;
    if (group[i] != i) {
      image_count.add();
      continue;
    }
    path_count.add();
    moves.add(p.moves);
    rounds.add(p.rounds);
    resumes.add(p.resumes);
    segments.add(p.segments);
  }
  std::vector<MultiRunResult> results;
  for (auto& m : merges) results.push_back(m.take_result());
  return results;
}

/// One dispatch per call: an explicit Graph is simulated through its
/// final type (degree/step inline) with the narrowest node cells.
std::vector<MultiRunResult> run_all(const ITopology& g,
                                    const std::vector<PathSpec>& specs,
                                    const std::vector<Track>& tracks,
                                    std::size_t k,
                                    const MultiRunConfig& config,
                                    const std::vector<Image>& images = {}) {
  const auto* explicit_graph = dynamic_cast<const graph::Graph*>(&g);
  if (explicit_graph == nullptr) {
    return simulate<ITopology, Node>(g, specs, tracks, k, config, images);
  }
  if (explicit_graph->size() <= 0x100) {
    return simulate<graph::Graph, std::uint8_t>(*explicit_graph, specs,
                                                tracks, k, config, images);
  }
  if (explicit_graph->size() <= 0x10000) {
    return simulate<graph::Graph, std::uint16_t>(*explicit_graph, specs,
                                                 tracks, k, config, images);
  }
  return simulate<graph::Graph, Node>(*explicit_graph, specs, tracks, k, config,
                                      images);
}

/// The two-agent view of a run, which ends when its agents meet.
RunResult to_pair(MultiRunResult&& multi, std::uint64_t delay) {
  RunResult out;
  const std::uint64_t meeting = multi.meeting_of(0, 1, 2);
  out.met = meeting != kNever;
  if (out.met) {
    out.meet_round_absolute = meeting;
    out.meet_from_later_start = meeting - delay;
  }
  out.rounds_simulated = multi.rounds_simulated;
  out.edge_crossings = multi.edge_crossings;
  out.moves = {multi.moves[0], multi.moves[1]};
  out.final_pos = {multi.final_pos[0], multi.final_pos[1]};
  out.programs_finished = multi.programs_finished;
  out.error = std::move(multi.error);
  out.trace = std::move(multi.trace);
  return out;
}

}  // namespace

MultiRunResult run_multi(const ITopology& g,
                         const std::vector<AgentSpec>& agents,
                         const MultiRunConfig& config) {
  std::vector<PathSpec> specs;
  std::vector<Track> tracks;
  for (std::size_t i = 0; i < agents.size(); ++i) {
    specs.emplace_back(&agents[i].program, agents[i].start);
    tracks.push_back(Track{i, agents[i].start_round});
  }
  return std::move(run_all(g, specs, tracks, tracks.size(), config).front());
}

RunResult run_pair(const ITopology& g, const AgentProgram& program_earlier,
                   const AgentProgram& program_later, Node start_earlier,
                   Node start_later, std::uint64_t delay,
                   const RunConfig& config) {
  return to_pair(std::move(run_all(g,
                                   {{&program_earlier, start_earlier},
                                    {&program_later, start_later}},
                                   {Track{0, 0}, Track{1, delay}}, 2, config)
                               .front()),
                 delay);
}

RunResult run_anonymous(const ITopology& g, const AgentProgram& program,
                        Node start_earlier, Node start_later,
                        std::uint64_t delay, const RunConfig& config) {
  return run_pair(g, program, program, start_earlier, start_later, delay,
                  config);
}

std::vector<RunResult> run_anonymous_all(const graph::Graph& g,
                                         const AgentProgram& program,
                                         const std::vector<Stic>& runs,
                                         const RunConfig& config) {
  // An automorphism φ carries the run [(u, v), δ] to [(φ(u), φ(v)), δ],
  // node for node. So each orbit of runs is merged once, with the
  // earlier agent at the least node of its orbit (its representative),
  // and only representatives' paths are generated: every other start
  // node follows the image of its representative's path.
  const std::vector<Node> rep = graph::automorphism_orbits(g);
  // carry[v]: the automorphism taking rep[v] to v.
  std::vector<std::vector<Node>> carry(g.size());
  const auto carried = [&](Node v) -> const std::vector<Node>& {
    if (carry[v].empty()) {
      carry[v].resize(g.size());
      graph::TreeWalk(g, rep[v]).candidate(v, carry[v]);
    }
    return carry[v];
  };
  std::vector<std::size_t> path_of(g.size(), kNever);
  std::vector<PathSpec> specs;
  std::vector<Track> tracks;
  const auto path = [&](Node v) {
    if (path_of[v] == kNever) {
      path_of[v] = specs.size();
      specs.emplace_back(&program, v);
    }
    return path_of[v];
  };
  std::map<std::tuple<Node, Node, std::uint64_t>, std::size_t> merged;
  std::vector<std::size_t> merged_as(runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& [earlier, later, delay] = runs[i];
    const std::vector<Node>& phi = carried(earlier);
    const auto back = static_cast<Node>(
        std::find(phi.begin(), phi.end(), later) - phi.begin());
    const auto [it, fresh] =
        merged.try_emplace({rep[earlier], back, delay}, merged.size());
    merged_as[i] = it->second;
    if (fresh) {
      tracks.push_back(Track{path(rep[earlier]), 0});
      tracks.push_back(Track{path(back), delay});
    }
  }
  std::vector<Image> images;
  for (std::size_t p = 0; p < specs.size(); ++p) {
    const Node v = specs[p].second;
    if (v != rep[v]) images.push_back(Image{p, path(rep[v]), carried(v)});
  }
  std::vector<MultiRunResult> multi =
      run_all(g, specs, tracks, 2, config, images);
  std::vector<RunResult> out;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const std::size_t m = merged_as[i];
    out.push_back(to_pair(MultiRunResult(multi[m]), runs[i].delay));
    const std::vector<Node>& phi = carry[runs[i].u];
    for (Node& v : out.back().final_pos) {
      if (v != graph::kNoNode) v = phi[v];
    }
    out.back().trace.relabel(phi);
  }
  return out;
}

}  // namespace rdv::sim
