#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <exception>
#include <functional>
#include <optional>
#include <span>
#include <utility>

#include "graph/topology.hpp"

/// Coroutine-based agent API.
///
/// Algorithms are written as straight-line C++20 coroutines mirroring
/// the paper's pseudocode:
///
///   Proc my_algorithm(Mailbox& mb, Observation start) {
///     Observation o = co_await mb.move(0);       // take port 0
///     o = co_await mb.wait(5);                   // stay put 5 rounds
///     co_await mb.walk_uxs(y.terms(), entries);  // apply Y from here
///     co_await mb.retrace(entries);              // and walk back
///     co_await some_subprocedure(mb, o);         // procedures compose
///   }
///
/// The engine resumes the coroutine chain once per completed action and
/// delivers the resulting Observation — exactly the model of Section 1:
/// per round an agent either stays or moves by a chosen port, and on
/// arrival sees the degree and the entry port.
///
/// Besides single moves and waits, an agent may hand the engine a walk
/// segment: a run of moves whose every port follows a rule fixed before
/// the walk starts (apply Y, follow a port list, retrace recorded entry
/// ports). A segment of L moves takes L rounds and is the same as L
/// `move`s — the same per-step port check, trace events and meetings —
/// but the engine runs it itself and resumes the coroutine once, when
/// it ends, with the last move's observation. The entry port of every
/// step (and optionally the degree before it) is written into buffers
/// the awaiting frame owns; they must stay alive and unresized until the
/// co_await returns. An empty segment is a zero-length wait.
namespace rdv::sim {

/// What an agent perceives at a node (Section 1). Agents never see node
/// identities.
struct Observation {
  graph::Port degree = 0;  ///< Degree of the current node.
  /// Port by which the node was entered; nullopt at the start node and
  /// after waiting.
  std::optional<graph::Port> entry_port;
  /// Agent-local clock: rounds since this agent's start.
  std::uint64_t clock = 0;
};

/// One decision: move through a port, stay put for `rounds` rounds
/// (the engine fast-forwards multi-round waits), or walk the mailbox's
/// pending Segment.
struct Action {
  enum class Kind : std::uint8_t { kMove, kWait, kSegment };
  Kind kind = Kind::kWait;
  graph::Port port = 0;          ///< For kMove.
  std::uint64_t wait_rounds = 0; ///< For kWait; may be huge (saturating).

  static Action move(graph::Port p) {
    return Action{Kind::kMove, p, 0};
  }
  static Action wait(std::uint64_t rounds) {
    return Action{Kind::kWait, 0, rounds};
  }
};

/// A walk of `length` moves whose ports follow one fixed rule. Step i
/// writes its entry port to entries[i] and the degree of the node it
/// leaves to degrees[i] (either pointer may be null).
struct Segment {
  enum class Kind : std::uint8_t {
    /// Apply Y (Section 2): port 0, then (entry + terms[i - 1]) mod
    /// degree; length = number of terms + 1.
    kUxs,
    /// ports[0], ports[1], ..., ports[length - 1].
    kPorts,
    /// ports[length - 1], ..., ports[0]: back along recorded entry ports
    /// (Section 2's reverse path).
    kRetrace,
  };
  Kind kind = Kind::kPorts;
  std::uint32_t length = 0;
  const std::uint64_t* terms = nullptr;  ///< For kUxs.
  const graph::Port* ports = nullptr;    ///< For kPorts and kRetrace.
  graph::Port* entries = nullptr;
  graph::Port* degrees = nullptr;
};

class Mailbox;

/// A composable agent procedure (a coroutine task). Procedures suspend
/// whenever they act through the Mailbox and may co_await
/// sub-procedures; the engine always resumes the innermost suspended
/// frame. Move-only; destroying a Proc destroys its whole frame chain.
class [[nodiscard]] Proc {
 public:
  struct promise_type {
    std::coroutine_handle<> continuation;  // parent frame, if any
    std::exception_ptr error;

    Proc get_return_object() {
      return Proc(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    struct FinalAwaiter {
      bool await_ready() noexcept { return false; }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<promise_type> h) noexcept {
        // Hand control back to the awaiting parent; for the root, back
        // to the engine's resume() call.
        auto cont = h.promise().continuation;
        return cont ? cont : std::noop_coroutine();
      }
      void await_resume() noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { error = std::current_exception(); }
  };

  Proc() = default;
  explicit Proc(std::coroutine_handle<promise_type> h) : handle_(h) {}
  Proc(Proc&& other) noexcept
      : handle_(std::exchange(other.handle_, nullptr)) {}
  Proc& operator=(Proc&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  Proc(const Proc&) = delete;
  Proc& operator=(const Proc&) = delete;
  ~Proc() { destroy(); }

  /// Awaiting a Proc runs it to completion as a sub-procedure.
  bool await_ready() const noexcept { return !handle_ || handle_.done(); }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) {
    handle_.promise().continuation = parent;
    return handle_;  // symmetric transfer into the child
  }
  void await_resume() { rethrow_if_failed(); }

  /// Engine side: kick off / query the root procedure.
  void start() {
    assert(handle_ && !handle_.done());
    handle_.resume();
  }
  [[nodiscard]] bool done() const { return !handle_ || handle_.done(); }
  void rethrow_if_failed() const {
    if (handle_ && handle_.promise().error) {
      std::rethrow_exception(handle_.promise().error);
    }
  }

 private:
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }
  std::coroutine_handle<promise_type> handle_;
};

/// Per-agent communication cell between the engine and the coroutine
/// chain. The innermost frame that acts registers itself as the leaf;
/// the engine consumes the pending action, computes the observation and
/// resumes the leaf.
class Mailbox {
 public:
  /// co_await mb.move(p): traverse port p this round; resumes with the
  /// arrival observation.
  [[nodiscard]] auto move(graph::Port p) {
    return ActionAwaiter{this, Action::move(p)};
  }
  /// co_await mb.wait(k): stay put for k rounds (k may be 0 — a no-op
  /// round-wise; the engine re-resumes immediately but guards against
  /// unbounded zero-wait spinning).
  [[nodiscard]] auto wait(std::uint64_t rounds) {
    return ActionAwaiter{this, Action::wait(rounds)};
  }

  /// co_await mb.walk_uxs(terms, entries[, degrees]): apply Y from here,
  /// terms.size() + 1 moves; entries (and degrees, if given) must hold
  /// that many ports.
  [[nodiscard]] auto walk_uxs(std::span<const std::uint64_t> terms,
                              std::span<graph::Port> entries,
                              std::span<graph::Port> degrees = {}) {
    assert(entries.size() > terms.size());
    assert(degrees.empty() || degrees.size() > terms.size());
    set_segment(Segment::Kind::kUxs, terms.size() + 1, entries.data(),
                degrees.empty() ? nullptr : degrees.data());
    segment_.terms = terms.data();
    return SegmentAwaiter{this};
  }
  /// co_await mb.walk_ports(ports, entries[, degrees]): take the given
  /// ports in order; entries (and degrees, if given) must hold
  /// ports.size() ports.
  [[nodiscard]] auto walk_ports(std::span<const graph::Port> ports,
                                std::span<graph::Port> entries,
                                std::span<graph::Port> degrees = {}) {
    assert(entries.size() >= ports.size());
    assert(degrees.empty() || degrees.size() >= ports.size());
    set_segment(Segment::Kind::kPorts, ports.size(), entries.data(),
                degrees.empty() ? nullptr : degrees.data());
    segment_.ports = ports.data();
    return SegmentAwaiter{this};
  }
  /// co_await mb.retrace(entries): walk back along a traversal whose
  /// entry ports were recorded, last one first.
  [[nodiscard]] auto retrace(std::span<const graph::Port> entries) {
    set_segment(Segment::Kind::kRetrace, entries.size(), nullptr, nullptr);
    segment_.ports = entries.data();
    return SegmentAwaiter{this};
  }

  /// Last delivered observation (also the initial one).
  [[nodiscard]] const Observation& last() const noexcept { return last_; }
  /// Agent-local clock of the last observation.
  [[nodiscard]] std::uint64_t clock() const noexcept { return last_.clock; }

  // --- engine side ---
  [[nodiscard]] bool has_pending() const noexcept { return has_pending_; }
  [[nodiscard]] Action take_action() {
    assert(has_pending_);
    has_pending_ = false;
    return pending_;
  }
  /// The segment of the last taken kSegment action; valid until the
  /// engine resumes the agent.
  [[nodiscard]] const Segment& segment() const noexcept { return segment_; }
  // The engine writes the observation and the coroutine writes its
  // action field by field: whole-struct copies of these small,
  // mixed-width structs compile to wide loads of values just stored
  // narrow, which stall store forwarding once per move.
  void deliver_and_resume(const Observation& obs) {
    last_.degree = obs.degree;
    last_.entry_port = obs.entry_port;
    last_.clock = obs.clock;
    auto leaf = std::exchange(leaf_, nullptr);
    assert(leaf);
    leaf.resume();
  }
  void set_initial(const Observation& obs) { last_ = obs; }

 private:
  struct ActionAwaiter {
    Mailbox* mailbox;
    Action action;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) noexcept {
      mailbox->pending_.kind = action.kind;
      mailbox->pending_.port = action.port;
      mailbox->pending_.wait_rounds = action.wait_rounds;
      mailbox->has_pending_ = true;
      mailbox->leaf_ = h;
    }
    /// The arrival observation, i.e. last(); callers that keep it past
    /// their next action copy it.
    const Observation& await_resume() const noexcept {
      return mailbox->last_;
    }
  };

  // The segment is written field by field straight into the mailbox
  // (see deliver_and_resume); the engine reads it once the agent
  // suspends, and the agent cannot act again before the engine resumes
  // it, so the segment in flight is never overwritten.
  void set_segment(Segment::Kind kind, std::size_t length,
                   graph::Port* entries, graph::Port* degrees) noexcept {
    segment_.kind = kind;
    segment_.length = static_cast<std::uint32_t>(length);
    segment_.entries = entries;
    segment_.degrees = degrees;
  }

  struct SegmentAwaiter {
    Mailbox* mailbox;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) noexcept {
      mailbox->pending_.kind = Action::Kind::kSegment;
      mailbox->has_pending_ = true;
      mailbox->leaf_ = h;
    }
    /// The last move's arrival observation (a zero-length wait's for an
    /// empty segment).
    const Observation& await_resume() const noexcept {
      return mailbox->last_;
    }
  };

  Action pending_{};
  Segment segment_{};
  bool has_pending_ = false;
  Observation last_{};
  std::coroutine_handle<> leaf_;
};

/// An anonymous-agent algorithm: given the agent's mailbox and its
/// initial observation, yields the procedure to run. Both agents of a
/// run execute the same program (the model's anonymity); labeled
/// variants for ablations pass different programs explicitly.
using AgentProgram = std::function<Proc(Mailbox&, Observation)>;

}  // namespace rdv::sim
