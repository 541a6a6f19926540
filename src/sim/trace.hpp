#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/topology.hpp"

/// Bounded diagnostic traces of agent movement.
namespace rdv::sim {

struct TraceEvent {
  std::uint64_t round;   ///< Absolute round the event takes effect.
  std::uint32_t agent;   ///< Index into the run's agents (0 = earlier).
  graph::Node node;      ///< Node occupied from this round on.
  graph::Port via_port;  ///< Outgoing port taken (kNoPort for spawn).
};

inline constexpr graph::Port kNoPort = static_cast<graph::Port>(-1);

class Trace {
 public:
  void enable(std::size_t limit) {
    enabled_ = true;
    limit_ = limit;
  }
  void record(std::uint64_t round, std::uint32_t agent, graph::Node node,
              graph::Port via_port) {
    if (!enabled_) return;
    if (events_.size() < limit_) {
      events_.push_back(TraceEvent{round, agent, node, via_port});
    } else {
      truncated_ = true;
    }
  }
  [[nodiscard]] const std::vector<TraceEvent>& events() const {
    return events_;
  }
  [[nodiscard]] bool truncated() const { return truncated_; }
  /// Maps every event's node through `map`.
  void relabel(const std::vector<graph::Node>& map) {
    for (TraceEvent& e : events_) e.node = map[e.node];
  }

  /// Multi-line human-readable rendering (for examples).
  [[nodiscard]] std::string to_string() const;

 private:
  bool enabled_ = false;
  bool truncated_ = false;
  std::size_t limit_ = 0;
  std::vector<TraceEvent> events_;
};

}  // namespace rdv::sim
