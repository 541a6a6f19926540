#include "sim/trace.hpp"

#include <sstream>

namespace rdv::sim {

std::string Trace::to_string() const {
  std::ostringstream out;
  for (const TraceEvent& e : events_) {
    out << "round " << e.round << ": agent " << e.agent;
    if (e.via_port == kNoPort) {
      out << " appears at node " << e.node;
    } else {
      out << " moves via port " << e.via_port << " to node " << e.node;
    }
    out << '\n';
  }
  if (truncated_) out << "... (trace truncated)\n";
  return out.str();
}

}  // namespace rdv::sim
