#include "core/universal_rv.hpp"

#include <algorithm>

#include "cache/artifact_cache.hpp"
#include "core/asymm_rv.hpp"
#include "core/bounds.hpp"
#include "core/symm_rv.hpp"
#include "obs/metrics.hpp"
#include "support/saturating.hpp"

namespace rdv::core {

using sim::Mailbox;
using sim::Observation;
using sim::Proc;
using support::kRoundInfinity;
using support::sat_add;
using support::sat_mul;

UniversalOptions::UniversalOptions()
    : provider(cache::cached_uxs_provider()) {}

namespace {

/// The UXS copies taken from the provider, one per phase (never per
/// move): what sharing the provider's Uxs instead would save.
struct ProviderMetrics {
  obs::Counter& calls = obs::counter("uxs.provider_calls");
  obs::Counter& bytes_copied = obs::counter("uxs.provider_bytes_copied");
};

ProviderMetrics& provider_metrics() {
  static ProviderMetrics metrics;
  return metrics;
}

Proc universal_body(Mailbox& mb, UniversalOptions options) {
  for (std::uint64_t P = 1; P <= options.max_phases; ++P) {
    const PhaseTriple t = phase_decode(P);
    // Shrink is a distance within the graph, so it must be < n.
    if (t.d >= t.n) continue;
    const uxs::Uxs y = options.provider(static_cast<std::uint32_t>(t.n));
    provider_metrics().calls.add();
    provider_metrics().bytes_copied.add(y.length() * sizeof(std::uint64_t) +
                                        y.provenance().size());
    const std::uint64_t M = y.length();

    // --- AsymmRV arm: budget A + delta, then level to 2(A + delta) ---
    const std::uint64_t A = asymm_rv_time_bound(t.n, t.delta, M);
    const std::uint64_t half_segment = sat_add(A, t.delta);
    const std::uint64_t asymm_end = sat_add(mb.clock(), half_segment);
    const std::uint64_t segment_end = sat_add(asymm_end, half_segment);
    if (options.enable_asymm) {
      co_await asymm_rv(mb, static_cast<std::uint32_t>(t.n), y, asymm_end);
    }
    if (mb.clock() < segment_end) {
      co_await mb.wait(segment_end - mb.clock());
    }

    // --- SymmRV arm (only when the assumed delay allows d <= delta) ---
    if (t.delta >= t.d) {
      const std::uint64_t T = symm_rv_time_bound(t.n, t.d, t.delta, M);
      const std::uint64_t symm_end = sat_add(mb.clock(), T);
      if (options.enable_symm) {
        bool completed = false;
        co_await symm_rv(mb, static_cast<std::uint32_t>(t.n),
                         static_cast<std::uint32_t>(t.d), t.delta, y,
                         symm_end, &completed);
      }
      if (mb.clock() < symm_end) {
        co_await mb.wait(symm_end - mb.clock());
      }
    }
  }
}

}  // namespace

sim::AgentProgram universal_rv_program(UniversalOptions options) {
  return [options = std::move(options)](Mailbox& mb,
                                        Observation) -> Proc {
    return universal_body(mb, options);
  };
}

std::uint64_t guaranteed_phase_symmetric(std::uint64_t n,
                                         std::uint64_t shrink,
                                         std::uint64_t delta) {
  // The SymmRV arm of phase (n, shrink, delta') meets whenever
  // delta' >= delta >= shrink; pick the smallest encoding.
  std::uint64_t best = kRoundInfinity;
  for (std::uint64_t dprime = std::max<std::uint64_t>(delta, 1);
       dprime <= std::max<std::uint64_t>(delta, 1) + 8; ++dprime) {
    best = std::min(best, phase_encode(PhaseTriple{n, shrink, dprime}));
  }
  return best;
}

std::uint64_t guaranteed_phase_nonsymmetric(std::uint64_t n,
                                            std::uint64_t delta) {
  // The AsymmRV arm fires in every phase with first coordinate n and
  // assumed delay >= the true delay; minimize over d < n.
  std::uint64_t best = kRoundInfinity;
  for (std::uint64_t d = 1; d < n; ++d) {
    for (std::uint64_t dprime = std::max<std::uint64_t>(delta, 1);
         dprime <= std::max<std::uint64_t>(delta, 1) + 8; ++dprime) {
      best = std::min(best, phase_encode(PhaseTriple{n, d, dprime}));
    }
  }
  return best;
}

}  // namespace rdv::core
