// perfbench — the three workloads.  Each runs in its own process, generates
// its inputs from the seed, times its own set-up, measures, audits its
// outputs, and returns every metric by name and unit.
#pragma once

#include <cstdint>
#include <memory>

#include "common.hpp"
#include "conflict/arbiter.hpp"
#include "conflict/grace.hpp"
#include "core/policy.hpp"

namespace txc::htm {
class HtmSystem;
}  // namespace txc::htm

namespace perfbench {

class LayerReport;

Result run_kv_service(const Args& args);
Result run_bank(const Args& args);
Result run_txqueue(const Args& args);

/// The simulated HTM queue: commits per simulation, and the simulator for
/// seed `sim_seed` (exposed for the determinism test).
inline constexpr std::uint64_t kHtmCommitsPerSim = 100;
std::unique_ptr<txc::htm::HtmSystem> make_htm_queue_system(
    std::uint64_t sim_seed,
    std::shared_ptr<const txc::conflict::ConflictArbiter> arbiter);

/// Run the kHtmSimSeeds simulations of run `seed` and set the htm.*
/// metrics: exact counts for the seed.  Returns false if a simulation
/// failed its audit (coherence invariants, queue head + tail == commits).
bool report_htm_queue_counts(std::uint64_t seed, LayerReport& layers);

/// Randomized requestor-wins (RRW), the paper's recommended arbiter — every
/// workload runs under it.
[[nodiscard]] inline std::shared_ptr<const txc::conflict::ConflictArbiter>
make_rrw_arbiter() {
  return std::make_shared<txc::conflict::GraceArbiter>(
      txc::core::make_policy(txc::core::StrategyKind::kRandWins));
}

}  // namespace perfbench
