// perfbench — the simulated HTM queue: htm::HtmSystem with four simulated
// cores, a 2D-mesh NoC and a shared L2 behind the directory, running
// ds::QueueWorkload under RRW — the paper's own validation vehicle for the
// transactional queue.  Its counts are exact for a seed, so they are
// reported as per-layer metrics of txqueue-alloc-norec's traced run (the
// library's transactional queue and its simulated HTM twin side by side);
// the simulator's wall-clock speed is not a gated metric (see README.md).
#include <memory>

#include "ds/workloads.hpp"
#include "htm/htm.hpp"
#include "inputs.hpp"
#include "mem/l2.hpp"
#include "noc/mesh.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

std::unique_ptr<txc::htm::HtmSystem> make_htm_queue_system(
    std::uint64_t sim_seed,
    std::shared_ptr<const txc::conflict::ConflictArbiter> arbiter) {
  txc::htm::HtmConfig config;
  config.cores = 4;
  config.seed = sim_seed;
  config.mode = txc::core::ResolutionMode::kRequestorWins;
  config.arbiter = std::move(arbiter);
  config.noc = txc::noc::MeshConfig{};
  config.l2 = txc::mem::L2Config{};
  return std::make_unique<txc::htm::HtmSystem>(
      config, std::make_shared<txc::ds::QueueWorkload>(config.cores));
}

bool report_htm_queue_counts(std::uint64_t seed, LayerReport& layers) {
  const auto arbiter = make_rrw_arbiter();
  double commits = 0, aborts = 0, conflicts = 0, cycles = 0, stalls = 0;
  bool outputs_hold = true;
  for (std::uint32_t k = 0; k < inputs::kHtmSimSeeds; ++k) {
    const auto system =
        make_htm_queue_system(inputs::htm_seed(seed, k), arbiter);
    const txc::htm::HtmStats stats = system->run(kHtmCommitsPerSim);
    commits += static_cast<double>(stats.commits);
    aborts += static_cast<double>(stats.aborts);
    conflicts += static_cast<double>(stats.conflicts);
    cycles += static_cast<double>(stats.cycles);
    for (const auto& core : stats.per_core) {
      stalls += static_cast<double>(core.stall_cycles);
    }
    // Directory invariants, and each committed enqueue/dequeue added one to
    // the queue's tail/head counter.
    outputs_hold = outputs_hold && system->coherence_invariants_hold() &&
                   system->memory_value(txc::ds::kQueueHeadLine) +
                           system->memory_value(txc::ds::kQueueTailLine) ==
                       stats.commits;
  }
  layers.set("htm.sim_commits_per_mcycle", 1e6 * ratio(commits, cycles));
  layers.set("htm.abort_rate", ratio(aborts, commits + aborts));
  layers.set("htm.conflicts_per_commit", ratio(conflicts, commits));
  layers.set("htm.stall_cycles_per_commit", ratio(stalls, commits));
  return outputs_hold;
}

}  // namespace perfbench
