// perfbench's own test: seeded inputs are reproducible, and simulated HTM queue
// counts repeat exactly for a seed — with and without the traced run's
// forwarding arbiter in the loop.
//
//   ctest --test-dir .bench_build/perfbench      (after python3 perfbench/run.py)
#include <cstdio>
#include <memory>
#include <vector>

#include "htm/htm.hpp"
#include "inputs.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

struct Counts {
  std::uint64_t commits, aborts, conflicts, cycles;
  std::vector<std::uint64_t> stalls;
  friend bool operator==(const Counts&, const Counts&) = default;
};

Counts simulate(std::uint64_t seed,
                std::shared_ptr<const txc::conflict::ConflictArbiter> arbiter) {
  const auto system = perfbench::make_htm_queue_system(
      perfbench::inputs::htm_seed(seed, 0), std::move(arbiter));
  const txc::htm::HtmStats stats = system->run(perfbench::kHtmCommitsPerSim);
  Counts counts{stats.commits, stats.aborts, stats.conflicts, stats.cycles, {}};
  for (const auto& core : stats.per_core) counts.stalls.push_back(core.stall_cycles);
  return counts;
}

}  // namespace

int main() {
  namespace inputs = perfbench::inputs;

  // Equal seeds give identical op streams; different seeds do not.
  check(inputs::kv_ops(7, 1 << 16) == inputs::kv_ops(7, 1 << 16),
        "kv ops repeat for a seed");
  check(inputs::kv_ops(7, 1 << 16) != inputs::kv_ops(8, 1 << 16),
        "kv ops differ across seeds");
  for (unsigned thread = 0; thread < 3; ++thread) {
    check(inputs::bank_ops(7, thread, 4096) == inputs::bank_ops(7, thread, 4096),
          "bank transfers repeat for a seed");
    check(inputs::txqueue_bursts(7, thread, 4096) ==
              inputs::txqueue_bursts(7, thread, 4096),
          "txqueue bursts repeat for a seed");
  }
  check(inputs::bank_ops(7, 0, 4096) != inputs::bank_ops(7, 1, 4096),
        "threads get distinct transfer streams");

  // Stream shape: the properties the workloads' audits rely on.
  std::uint64_t rmw = 0;
  const auto kv = inputs::kv_ops(3, 1 << 16);
  for (const auto& op : kv) {
    check(op.key >= 1 && op.key <= inputs::kKvKeys, "kv key in the prefilled range");
    if (op.rmw != 0) {
      ++rmw;
      check(op.delta >= 1 && op.delta <= 9, "rmw delta in [1, 9]");
    }
  }
  check(rmw > kv.size() / 20 && rmw < kv.size() / 5, "about 10% rmw");
  for (const auto& op : inputs::bank_ops(3, 0, 4096)) {
    check(op.from != op.to && op.from < inputs::kBankAccounts &&
              op.to < inputs::kBankAccounts,
          "transfers touch two distinct accounts");
  }

  // Simulated HTM queue counts repeat exactly, and the traced run's forwarding
  // arbiter (recording on) does not perturb them.
  const Counts first = simulate(11, perfbench::make_rrw_arbiter());
  check(first.commits >= perfbench::kHtmCommitsPerSim, "simulation commits");
  check(simulate(11, perfbench::make_rrw_arbiter()) == first,
        "htm counts repeat for a seed");
  const auto tracing = std::make_shared<const perfbench::TracingArbiter>(
      perfbench::make_rrw_arbiter());
  perfbench::Tracer::instance().enabled.store(true);
  const Counts traced = simulate(11, tracing);
  perfbench::Tracer::instance().enabled.store(false);
  check(traced == first, "tracing does not change htm counts");

  if (failures == 0) std::printf("perfbench_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
