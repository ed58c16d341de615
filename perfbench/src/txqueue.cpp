// perfbench — txqueue-alloc-norec: three threads sharing one
// ds::TxMichaelScottQueue<stm::Norec>, each alternating seeded bursts of
// enqueues and dequeues, under RRW.
//
// The only workload that runs mem::TxPool (every enqueue allocates a node
// inside its transaction, every dequeue frees one), epoch reclamation (off
// whenever no pool exists) and NOrec's seqlock commit.  A TxPool allocation
// may fail transiently while freed nodes sit out their reclamation grace
// (longer when a preempted thread's epoch pin holds the epoch back); the
// pool's contract is that a later transaction may succeed, so the client
// retries, yielding after the first few tries, for up to kEnqueueGiveUpS.
// Transient failures show up as mem.pool.exhaustion_failures, not as failed
// operations.
//
// Audits: per-producer FIFO order as each consumer saw it, the multiset of
// dequeued values per producer (count, sum and sum of squares), no dequeue
// ever finds the queue empty, and free + limbo + live == capacity after
// quiesce_reclaim().
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "ds/tx_queue.hpp"
#include "inputs.hpp"
#include "mem/tx_pool.hpp"
#include "stm/norec.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr unsigned kThreads = 3;
constexpr std::size_t kQueueCapacity = std::size_t{1} << 16;
constexpr std::size_t kBurstsPerThread = std::size_t{1} << 14;  // cycled
constexpr int kSpinTries = 16;          // enqueue retries before yielding
constexpr double kEnqueueGiveUpS = 1.0;  // then the enqueue counts as failed
constexpr int kSetupRepetitions = 21;
constexpr unsigned kProducerShift = 40;  // value = producer << 40 | sequence
constexpr std::uint64_t kSequenceMask = (std::uint64_t{1} << kProducerShift) - 1;

/// The system under test.  Member order is the lifetime contract of
/// TxMichaelScottQueue: the queue (and its pool) after the substrate.
struct QueueSystem {
  txc::stm::Norec stm;
  txc::ds::TxMichaelScottQueue<txc::stm::Norec> queue;

  explicit QueueSystem(
      std::shared_ptr<const txc::conflict::ConflictArbiter> arbiter)
      : stm(std::move(arbiter)), queue(stm, kQueueCapacity) {}
};

/// What one consumer observed, per producer.
struct Observed {
  std::int64_t last = -1;  // last sequence dequeued (FIFO check)
  std::uint64_t count = 0, sum = 0, sum_squares = 0;

  void add(std::uint64_t sequence) {
    ++count;
    sum += sequence;
    sum_squares += sequence * sequence;
  }
};

struct PoolSnapshot {
  double abort_recycles = 0, frees = 0, reclaimed = 0, exhaustion = 0,
         epoch_advances = 0;
  static PoolSnapshot take(const txc::mem::TxPool::Stats& stats) {
    const auto get = [](const std::atomic<std::uint64_t>& counter) {
      return static_cast<double>(counter.load(std::memory_order_relaxed));
    };
    return {get(stats.abort_recycles), get(stats.frees), get(stats.reclaimed),
            get(stats.exhaustion_failures), get(stats.epoch_advances)};
  }
};

/// Closed forms of sum(0..n-1) and sum of squares, modulo 2^64 like the
/// consumers' running sums.
std::uint64_t sequence_sum(std::uint64_t n) {
  const unsigned __int128 wide = n;
  return static_cast<std::uint64_t>(wide * (wide - 1) / 2);
}
std::uint64_t sequence_sum_squares(std::uint64_t n) {
  const unsigned __int128 wide = n;
  return static_cast<std::uint64_t>((wide - 1) * wide * (2 * wide - 1) / 6);
}

}  // namespace

Result run_txqueue(const Args& args) {
  const Plan plan = Plan::of(args);
  Result result;

  std::vector<std::vector<std::uint8_t>> bursts;
  for (unsigned t = 0; t < kThreads; ++t) {
    bursts.push_back(inputs::txqueue_bursts(args.seed, t, kBurstsPerThread));
  }

  std::shared_ptr<const txc::conflict::ConflictArbiter> arbiter =
      make_rrw_arbiter();
  std::shared_ptr<const TracingArbiter> tracing;
  if (args.trace) {
    tracing = std::make_shared<const TracingArbiter>(arbiter);
    arbiter = tracing;
  }

  double setup_s = 0.0;
  const std::unique_ptr<QueueSystem> system = build_timed(
      kSetupRepetitions,
      [&] { return std::make_unique<QueueSystem>(arbiter); }, setup_s);
  txc::core::AttemptProfile profile;
  if (args.trace) system->stm.attach_profile(&profile);
  txc::mem::TxPool& pool = system->queue.pool();

  Window window{plan.warmup_s, args.seconds, plan.slices};
  struct PerThread {
    explicit PerThread(int slices) : recorder(slices) {}
    SliceRecorder recorder;
    Histogram enqueue_latency, dequeue_latency;  // traced half only
    std::vector<Observed> observed = std::vector<Observed>(kThreads);
    std::uint64_t produced = 0, ops = 0, failed = 0, fifo_violations = 0;
    double traced_op_cycles = 0.0;
  };
  std::vector<std::unique_ptr<PerThread>> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.push_back(std::make_unique<PerThread>(plan.slices));
  }

  StmSnapshot stm_before, stm_after;
  PoolSnapshot pool_before, pool_after;
  const std::vector<double> cpu = run_workers(
      window, kThreads, kThreads,
      [&](unsigned) {
        if (args.trace) Tracer::instance().register_thread();
      },
      [&](unsigned t) {
        PerThread& mine = *threads[t];
        const auto give_up_cycles = static_cast<std::uint64_t>(
            kEnqueueGiveUpS * 1e6 * window.cycles_per_us());
        auto& queue = system->queue;
        bool over = false;
        // Times one op into the recorder and notes when the window is over
        // (the current burst still completes, so the queue drains to empty).
        const auto timed = [&](std::uint64_t begin, Histogram& by_kind) {
          const std::uint64_t end = txc::core::cycle_now();
          const int slice = window.slice_of(end);
          mine.recorder.record(slice, end - begin);
          if (slice >= plan.traced_from && slice < plan.slices) {
            by_kind.record(end - begin);
            mine.traced_op_cycles += static_cast<double>(end - begin);
          }
          over = over || slice == plan.slices;
        };
        for (std::size_t b = 0; !over; ++b) {
          const unsigned burst = bursts[t][b % kBurstsPerThread];
          for (unsigned i = 0; i < burst; ++i) {
            const std::uint64_t value =
                (std::uint64_t{t} << kProducerShift) | mine.produced;
            const std::uint64_t begin = txc::core::cycle_now();
            bool ok = false;
            {
              const OpSpan span{"txqueue.enqueue", mine.ops};
              for (int tries = 0; !(ok = queue.enqueue(value)); ++tries) {
                if (tries < kSpinTries) continue;
                if (txc::core::cycle_now() - begin > give_up_cycles) break;
                std::this_thread::yield();
              }
            }
            timed(begin, mine.enqueue_latency);
            ++mine.ops;
            if (ok) {
              ++mine.produced;
            } else {
              ++mine.failed;
            }
          }
          for (unsigned i = 0; i < burst; ++i) {
            const std::uint64_t begin = txc::core::cycle_now();
            std::optional<std::uint64_t> value;
            {
              const OpSpan span{"txqueue.dequeue", mine.ops};
              value = queue.dequeue();
            }
            timed(begin, mine.dequeue_latency);
            ++mine.ops;
            if (!value.has_value()) {
              ++mine.failed;  // cannot happen: own enqueues precede
              continue;
            }
            const std::uint64_t producer = *value >> kProducerShift;
            const std::uint64_t sequence = *value & kSequenceMask;
            if (producer >= kThreads) {
              ++mine.fifo_violations;
              continue;
            }
            Observed& seen = mine.observed[producer];
            if (static_cast<std::int64_t>(sequence) <= seen.last) {
              ++mine.fifo_violations;
            }
            seen.last = static_cast<std::int64_t>(sequence);
            seen.add(sequence);
          }
        }
        if (tracing) tracing->flush();
      },
      [&](int boundary) {
        if (!args.trace) return;
        if (boundary == plan.traced_from) {
          stm_before = StmSnapshot::take(system->stm.stats(), profile);
          pool_before = PoolSnapshot::take(pool.stats());
          Tracer::instance().enabled.store(true, std::memory_order_relaxed);
        } else if (boundary == plan.slices) {
          Tracer::instance().enabled.store(false, std::memory_order_relaxed);
          stm_after = StmSnapshot::take(system->stm.stats(), profile);
          pool_after = PoolSnapshot::take(pool.stats());
        }
      });

  // -- Audits ------------------------------------------------------------------
  std::vector<Observed> total(kThreads);
  std::uint64_t fifo_violations = 0;
  for (const auto& mine : threads) {
    result.attempted += mine->ops;
    result.failed += mine->failed;
    fifo_violations += mine->fifo_violations;
    for (unsigned p = 0; p < kThreads; ++p) {
      total[p].count += mine->observed[p].count;
      total[p].sum += mine->observed[p].sum;
      total[p].sum_squares += mine->observed[p].sum_squares;
    }
  }
  std::uint64_t leftover = 0;
  while (system->queue.dequeue().has_value()) ++leftover;
  result.check(leftover == 0, "txqueue: queue not empty after balanced bursts");
  result.check(fifo_violations == 0, "txqueue: per-producer FIFO order broken");
  for (unsigned p = 0; p < kThreads; ++p) {
    const std::uint64_t n = threads[p]->produced;
    result.check(total[p].count == n && total[p].sum == sequence_sum(n) &&
                     total[p].sum_squares == sequence_sum_squares(n),
                 "txqueue: dequeued multiset != enqueued multiset");
  }
  pool.quiesce_reclaim();
  result.check(pool.free_blocks() + pool.limbo_blocks() + pool.live_blocks() ==
                   pool.capacity(),
               "txqueue: free + limbo + live != capacity");
  result.check(pool.live_blocks() == 1, "txqueue: live nodes besides the dummy");

  std::vector<const SliceRecorder*> views;
  for (const auto& mine : threads) views.push_back(&mine->recorder);
  if (!args.trace) {
    add_end_to_end(result, summarize(window, views, cpu, 0, plan.slices),
                   setup_s);
    return result;
  }
  const double cycles_per_us = window.cycles_per_us();
  LayerReport layers;
  StmSnapshot::report(stm_before, stm_after, cycles_per_us, layers);
  tracing->report(layers, cycles_per_us);
  double traced_ops = 0.0, op_cycles = 0.0;
  Histogram enqueue_latency, dequeue_latency;
  for (const auto& mine : threads) {
    for (int slice = plan.traced_from; slice < plan.slices; ++slice) {
      traced_ops += static_cast<double>(mine->recorder.ops(slice));
    }
    op_cycles += mine->traced_op_cycles;
    enqueue_latency.merge(mine->enqueue_latency);
    dequeue_latency.merge(mine->dequeue_latency);
  }
  layers.set("mem.pool.abort_recycles_per_kop",
             1e3 * ratio(pool_after.abort_recycles - pool_before.abort_recycles,
                         traced_ops));
  layers.set("mem.pool.exhaustion_failures",
             pool_after.exhaustion - pool_before.exhaustion);
  layers.set("mem.pool.epoch_advances_per_kop",
             1e3 * ratio(pool_after.epoch_advances - pool_before.epoch_advances,
                         traced_ops));
  layers.set("mem.pool.reclaimed_per_free",
             ratio(pool_after.reclaimed - pool_before.reclaimed,
                   pool_after.frees - pool_before.frees));
  layers.set("ds.txqueue.enqueue_us_p50",
             static_cast<double>(enqueue_latency.quantile(0.5)) / cycles_per_us);
  layers.set("ds.txqueue.dequeue_us_p50",
             static_cast<double>(dequeue_latency.quantile(0.5)) / cycles_per_us);
  result.check(report_htm_queue_counts(args.seed, layers),
               "htm: a simulated queue run failed its audit");
  // Layer cover: time inside NOrec attempts (pool alloc/free and conflict
  // waits happen inside them).
  finish_trace(args, window, plan, views, cpu,
               1.0 - ratio(StmSnapshot::attempt_cycles(stm_before, stm_after),
                           op_cycles),
               layers);
  layers.emit(result);
  return result;
}

}  // namespace perfbench
