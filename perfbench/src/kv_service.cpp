// perfbench — kv-service-zipf: KvService<stm::Stm> (TL2) with two shard
// workers and one closed-loop client keeping kOutstanding requests in
// flight through the public Request::response slots.  90% get / 10% rmw
// over 2^20 prefilled keys, Zipf 0.99, so the table (16 MiB of buckets plus
// their stripe tables) is far larger than L2.
//
// The queue, the batching/segmenting layer and the snapshot read path do
// most of the work here; the arbiter stays near idle.  Audits: every get
// finds its key, every rmw applies, the table still holds exactly the
// prefilled keys, and the value sum equals the prefill sum plus the
// acknowledged rmw deltas.
#include <array>
#include <memory>
#include <stdexcept>
#include <vector>

#include "inputs.hpp"
#include "kv/service.hpp"
#include "stm/tl2.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using Service = txc::kv::KvService<txc::stm::Stm>;

constexpr std::size_t kShards = 2;
constexpr std::size_t kCapacityPerShard = std::size_t{1} << 20;  // load ~0.5
constexpr std::size_t kOutstanding = 64;
constexpr std::size_t kStreamOps = std::size_t{1} << 21;  // cycled
constexpr std::uint32_t kPrefillBatch = 256;              // puts per tx
constexpr int kSetupRepetitions = 5;

/// Build the service (not started) and prefill every key.  Throws if a
/// shard fills up, which would make the run's audits meaningless.
std::unique_ptr<Service> make_service(
    const std::shared_ptr<const txc::conflict::ConflictArbiter>& arbiter) {
  Service::Config config;
  config.store.shards = kShards;
  config.store.capacity_per_shard = kCapacityPerShard;
  auto service = std::make_unique<Service>(config, arbiter);
  Service::Store& store = service->store();
  for (std::uint32_t first = 1; first <= inputs::kKvKeys;
       first += kPrefillBatch) {
    bool full = false;
    store.substrate().atomically([&](txc::stm::Tx& tx) {
      full = false;  // the body may re-run after an abort
      for (std::uint32_t key = first;
           key < first + kPrefillBatch && key <= inputs::kKvKeys; ++key) {
        full |= store.put(tx, key, inputs::kv_prefill_value(key)) !=
                txc::kv::OpStatus::kOk;
      }
    });
    if (full) throw std::runtime_error("kv: a shard filled up during prefill");
  }
  return service;
}

struct ServiceSnapshot {
  double completed = 0, batches = 0, read_segments = 0, write_segments = 0;
  static ServiceSnapshot take(const txc::kv::ServiceStats& stats) {
    const auto get = [](const std::atomic<std::uint64_t>& counter) {
      return static_cast<double>(counter.load(std::memory_order_relaxed));
    };
    return {get(stats.completed), get(stats.batches), get(stats.read_segments),
            get(stats.write_segments)};
  }
};

/// One outstanding request of the closed-loop client.  Padded: the shard
/// workers publish into `response` while the client polls its neighbours.
struct alignas(64) Slot {
  std::atomic<std::uint64_t> response{0};
  std::uint64_t sent = 0;  // cycle stamp taken just before submit()
  inputs::KvOp op;
  std::uint64_t span = 0;  // sampled root span id, 0: not sampled
};

}  // namespace

Result run_kv_service(const Args& args) {
  const Plan plan = Plan::of(args);
  Result result;
  const std::vector<inputs::KvOp> ops = inputs::kv_ops(args.seed, kStreamOps);

  std::shared_ptr<const txc::conflict::ConflictArbiter> arbiter =
      make_rrw_arbiter();
  std::shared_ptr<const TracingArbiter> tracing;
  if (args.trace) {
    tracing = std::make_shared<const TracingArbiter>(arbiter);
    arbiter = tracing;
  }

  double setup_s = 0.0;
  const std::unique_ptr<Service> service = build_timed(
      kSetupRepetitions, [&] { return make_service(arbiter); }, setup_s);
  txc::core::AttemptProfile profile;
  if (args.trace) service->store().substrate().attach_profile(&profile);
  {
    // The shard workers inherit the starting thread's mask: give them the
    // CPUs after the client's (cpu_for(0, ...)), then restore.
    std::vector<int> worker_cpus;
    for (unsigned s = 1; s <= kShards; ++s) {
      for (const int cpu : cpu_for(s, 1 + kShards)) worker_cpus.push_back(cpu);
    }
    const std::vector<int> all = allowed_cpus();
    if (!worker_cpus.empty()) pin_current_thread(worker_cpus);
    service->start();
    pin_current_thread(all);
  }

  Window window{plan.warmup_s, args.seconds, plan.slices};
  SliceRecorder recorder{plan.slices};
  Histogram get_latency, rmw_latency;  // traced half only
  std::uint64_t issued = 0, failed = 0, rmw_delta_sum = 0;
  double submit_cycles = 0.0, submits_timed = 0.0;
  double traced_op_cycles = 0.0, traced_ops = 0.0;
  StmSnapshot stm_before, stm_after;
  ServiceSnapshot service_before, service_after;

  const std::vector<double> cpu = run_workers(
      window, 1, 1 + kShards,
      [&](unsigned) {
        if (args.trace) Tracer::instance().register_thread();
      },
      [&](unsigned) {
        Tracer& tracer = Tracer::instance();
        std::array<Slot, kOutstanding> slots;
        const auto issue = [&](Slot& slot) {
          slot.op = ops[issued % kStreamOps];
          slot.span = tracer.sample(issued) ? tracer.new_id() : 0;
          ++issued;
          slot.response.store(0, std::memory_order_relaxed);
          txc::kv::Request request;
          request.op = slot.op.rmw ? txc::kv::OpKind::kRmwAdd
                                   : txc::kv::OpKind::kGet;
          request.key_a = slot.op.key;
          request.value = slot.op.delta;
          request.response = &slot.response;
          slot.sent = txc::core::cycle_now();
          if (!service->submit(request)) {
            // Queue full: refused.  Never expected at 64 in flight; the
            // bare kDone completes as a failed op on the next poll.
            slot.response.store(txc::kv::kDone, std::memory_order_relaxed);
            return;
          }
          if (slot.span != 0) {
            const std::uint64_t after = txc::core::cycle_now();
            submit_cycles += static_cast<double>(after - slot.sent);
            submits_timed += 1.0;
            tracer.record(tracer.new_id(), slot.span, "kv.queue.submit",
                          slot.sent, after);
          }
        };
        const auto complete = [&](Slot& slot, std::uint64_t response,
                                  std::uint64_t now) {
          const std::uint64_t latency = now - slot.sent;
          const int slice = window.slice_of(now);
          recorder.record(slice, latency);
          if (slice >= plan.traced_from && slice < plan.slices) {
            (slot.op.rmw ? rmw_latency : get_latency).record(latency);
            traced_op_cycles += static_cast<double>(latency);
            traced_ops += 1.0;
          }
          if (slot.span != 0) {
            tracer.record(slot.span, 0, slot.op.rmw ? "kv.rmw" : "kv.get",
                          slot.sent, now);
          }
          // Every key is resident: a get must hit, an rmw must apply.
          if ((response & txc::kv::kFound) == 0) {
            ++failed;
          } else if (slot.op.rmw) {
            rmw_delta_sum += slot.op.delta;
          }
        };

        for (Slot& slot : slots) issue(slot);
        std::size_t in_flight = kOutstanding;
        bool draining = false;
        while (in_flight > 0) {
          for (Slot& slot : slots) {
            if (slot.sent == 0) continue;  // retired during the drain
            const std::uint64_t response =
                slot.response.load(std::memory_order_acquire);
            if (response == 0) continue;
            const std::uint64_t now = txc::core::cycle_now();
            complete(slot, response, now);
            draining = draining || window.over(now);
            if (draining) {
              slot.sent = 0;
              --in_flight;
            } else {
              issue(slot);
            }
          }
        }
      },
      [&](int boundary) {
        if (!args.trace) return;
        if (boundary == plan.traced_from) {
          stm_before = StmSnapshot::take(service->store().stats(), profile);
          service_before = ServiceSnapshot::take(service->service_stats());
          Tracer::instance().enabled.store(true, std::memory_order_relaxed);
        } else if (boundary == plan.slices) {
          Tracer::instance().enabled.store(false, std::memory_order_relaxed);
          stm_after = StmSnapshot::take(service->store().stats(), profile);
          service_after = ServiceSnapshot::take(service->service_stats());
        }
      });
  service->stop();

  // -- Audits ------------------------------------------------------------------
  result.attempted = issued;
  result.failed = failed;
  const txc::kv::ServiceStats& stats = service->service_stats();
  result.check(stats.shard_full.load() == 0, "kv: shard-full operations");
  result.check(stats.completed.load() == issued - stats.rejected.load(),
               "kv: completed != submitted");
  std::uint64_t prefill_sum = 0;
  for (std::uint32_t key = 1; key <= inputs::kKvKeys; ++key) {
    prefill_sum += inputs::kv_prefill_value(key);
  }
  result.check(service->store().value_sum_sync() == prefill_sum + rmw_delta_sum,
               "kv: value sum != prefill sum + committed rmw deltas");
  result.check(service->store().size_sync() == inputs::kKvKeys,
               "kv: resident key count changed");

  const std::vector<const SliceRecorder*> views{&recorder};
  if (!args.trace) {
    add_end_to_end(result, summarize(window, views, cpu, 0, plan.slices),
                   setup_s);
    return result;
  }
  const double cycles_per_us = window.cycles_per_us();
  LayerReport layers;
  txc::core::LatencyHistogram service_latency;
  service->merge_latency(service_latency);
  const double submit_mean = ratio(submit_cycles, submits_timed);
  layers.set("kv.queue.submit_ns_mean", submit_mean / cycles_per_us * 1e3);
  layers.set("kv.service.ops_per_batch",
             ratio(service_after.completed - service_before.completed,
                   service_after.batches - service_before.batches));
  const double reads = service_after.read_segments - service_before.read_segments;
  layers.set("kv.service.read_segment_frac",
             ratio(reads, reads + service_after.write_segments -
                              service_before.write_segments));
  layers.set("kv.service.enqueue_to_commit_us_p50",
             static_cast<double>(service_latency.quantile(0.5)) / cycles_per_us);
  layers.set("kv.get_us_p50",
             static_cast<double>(get_latency.quantile(0.5)) / cycles_per_us);
  layers.set("kv.rmw_us_p50",
             static_cast<double>(rmw_latency.quantile(0.5)) / cycles_per_us);
  StmSnapshot::report(stm_before, stm_after, cycles_per_us, layers);
  tracing->report(layers, cycles_per_us);
  // Layer cover per request: the submit call (queue push) plus the service's
  // own enqueue->commit time (queue wait, batching, the segment's
  // transaction).  What remains is response publication and the client
  // noticing it.
  const double covered = submit_mean + histogram_mean(service_latency);
  finish_trace(args, window, plan, views, cpu,
               1.0 - ratio(covered, ratio(traced_op_cycles, traced_ops)),
               layers);
  layers.emit(result);
  return result;
}

}  // namespace perfbench
