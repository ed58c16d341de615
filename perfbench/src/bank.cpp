// perfbench — bank-hot-tl2: three closed-loop threads doing two-account
// transfers on TL2 over a small registered hot set, under RRW.
//
// The instrumented write path and the arbiter do most of the work here;
// the KV layers and reclamation stay idle.  Audit: the balance total is
// conserved, and every transfer committed exactly once.
#include <memory>
#include <vector>

#include "inputs.hpp"
#include "stm/options.hpp"
#include "stm/tl2.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr unsigned kThreads = 3;
constexpr std::size_t kOpsPerThread = std::size_t{1} << 16;  // cycled
constexpr int kSetupRepetitions = 21;

/// The system under test: a TL2 instance with the accounts registered as a
/// region (one stripe per account) and prefilled in one transaction.
struct Bank {
  txc::stm::Stm stm;
  std::vector<txc::stm::Cell> accounts;

  explicit Bank(std::shared_ptr<const txc::conflict::ConflictArbiter> arbiter)
      : stm(std::move(arbiter)), accounts(inputs::kBankAccounts) {
    txc::stm::RegionSpec spec;
    spec.base = accounts.data();
    spec.elements = accounts.size();
    spec.stride_bytes = sizeof(txc::stm::Cell);
    stm.register_region(spec);
    stm.atomically([&](txc::stm::Tx& tx) {
      for (auto& account : accounts) {
        tx.write(account, inputs::kBankInitialBalance);
      }
    });
  }
};

}  // namespace

Result run_bank(const Args& args) {
  const Plan plan = Plan::of(args);
  Result result;

  std::vector<std::vector<inputs::Transfer>> streams;
  for (unsigned t = 0; t < kThreads; ++t) {
    streams.push_back(inputs::bank_ops(args.seed, t, kOpsPerThread));
  }

  std::shared_ptr<const txc::conflict::ConflictArbiter> arbiter =
      make_rrw_arbiter();
  std::shared_ptr<const TracingArbiter> tracing;
  if (args.trace) {
    tracing = std::make_shared<const TracingArbiter>(arbiter);
    arbiter = tracing;
  }

  double setup_s = 0.0;
  const std::unique_ptr<Bank> bank = build_timed(
      kSetupRepetitions, [&] { return std::make_unique<Bank>(arbiter); },
      setup_s);
  txc::core::AttemptProfile profile;
  if (args.trace) bank->stm.attach_profile(&profile);

  Window window{plan.warmup_s, args.seconds, plan.slices};
  std::vector<std::unique_ptr<SliceRecorder>> recorders;
  for (unsigned t = 0; t < kThreads; ++t) {
    recorders.push_back(std::make_unique<SliceRecorder>(plan.slices));
  }
  std::vector<std::uint64_t> ops_done(kThreads, 0);
  std::vector<double> traced_op_cycles(kThreads, 0.0);

  StmSnapshot before, after;
  const std::vector<double> cpu = run_workers(
      window, kThreads, kThreads,
      [&](unsigned) {
        if (args.trace) Tracer::instance().register_thread();
      },
      [&](unsigned t) {
        const std::vector<inputs::Transfer>& ops = streams[t];
        std::vector<txc::stm::Cell>& accounts = bank->accounts;
        SliceRecorder& recorder = *recorders[t];
        double traced_cycles = 0.0;
        std::uint64_t index = 0;
        for (;; ++index) {
          const inputs::Transfer& op = ops[index % kOpsPerThread];
          const std::uint64_t begin = txc::core::cycle_now();
          {
            const OpSpan span{"bank.transfer", index};
            bank->stm.atomically([&](txc::stm::Tx& tx) {
              const std::uint64_t from = tx.read(accounts[op.from]);
              const std::uint64_t to = tx.read(accounts[op.to]);
              tx.write(accounts[op.from], from - op.amount);
              tx.write(accounts[op.to], to + op.amount);
            });
          }
          const std::uint64_t end = txc::core::cycle_now();
          const int slice = window.slice_of(end);
          recorder.record(slice, end - begin);
          if (slice >= plan.traced_from && slice < plan.slices) {
            traced_cycles += static_cast<double>(end - begin);
          }
          if (slice == plan.slices) break;
        }
        if (tracing) tracing->flush();
        ops_done[t] = index + 1;
        traced_op_cycles[t] = traced_cycles;
      },
      [&](int boundary) {
        if (!args.trace) return;
        if (boundary == plan.traced_from) {
          before = StmSnapshot::take(bank->stm.stats(), profile);
          Tracer::instance().enabled.store(true, std::memory_order_relaxed);
        } else if (boundary == plan.slices) {
          Tracer::instance().enabled.store(false, std::memory_order_relaxed);
          after = StmSnapshot::take(bank->stm.stats(), profile);
        }
      });

  // -- Audits ------------------------------------------------------------------
  std::uint64_t total_ops = 0;
  for (const std::uint64_t done : ops_done) total_ops += done;
  result.attempted = total_ops;
  std::uint64_t balance = 0;  // modular: a transfer may take an account below 0
  for (const auto& account : bank->accounts) {
    balance += txc::stm::Stm::read_committed(account);
  }
  result.check(balance == inputs::kBankAccounts * inputs::kBankInitialBalance,
               "bank: balance total not conserved");
  // +1: the prefill transaction.
  result.check(bank->stm.stats().commits.load() == total_ops + 1,
               "bank: commits != transfers + prefill");

  std::vector<const SliceRecorder*> views;
  for (const auto& recorder : recorders) views.push_back(recorder.get());
  if (!args.trace) {
    add_end_to_end(result, summarize(window, views, cpu, 0, plan.slices),
                   setup_s);
    return result;
  }
  LayerReport layers;
  StmSnapshot::report(before, after, window.cycles_per_us(), layers);
  tracing->report(layers, window.cycles_per_us());
  double op_cycles = 0.0;
  for (const double cycles : traced_op_cycles) op_cycles += cycles;
  // Layer cover: time inside STM attempts (conflict waits happen inside
  // them); what remains is begin/retry/epoch-pin overhead around attempts.
  const double covered = StmSnapshot::attempt_cycles(before, after);
  finish_trace(args, window, plan, views, cpu,
               1.0 - ratio(covered, op_cycles), layers);
  layers.emit(result);
  return result;
}

}  // namespace perfbench
