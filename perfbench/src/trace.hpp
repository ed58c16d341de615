// perfbench — the traced run: spans, layer counters, a forwarding arbiter.
//
// Everything here lives outside the library and observes it only through
// public surfaces: spans are recorded around the benchmark's own calls into
// each layer, the STM attempt split comes from attach_profile(AttemptProfile),
// the service and pool ledgers are the public stats structs, and the
// conflict layer is observed by TracingArbiter, a forwarding
// ConflictArbiter (modelled on adversary::ArbiterProbe) that wraps the RRW
// arbiter the workload would use anyway.
//
// Spans are sampled (one op in kSampleEvery) into per-thread buffers of
// fixed capacity, so a traced run's memory stays bounded however long it
// runs; the buffers are written out as JSON lines when the run ends.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "conflict/arbiter.hpp"
#include "core/profiler.hpp"

namespace perfbench {

// -- Per-layer metric catalogue ---------------------------------------------

struct LayerMetricDef {
  const char* name;
  const char* unit;
};

/// Every per-layer metric a traced run prints, in print order.  Metrics of a
/// layer a workload does not exercise print as 0.
inline constexpr LayerMetricDef kLayerMetrics[] = {
    {"kv.queue.submit_ns_mean", "ns"},
    {"kv.service.ops_per_batch", "ops/batch"},
    {"kv.service.read_segment_frac", "ratio"},
    {"kv.service.enqueue_to_commit_us_p50", "us"},
    {"kv.get_us_p50", "us"},
    {"kv.rmw_us_p50", "us"},
    {"stm.attempts_per_commit", "ratio"},
    {"stm.commit_attempt_us_mean", "us"},
    {"stm.abort_attempt_us_mean", "us"},
    {"stm.lock_waits_per_commit", "ratio"},
    {"stm.remote_kills_per_kcommit", "1/kcommit"},
    {"stm.false_conflicts", "count"},
    {"stm.snapshot_restart_frac", "ratio"},
    {"conflict.decide_ns_mean", "ns"},
    {"conflict.wait_us_mean", "us"},
    {"conflict.kill_frac", "ratio"},
    {"conflict.self_abort_frac", "ratio"},
    {"conflict.grant_expired_frac", "ratio"},
    {"conflict.grace_used_frac", "ratio"},
    {"mem.pool.abort_recycles_per_kop", "1/kop"},
    {"mem.pool.exhaustion_failures", "count"},
    {"mem.pool.epoch_advances_per_kop", "1/kop"},
    {"mem.pool.reclaimed_per_free", "ratio"},
    {"ds.txqueue.enqueue_us_p50", "us"},
    {"ds.txqueue.dequeue_us_p50", "us"},
    {"htm.sim_commits_per_mcycle", "1/Mcycle"},
    {"htm.abort_rate", "ratio"},
    {"htm.conflicts_per_commit", "ratio"},
    {"htm.stall_cycles_per_commit", "cycles"},
    {"trace.unattributed_frac", "ratio"},
    {"trace.overhead_frac", "ratio"},
};

/// Per-layer values of one traced run; unknown names are a programming
/// error (the catalogue above is what BENCHMARK.json lists).
class LayerReport {
 public:
  void set(const std::string& name, double value) {
    for (const LayerMetricDef& def : kLayerMetrics) {
      if (name == def.name) {
        values_[name] = value;
        return;
      }
    }
    throw std::logic_error("unknown per-layer metric " + name);
  }
  void emit(Result& result) const {
    for (const LayerMetricDef& def : kLayerMetrics) {
      const auto it = values_.find(def.name);
      result.metrics.push_back(
          {def.name, it == values_.end() ? 0.0 : it->second, def.unit});
    }
  }

 private:
  std::map<std::string, double> values_;
};

// -- Spans ---------------------------------------------------------------------

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0: a root (benchmark op) span
  const char* name = "";     // static string
  std::uint64_t start = 0;   // core::cycle_now ticks
  std::uint64_t end = 0;
};

/// Global span sink: one bounded buffer per thread, registered once.
class Tracer {
 public:
  static constexpr std::uint64_t kSampleEvery = 32;
  static constexpr std::size_t kSpansPerThread = std::size_t{1} << 16;

  static Tracer& instance() {
    static Tracer tracer;
    return tracer;
  }

  /// Recording switch, flipped by the controller at the traced half's
  /// boundaries.  One relaxed load per op when off.
  std::atomic<bool> enabled{false};

  /// Make sure the calling thread has its buffer (allocates; call before the
  /// measured window).
  void register_thread() { (void)local(); }

  /// Whether the calling thread should trace its `op_index`-th op.
  [[nodiscard]] bool sample(std::uint64_t op_index) const noexcept {
    return enabled.load(std::memory_order_relaxed) &&
           op_index % kSampleEvery == 0;
  }

  [[nodiscard]] std::uint64_t new_id() { return local().next_id++; }

  void record(std::uint64_t id, std::uint64_t parent, const char* name,
              std::uint64_t start, std::uint64_t end) {
    Local& log = local();
    if (log.spans.size() < kSpansPerThread) {  // full: drop the span
      log.spans.push_back(Span{id, parent, name, start, end});
    }
  }

  /// The sampled op span the calling thread is inside (0: none).  Child
  /// spans recorded by other layers (TracingArbiter) hang off it.
  static std::uint64_t& current() noexcept {
    thread_local std::uint64_t span = 0;
    return span;
  }

  [[nodiscard]] std::size_t recorded() {
    std::lock_guard<std::mutex> guard{mutex_};
    std::size_t total = 0;
    for (const auto& log : logs_) total += log->spans.size();
    return total;
  }

  /// Write every span as one JSON object per line (times in microseconds
  /// since the earliest span).  Quiescent only: call after workers joined.
  void write(const std::string& path, double cycles_per_us) {
    std::lock_guard<std::mutex> guard{mutex_};
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      return;
    }
    std::uint64_t origin = ~std::uint64_t{0};
    for (const auto& log : logs_) {
      for (const Span& span : log->spans) origin = std::min(origin, span.start);
    }
    for (std::size_t thread = 0; thread < logs_.size(); ++thread) {
      for (const Span& span : logs_[thread]->spans) {
        std::fprintf(out,
                     "{\"id\": %llu, \"parent\": %llu, \"thread\": %zu, "
                     "\"name\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f}\n",
                     static_cast<unsigned long long>(span.id),
                     static_cast<unsigned long long>(span.parent), thread,
                     span.name,
                     static_cast<double>(span.start - origin) / cycles_per_us,
                     static_cast<double>(span.end - origin) / cycles_per_us);
      }
    }
    std::fclose(out);
  }

 private:
  struct Local {
    std::vector<Span> spans;
    std::uint64_t next_id = 1;
  };

  Local& local() {
    thread_local Local* log = nullptr;
    if (log == nullptr) {
      auto owned = std::make_unique<Local>();
      owned->spans.reserve(kSpansPerThread);
      std::lock_guard<std::mutex> guard{mutex_};
      // Ids are unique across threads: the thread's index in the high bits.
      owned->next_id = (static_cast<std::uint64_t>(logs_.size()) + 1) << 40;
      log = owned.get();
      logs_.push_back(std::move(owned));
    }
    return *log;
  }

  std::mutex mutex_;
  std::vector<std::unique_ptr<Local>> logs_;
};

/// RAII root span around one benchmark op, when the op is sampled.
class OpSpan {
 public:
  OpSpan(const char* name, std::uint64_t op_index) : name_(name) {
    Tracer& tracer = Tracer::instance();
    if (!tracer.sample(op_index)) return;
    id_ = tracer.new_id();
    Tracer::current() = id_;
    start_ = txc::core::cycle_now();
  }
  ~OpSpan() {
    if (id_ == 0) return;
    Tracer::instance().record(id_, 0, name_, start_, txc::core::cycle_now());
    Tracer::current() = 0;
  }
  OpSpan(const OpSpan&) = delete;
  OpSpan& operator=(const OpSpan&) = delete;

  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

 private:
  const char* name_;
  std::uint64_t id_ = 0;
  std::uint64_t start_ = 0;
};

// -- The conflict layer, observed ------------------------------------------------

/// Forwarding ConflictArbiter that times and classifies what the wrapped
/// arbiter decides at the spin sites (TL2, NOrec) while Tracer::enabled is
/// set, and forwards untouched otherwise.
///
/// A spin-site conflict *episode* opens at a decide() with waits_so_far == 0
/// and extends to the last arbiter call belonging to it (a later decide(),
/// or the outcome feedback); it closes when the thread's next episode opens
/// or at flush().  Its length is the conflict layer's wait time (it misses
/// at most the final quantum after a kill, which reports no feedback).
class TracingArbiter final : public txc::conflict::ConflictArbiter {
 public:
  explicit TracingArbiter(
      std::shared_ptr<const txc::conflict::ConflictArbiter> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] txc::conflict::Decision decide(
      const txc::conflict::ConflictView& view,
      txc::sim::Rng& rng) const override {
    if (!recording()) return inner_->decide(view, rng);
    const std::uint64_t before = txc::core::cycle_now();
    const txc::conflict::Decision verdict = inner_->decide(view, rng);
    const std::uint64_t after = txc::core::cycle_now();
    decisions_.fetch_add(1, std::memory_order_relaxed);
    decide_cycles_.fetch_add(after - before, std::memory_order_relaxed);
    Episode& episode = current_episode();
    if (view.waits_so_far == 0) {
      close(episode);
      episode = Episode{true, before, after, Tracer::current()};
      conflicts_.fetch_add(1, std::memory_order_relaxed);
    } else if (episode.open) {
      episode.last = after;
    }
    switch (verdict) {
      case txc::conflict::Decision::kAbortEnemy:
        kills_.fetch_add(1, std::memory_order_relaxed);
        break;
      case txc::conflict::Decision::kAbortSelf:
        self_aborts_.fetch_add(1, std::memory_order_relaxed);
        break;
      case txc::conflict::Decision::kWait:
        break;
    }
    return verdict;
  }

  [[nodiscard]] std::uint64_t wait_quantum(
      const txc::conflict::ConflictView& view) const noexcept override {
    return inner_->wait_quantum(view);
  }

  [[nodiscard]] txc::conflict::GraceGrant grace_grant(
      const txc::conflict::ConflictView& view,
      txc::sim::Rng& rng) const override {
    return inner_->grace_grant(view, rng);
  }

  [[nodiscard]] bool needs_seniority() const noexcept override {
    return inner_->needs_seniority();
  }

  void feedback(const txc::core::ConflictOutcome& outcome) const noexcept override {
    if (recording()) {
      feedbacks_.fetch_add(1, std::memory_order_relaxed);
      if (!outcome.committed) expired_.fetch_add(1, std::memory_order_relaxed);
      if (outcome.grace > 0.0) {
        // Fixed-point sum of waited/grace (parts per million).
        const double used = std::min(1.0, outcome.waited / outcome.grace);
        grace_used_ppm_.fetch_add(static_cast<std::uint64_t>(used * 1e6),
                                  std::memory_order_relaxed);
        graced_feedbacks_.fetch_add(1, std::memory_order_relaxed);
      }
      Episode& episode = current_episode();
      if (episode.open) episode.last = txc::core::cycle_now();
    }
    inner_->feedback(outcome);
  }

  [[nodiscard]] std::string name() const override { return inner_->name(); }

  /// Close the calling thread's open episode (call when a worker finishes).
  void flush() const { close(current_episode()); }

  /// Fill the conflict.* metrics.
  void report(LayerReport& layers, double cycles_per_us) const {
    const auto get = [](const std::atomic<std::uint64_t>& counter) {
      return static_cast<double>(counter.load(std::memory_order_relaxed));
    };
    const double conflicts = get(conflicts_);
    layers.set("conflict.decide_ns_mean",
               ratio(get(decide_cycles_), get(decisions_)) /
                   cycles_per_us * 1e3);
    layers.set("conflict.wait_us_mean",
               ratio(get(wait_cycles_), get(episodes_)) / cycles_per_us);
    layers.set("conflict.kill_frac", ratio(get(kills_), conflicts));
    layers.set("conflict.self_abort_frac", ratio(get(self_aborts_), conflicts));
    layers.set("conflict.grant_expired_frac",
               ratio(get(expired_), get(feedbacks_)));
    layers.set("conflict.grace_used_frac",
               ratio(get(grace_used_ppm_) / 1e6, get(graced_feedbacks_)));
  }

 private:
  struct Episode {
    bool open = false;
    std::uint64_t start = 0;
    std::uint64_t last = 0;
    std::uint64_t parent = 0;  // sampled op span the conflict happened in
  };

  [[nodiscard]] static bool recording() noexcept {
    return Tracer::instance().enabled.load(std::memory_order_relaxed);
  }

  static Episode& current_episode() noexcept {
    thread_local Episode episode;
    return episode;
  }

  void close(Episode& episode) const {
    if (!episode.open) return;
    episode.open = false;
    wait_cycles_.fetch_add(episode.last - episode.start,
                           std::memory_order_relaxed);
    episodes_.fetch_add(1, std::memory_order_relaxed);
    if (episode.parent != 0) {
      Tracer& tracer = Tracer::instance();
      tracer.record(tracer.new_id(), episode.parent, "conflict.wait",
                    episode.start, episode.last);
    }
  }

  std::shared_ptr<const txc::conflict::ConflictArbiter> inner_;
  mutable std::atomic<std::uint64_t> decisions_{0};
  mutable std::atomic<std::uint64_t> decide_cycles_{0};
  mutable std::atomic<std::uint64_t> conflicts_{0};
  mutable std::atomic<std::uint64_t> kills_{0};
  mutable std::atomic<std::uint64_t> self_aborts_{0};
  mutable std::atomic<std::uint64_t> feedbacks_{0};
  mutable std::atomic<std::uint64_t> expired_{0};
  mutable std::atomic<std::uint64_t> grace_used_ppm_{0};
  mutable std::atomic<std::uint64_t> graced_feedbacks_{0};
  mutable std::atomic<std::uint64_t> wait_cycles_{0};
  mutable std::atomic<std::uint64_t> episodes_{0};
};

/// The trace.* metrics every workload reports, plus the span dump.
/// `unattributed` is the share of the traced half's end-to-end op time that
/// no layer's self time covers (each workload defines its layer cover).
inline void finish_trace(const Args& args, const Window& window,
                         const Plan& plan,
                         const std::vector<const SliceRecorder*>& recorders,
                         const std::vector<double>& cpu_us_per_slice,
                         double unattributed, LayerReport& layers) {
  const SliceSummary untraced =
      summarize(window, recorders, cpu_us_per_slice, 0, plan.traced_from);
  const SliceSummary traced = summarize(window, recorders, cpu_us_per_slice,
                                        plan.traced_from, plan.slices);
  layers.set("trace.overhead_frac",
             1.0 - ratio(traced.throughput_ops_s, untraced.throughput_ops_s));
  layers.set("trace.unattributed_frac", unattributed);
  std::fprintf(stderr, "perfbench: %zu spans recorded\n",
               Tracer::instance().recorded());
  if (!args.trace_out.empty()) {
    Tracer::instance().write(args.trace_out + "/" + args.workload + "-seed" +
                                 std::to_string(args.seed) + ".jsonl",
                             window.cycles_per_us());
  }
}

// -- STM layer, observed ----------------------------------------------------------

/// A point-in-time copy of an StmStats ledger plus the attached
/// AttemptProfile totals; the difference of two snapshots is one phase.
struct StmSnapshot {
  double commits = 0, aborts = 0, lock_waits = 0, remote_kills = 0;
  double false_conflicts = 0, snapshot_commits = 0, snapshot_restarts = 0;
  double profile_commits = 0, profile_aborts = 0;
  double commit_cycles = 0, abort_cycles = 0;

  template <typename Stats>
  static StmSnapshot take(const Stats& stats,
                          const txc::core::AttemptProfile& profile) {
    const auto get = [](const auto& counter) {
      return static_cast<double>(counter.load(std::memory_order_relaxed));
    };
    StmSnapshot snap;
    snap.commits = get(stats.commits);
    snap.aborts = get(stats.aborts);
    snap.lock_waits = get(stats.lock_waits);
    snap.remote_kills = get(stats.remote_kills);
    snap.false_conflicts = get(stats.false_conflicts);
    snap.snapshot_commits = get(stats.snapshot_commits);
    snap.snapshot_restarts = get(stats.snapshot_restarts);
    snap.profile_commits = static_cast<double>(profile.commits());
    snap.profile_aborts = static_cast<double>(profile.aborts());
    snap.commit_cycles = profile.mean_commit_cycles() * snap.profile_commits;
    snap.abort_cycles = profile.mean_abort_cycles() * snap.profile_aborts;
    return snap;
  }

  /// Fill the stm.* metrics for the phase between `before` and `after`.
  static void report(const StmSnapshot& before, const StmSnapshot& after,
                     double cycles_per_us, LayerReport& layers) {
    const double commits = after.commits - before.commits;
    const double aborts = after.aborts - before.aborts;
    const double profile_commits = after.profile_commits - before.profile_commits;
    const double profile_aborts = after.profile_aborts - before.profile_aborts;
    const double snapshots = (after.snapshot_commits - before.snapshot_commits) +
                             (after.snapshot_restarts - before.snapshot_restarts);
    layers.set("stm.attempts_per_commit", ratio(commits + aborts, commits));
    layers.set("stm.commit_attempt_us_mean",
               ratio(after.commit_cycles - before.commit_cycles,
                     profile_commits) / cycles_per_us);
    layers.set("stm.abort_attempt_us_mean",
               ratio(after.abort_cycles - before.abort_cycles, profile_aborts) /
                   cycles_per_us);
    layers.set("stm.lock_waits_per_commit",
               ratio(after.lock_waits - before.lock_waits, commits));
    layers.set("stm.remote_kills_per_kcommit",
               1e3 * ratio(after.remote_kills - before.remote_kills, commits));
    layers.set("stm.false_conflicts", after.false_conflicts - before.false_conflicts);
    layers.set("stm.snapshot_restart_frac",
               ratio(after.snapshot_restarts - before.snapshot_restarts,
                     snapshots));
  }

  /// Cycles spent inside attempts (commit and abort) during the phase.
  static double attempt_cycles(const StmSnapshot& before,
                               const StmSnapshot& after) {
    return (after.commit_cycles - before.commit_cycles) +
           (after.abort_cycles - before.abort_cycles);
  }
};

}  // namespace perfbench
