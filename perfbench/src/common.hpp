// perfbench — measurement plumbing shared by the workloads.
//
// A run is: generate inputs, set up (timed, several times, median kept),
// warm up, then measure a window of `seconds` split into equal slices.
// Every operation is timed from call to result with core::cycle_now() and
// recorded into the slice its completion falls in; a controller thread
// samples process CPU time at every slice boundary.  End-to-end metrics are
// medians over slices, so one noisy second (a neighbour's burst on a shared
// host) moves a metric by at most one rank instead of by its magnitude.
#pragma once

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/profiler.hpp"

namespace perfbench {

/// Completion-time histogram: 256 sub-buckets per octave (~0.4% error), ten
/// times finer than the library's default core::LatencyHistogram.
using Histogram = txc::core::BasicLatencyHistogram<8>;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // directory for the span dump; empty: none
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> audit_failures;
  std::vector<Metric> metrics;

  [[nodiscard]] bool correct() const noexcept {
    return audit_failures.empty() && failed == 0;
  }
  /// A failed audit: counted as one failed operation, and fails the run.
  void fail(const std::string& what) {
    std::fprintf(stderr, "perfbench: AUDIT FAILED: %s\n", what.c_str());
    audit_failures.push_back(what);
    ++failed;
  }
  void check(bool ok, const std::string& what) {
    if (!ok) fail(what);
  }
};

[[nodiscard]] inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

[[nodiscard]] inline double ratio(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}

[[nodiscard]] inline double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process CPU time (user + system, all threads), microseconds.
[[nodiscard]] inline double process_cpu_us() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto us = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 +
           static_cast<double>(tv.tv_usec);
  };
  return us(usage.ru_utime) + us(usage.ru_stime);
}

/// Peak resident set of this process image, MiB: VmHWM from
/// /proc/self/status.  (getrusage's ru_maxrss is no use here: it keeps the
/// pre-exec high-water mark of whatever process forked us.)
[[nodiscard]] inline double peak_rss_mb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(status);
  return kib / 1024.0;
}

/// CPUs this process may run on, ascending.
[[nodiscard]] inline std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

/// Restrict the calling thread to `cpus` (threads it starts inherit the
/// mask).  Busy threads pinned apart stop migrating and stop landing on one
/// CPU together, which is most of the run-to-run spread of their tails.
inline void pin_current_thread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

/// The CPU for busy thread `index` of a workload with `busy` busy threads:
/// one CPU each while the process may use more CPUs than it has busy
/// threads (one is left for the controller); none otherwise.
[[nodiscard]] inline std::vector<int> cpu_for(unsigned index, unsigned busy) {
  const std::vector<int> cpus = allowed_cpus();
  if (cpus.size() <= busy || index >= busy) return {};
  return {cpus[index]};
}

/// Build the workload's system `repetitions` times with `make` (returning a
/// std::unique_ptr), timing each construction; keeps the last instance and
/// stores the median construction time in `setup_s`.  The previous instance
/// is torn down outside the timed region.
template <typename Make>
[[nodiscard]] auto build_timed(int repetitions, Make&& make, double& setup_s) {
  std::vector<double> samples;
  decltype(make()) built;
  for (int rep = 0; rep < repetitions; ++rep) {
    built = nullptr;
    const double begin = wall_seconds();
    built = make();
    samples.push_back(wall_seconds() - begin);
  }
  setup_s = median(samples);
  return built;
}

/// The measured window: a warm-up, then `slices` equal slices.  Workers map
/// each completion tick to a slice; ticks before the first slice are
/// warm-up, ticks at or past the end are drain.
class Window {
 public:
  Window(double warmup_s, double seconds, int slices)
      : warmup_s_(warmup_s), slice_s_(seconds / slices), slices_(slices) {
    calibrate();
  }

  /// Fix the window at "now + warm-up".  Call once, right before the
  /// workers are released.
  void open() {
    const std::uint64_t now_tick = txc::core::cycle_now();
    origin_wall_ = wall_seconds() + warmup_s_;
    start_tick_ = now_tick + static_cast<std::uint64_t>(warmup_s_ * 1e6 *
                                                        cycles_per_us_);
    slice_ticks_ =
        static_cast<std::uint64_t>(slice_s_ * 1e6 * cycles_per_us_);
    end_tick_ = start_tick_ + slice_ticks_ * static_cast<std::uint64_t>(slices_);
  }

  /// -1 during warm-up, `slices()` once the window is over.
  [[nodiscard]] int slice_of(std::uint64_t tick) const noexcept {
    if (tick < start_tick_) return -1;
    const std::uint64_t slice = (tick - start_tick_) / slice_ticks_;
    return slice >= static_cast<std::uint64_t>(slices_)
               ? slices_
               : static_cast<int>(slice);
  }
  [[nodiscard]] bool over(std::uint64_t tick) const noexcept {
    return tick >= end_tick_;
  }
  [[nodiscard]] double slice_seconds() const noexcept { return slice_s_; }
  [[nodiscard]] double cycles_per_us() const noexcept { return cycles_per_us_; }
  [[nodiscard]] double us(double cycles) const noexcept {
    return cycles / cycles_per_us_;
  }

  /// Sleep until each slice boundary, sampling process CPU time there; calls
  /// `on_boundary(k)` at boundary k = 0 .. slices (k = 0 opens the first
  /// slice, k = slices closes the last).  Returns CPU-microseconds per slice.
  std::vector<double> control(const std::function<void(int)>& on_boundary) {
    std::vector<double> cpu_at;
    for (int k = 0; k <= slices_; ++k) {
      const double due = origin_wall_ + slice_s_ * k;
      const double wait = due - wall_seconds();
      if (wait > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(wait));
      }
      cpu_at.push_back(process_cpu_us());
      on_boundary(k);
    }
    std::vector<double> per_slice;
    for (int k = 0; k < slices_; ++k) {
      per_slice.push_back(cpu_at[k + 1] - cpu_at[k]);
    }
    return per_slice;
  }

 private:
  /// Cycle-counter rate over a 50 ms busy-wait (not a sleep, so a
  /// frequency governor sees load).  Not part of set-up time.
  void calibrate() {
    const std::uint64_t cycles_begin = txc::core::cycle_now();
    const double wall_begin = wall_seconds();
    while (wall_seconds() - wall_begin < 0.05) {
    }
    const std::uint64_t cycles = txc::core::cycle_now() - cycles_begin;
    cycles_per_us_ =
        static_cast<double>(cycles) / ((wall_seconds() - wall_begin) * 1e6);
  }

  double warmup_s_;
  double slice_s_;
  int slices_;
  double cycles_per_us_ = 1.0;
  double origin_wall_ = 0.0;
  std::uint64_t start_tick_ = 0;
  std::uint64_t slice_ticks_ = 1;
  std::uint64_t end_tick_ = 0;
};

/// One worker thread's per-slice completion-time histograms and op counts.
class SliceRecorder {
 public:
  explicit SliceRecorder(int slices) : ops_(static_cast<std::size_t>(slices)) {
    for (int s = 0; s < slices; ++s) {
      histograms_.push_back(std::make_unique<Histogram>());
    }
  }

  /// Record one completed op; out-of-window slices are ignored.
  void record(int slice, std::uint64_t cycles) noexcept {
    if (slice < 0 || slice >= static_cast<int>(ops_.size())) return;
    histograms_[static_cast<std::size_t>(slice)]->record(cycles);
    ++ops_[static_cast<std::size_t>(slice)];
  }

  [[nodiscard]] const Histogram& histogram(int slice) const {
    return *histograms_[static_cast<std::size_t>(slice)];
  }
  [[nodiscard]] std::uint64_t ops(int slice) const {
    return ops_[static_cast<std::size_t>(slice)];
  }

 private:
  std::vector<std::unique_ptr<Histogram>> histograms_;
  std::vector<std::uint64_t> ops_;
};

/// End-to-end figures of a range of slices [first, last).
struct SliceSummary {
  double throughput_ops_s = 0.0;
  double latency_p50_us = 0.0;
  double latency_p99_us = 0.0;
  double cpu_us_per_op = 0.0;
};

/// Medians over slices [first, last) of per-slice throughput, p50, p99 and
/// CPU per op, merging every worker's histogram of a slice first.
[[nodiscard]] inline SliceSummary summarize(
    const Window& window, const std::vector<const SliceRecorder*>& recorders,
    const std::vector<double>& cpu_us_per_slice, int first, int last) {
  std::vector<double> throughput, p50, p99, cpu;
  for (int slice = first; slice < last; ++slice) {
    Histogram merged;
    std::uint64_t ops = 0;
    for (const SliceRecorder* recorder : recorders) {
      merged.merge(recorder->histogram(slice));
      ops += recorder->ops(slice);
    }
    throughput.push_back(static_cast<double>(ops) / window.slice_seconds());
    p50.push_back(window.us(static_cast<double>(merged.quantile(0.50))));
    p99.push_back(window.us(static_cast<double>(merged.quantile(0.99))));
    cpu.push_back(ratio(cpu_us_per_slice[static_cast<std::size_t>(slice)],
                        static_cast<double>(ops)));
  }
  return SliceSummary{median(throughput), median(p50), median(p99),
                      median(cpu)};
}

/// Mean of a histogram, estimated from 200 evenly spaced quantiles (the
/// histogram keeps no running sum).
[[nodiscard]] inline double histogram_mean(
    const txc::core::LatencyHistogram& histogram) {
  double sum = 0.0;
  constexpr int kSteps = 200;
  for (int i = 0; i < kSteps; ++i) {
    sum += static_cast<double>(histogram.quantile((i + 0.5) / kSteps));
  }
  return sum / kSteps;
}

/// Timing plan of a run.  An untraced run measures `seconds` in one-second
/// slices.  A traced run splits the same window in two halves: the first
/// with recording off, the second with recording on, so the tracing
/// overhead is measured inside one process on one set-up.
struct Plan {
  double warmup_s = 0.5;
  int slices = 10;
  int traced_from = 10;  // first slice of the traced half (== slices: none)

  static Plan of(const Args& args) {
    Plan plan;
    plan.slices = std::max(2, static_cast<int>(args.seconds + 0.5));
    plan.traced_from = args.trace ? plan.slices / 2 : plan.slices;
    return plan;
  }
};

/// Start `threads` workers (each runs `worker(t)` once the window opens),
/// drive the window from the calling thread, and join.  Returns CPU
/// microseconds per slice.  `prepare(t)` runs on each worker before the
/// start barrier (per-thread allocations belong there, not in the window).
/// Worker t is pinned to cpu_for(t, busy); `busy` counts every busy thread
/// of the workload, including any the system under test runs itself.
template <typename Prepare, typename Worker>
std::vector<double> run_workers(Window& window, unsigned threads,
                                unsigned busy, Prepare&& prepare,
                                Worker&& worker,
                                const std::function<void(int)>& on_boundary) {
  std::atomic<unsigned> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t, busy] {
      const std::vector<int> cpu = cpu_for(t, busy);
      if (!cpu.empty()) pin_current_thread(cpu);
      prepare(t);
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      worker(t);
    });
  }
  while (ready.load(std::memory_order_acquire) < threads) {
    std::this_thread::yield();
  }
  window.open();
  go.store(true, std::memory_order_release);
  std::vector<double> cpu = window.control(on_boundary);
  for (auto& thread : pool) thread.join();
  return cpu;
}

/// Append the end-to-end metrics (untraced run) to `result`.
inline void add_end_to_end(Result& result, const SliceSummary& summary,
                           double setup_s) {
  result.metrics.push_back({"throughput_ops_s", summary.throughput_ops_s, "ops/s"});
  result.metrics.push_back({"latency_p50_us", summary.latency_p50_us, "us"});
  result.metrics.push_back({"latency_p99_us", summary.latency_p99_us, "us"});
  result.metrics.push_back({"cpu_us_per_op", summary.cpu_us_per_op, "us"});
  result.metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  result.metrics.push_back({"setup_s", setup_s, "s"});
}

}  // namespace perfbench
