// perfbench — one workload per process.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--trace-out DIR]
//
// Progress and audit messages go to stderr; the last line of stdout is one
// JSON object {"correct", "attempted", "failed", "metrics"}.  Exit code 0
// iff every audit passed and no operation failed.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "{kv-service-zipf|bank-hot-tl2|txqueue-alloc-norec}"
               " --seed N --seconds S --trace 0|1 [--trace-out DIR]\n",
               why);
  std::exit(2);
}

std::uint64_t parse_u64(const char* text, const char* flag) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (*text == '\0' || *text == '-' || *end != '\0') {
    usage((std::string{flag} + " needs a non-negative integer").c_str());
  }
  return value;
}

perfbench::Args parse(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage((flag + " needs a value").c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = parse_u64(value, "--seed");
    } else if (flag == "--seconds") {
      args.seconds = static_cast<double>(parse_u64(value, "--seconds"));
      if (args.seconds < 2) usage("--seconds must be at least 2");
    } else if (flag == "--trace") {
      const std::uint64_t trace = parse_u64(value, "--trace");
      if (trace > 1) usage("--trace is 0 or 1");
      args.trace = trace == 1;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Args args = parse(argc, argv);
  // Serve every block of 1 MiB or more straight from mmap, and return it on
  // free.  glibc otherwise raises its mmap threshold after the first large
  // free, so later set-up repetitions would reuse the first one's warm
  // pages: set-up time would then depend on where that heap landed in the
  // cache rather than on the work a fresh process does to build the system.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  perfbench::Result result;
  try {
    if (args.workload == "kv-service-zipf") {
      result = perfbench::run_kv_service(args);
    } else if (args.workload == "bank-hot-tl2") {
      result = perfbench::run_bank(args);
    } else if (args.workload == "txqueue-alloc-norec") {
      result = perfbench::run_txqueue(args);
    } else {
      usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
  std::fflush(stderr);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              result.correct() ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& metric = result.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("}}\n");
  return result.correct() ? 0 : 1;
}
