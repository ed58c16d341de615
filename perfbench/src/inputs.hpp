// perfbench — seeded input generation.
//
// Every workload's inputs are a pure function of the run seed: the same seed
// gives the same op streams, byte for byte (tests/test_inputs.cpp asserts
// it).  Streams are generated before any set-up timing starts, and the
// program under test only ever sees the generated values.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/rng.hpp"
#include "workload/zipf.hpp"

namespace perfbench::inputs {

/// Independent, reproducible sub-seed for stream `stream` of run `seed`.
[[nodiscard]] inline std::uint64_t stream_seed(std::uint64_t seed,
                                               std::uint64_t stream) noexcept {
  std::uint64_t state = seed ^ (0x9E3779B97F4A7C15ULL * (stream + 1));
  return txc::sim::splitmix64(state);
}

// -- kv-service-zipf ---------------------------------------------------------

/// Key universe: 2^20 keys, all prefilled before the run.
inline constexpr std::uint32_t kKvKeyBits = 20;
inline constexpr std::uint32_t kKvKeys = std::uint32_t{1} << kKvKeyBits;
inline constexpr double kKvZipfExponent = 0.99;
inline constexpr double kKvRmwShare = 0.10;

struct KvOp {
  std::uint32_t key = 0;  // nonzero
  std::uint8_t rmw = 0;   // 1: rmw_add(key, delta); 0: get(key)
  std::uint8_t delta = 0;
  friend bool operator==(const KvOp&, const KvOp&) = default;
};

/// Zipf rank -> key.  Multiplying by an odd constant is a bijection on
/// [0, 2^20), so hot ranks scatter over the whole key space (and both
/// shards) instead of clustering at small keys.
[[nodiscard]] inline std::uint32_t kv_key_of_rank(std::uint32_t rank) noexcept {
  return ((rank * 0x9E3779B1u) & (kKvKeys - 1)) + 1;
}

/// The value every key holds after prefill: small, so committed rmw deltas
/// never wrap a 32-bit value within one run.
[[nodiscard]] inline std::uint32_t kv_prefill_value(std::uint32_t key) noexcept {
  return (key * 2654435761u) >> 22;  // [0, 1024)
}

[[nodiscard]] inline std::vector<KvOp> kv_ops(std::uint64_t seed,
                                              std::size_t count) {
  txc::sim::Rng rng{stream_seed(seed, 0)};
  const txc::workload::ZipfSampler zipf{kKvKeys, kKvZipfExponent};
  std::vector<KvOp> ops(count);
  for (KvOp& op : ops) {
    op.key = kv_key_of_rank(zipf.sample(rng));
    op.rmw = rng.bernoulli(kKvRmwShare) ? 1 : 0;
    op.delta = op.rmw ? static_cast<std::uint8_t>(rng.uniform_int(1, 9)) : 0;
  }
  return ops;
}

// -- bank-hot-tl2 ------------------------------------------------------------

inline constexpr std::uint32_t kBankAccounts = 64;
inline constexpr std::uint64_t kBankInitialBalance = 1000;

struct Transfer {
  std::uint8_t from = 0;
  std::uint8_t to = 0;  // != from
  std::uint16_t amount = 0;
  friend bool operator==(const Transfer&, const Transfer&) = default;
};

[[nodiscard]] inline std::vector<Transfer> bank_ops(std::uint64_t seed,
                                                    unsigned thread,
                                                    std::size_t count) {
  txc::sim::Rng rng{stream_seed(seed, 100 + thread)};
  std::vector<Transfer> ops(count);
  for (Transfer& op : ops) {
    op.from = static_cast<std::uint8_t>(rng.uniform_int(0, kBankAccounts - 1));
    // Draw `to` from the other 63 accounts: distinct by construction.
    const auto offset = rng.uniform_int(1, kBankAccounts - 1);
    op.to = static_cast<std::uint8_t>((op.from + offset) % kBankAccounts);
    op.amount = static_cast<std::uint16_t>(rng.uniform_int(1, 100));
  }
  return ops;
}

// -- txqueue-alloc-norec -----------------------------------------------------

/// Each thread alternates bursts: enqueue b values, then dequeue b values,
/// with b drawn from [1, kTxQueueMaxBurst].  A thread's own enqueues always
/// precede its dequeues, so a dequeue never finds the queue empty.
inline constexpr std::uint32_t kTxQueueMaxBurst = 4;

[[nodiscard]] inline std::vector<std::uint8_t> txqueue_bursts(
    std::uint64_t seed, unsigned thread, std::size_t count) {
  txc::sim::Rng rng{stream_seed(seed, 200 + thread)};
  std::vector<std::uint8_t> bursts(count);
  for (auto& burst : bursts) {
    burst = static_cast<std::uint8_t>(rng.uniform_int(1, kTxQueueMaxBurst));
  }
  return bursts;
}

// -- simulated HTM queue (traced txqueue runs) -------------------------------

/// Simulations per traced txqueue run: htm_seed(seed, k) for k < 64, so the
/// htm.* counts sum 64 conflict histories instead of hinging on one.
inline constexpr std::uint32_t kHtmSimSeeds = 64;

/// The simulator's own RNG seed for simulation `index` of run `seed`.
[[nodiscard]] inline std::uint64_t htm_seed(std::uint64_t seed,
                                            std::uint32_t index) noexcept {
  return stream_seed(seed, 300 + index) | 1;
}

}  // namespace perfbench::inputs
