// Seeded input generation.  Everything a workload sends or builds derives
// from the command-line seed through the benchmark's own mixer (never the
// simulator's Rng), so a change to the program cannot change its inputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/fault_controller.hpp"
#include "core/system.hpp"
#include "server/spec.hpp"

namespace perfbench {

/// SplitMix64 finaliser over (seed, stream, index).
std::uint64_t mix(std::uint64_t seed, std::uint64_t stream, std::uint64_t i);

/// Biological time every wire session runs.
inline constexpr spinn::TimeNs kSessionBio = 10 * spinn::kMillisecond;

/// One session lifecycle as a client sends it, plus the spec the server
/// compiles it to (for in-process replays and reference runs).
struct WireSpec {
  spinn::server::SessionSpec spec;
  /// The whole-lifecycle batch frame: [net block] open, [fault], run,
  /// wait, drain, [status], close.
  std::string frame;
  bool faulted = false;
  spinn::FaultAction fault;  // valid when faulted
};

/// `count` built-in `chain` sessions with seeded session seeds.
std::vector<WireSpec> chain_specs(std::uint64_t seed, std::size_t count);

/// `count` client-described E/I nets of seeded size (128-512 neurons) with
/// fixed_probability projections on a 4x4 machine; every eighth also kills
/// a slice-hosting core at 5 ms.
std::vector<WireSpec> described_specs(std::uint64_t seed, std::size_t count);

/// The streaming probe's first frame for `spec`: `open ...` + `run $ 10`.
std::string open_run_frame(const WireSpec& spec);

/// The bulk network: 6k Poisson sources into 18k LIF neurons (sparse
/// fixed-probability fan-out plus recurrent excitation) on a 12x12 mesh
/// with 1 us link flight, machine seed derived from `seed`.
spinn::SystemConfig bulk_config(std::uint64_t seed,
                                const spinn::sim::EngineConfig& engine);
spinn::neural::Network bulk_network();

/// FNV-1a digest of every generated input for `workload` under `seed`, in
/// hex: equal seeds must give equal digests.
std::string input_digest(const std::string& workload, std::uint64_t seed);

}  // namespace perfbench
