// In-process lifecycles: build_network -> System -> [place -> route] ->
// load -> run -> drain, each stage timed from outside the program.  The
// bulk workload's operations are these; the wire workloads replay a seeded
// sample of their specs this way, on both engines, as correctness gates
// and to split a session's time into layers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/system.hpp"
#include "inputs.hpp"
#include "report.hpp"

namespace perfbench {

/// Wall time of each stage of one in-process lifecycle, in ns, plus what
/// the simulation did.
struct Lifecycle {
  bool ok = false;
  std::string error;

  double network_ns = 0;  // neural network construction (server::build_network)
  double system_ns = 0;   // System construction
  double place_ns = 0;    // map::place (traced runs only)
  double route_ns = 0;    // map::generate_routing (traced runs only)
  double load_ns = 0;     // System::load (includes its own place and route)
  double run_ns = 0;      // System::run
  double drain_ns = 0;    // spike stream copy-out
  double first_spike_ns = 0;  // lifecycle start -> first recorded spike
  double total_ns = 0;

  std::uint64_t synapses = 0;
  std::uint64_t spike_count = 0;
  std::uint64_t events = 0;   // run phase only
  std::uint64_t windows = 0;  // sharded engine only
  spinn::mesh::Machine::FabricTotals fabric;
  spinn::FaultTotals faults;
  std::vector<spinn::neural::SpikeRecorder::Event> spikes;
};

struct LifecycleInput {
  spinn::SystemConfig config;
  /// Built in the timed `network` stage.  Exactly one is used: `spec`
  /// compiles through server::build_network, otherwise `build` is called.
  const spinn::server::SessionSpec* spec = nullptr;
  spinn::neural::Network (*build)() = nullptr;
  const spinn::FaultAction* fault = nullptr;  // optional kill, replayed
  std::uint64_t fault_seed = 0;
  spinn::TimeNs duration = 0;
  /// Advance in slices of this length (0 = one call), watching for the
  /// first spike between slices as a streaming client would.
  spinn::TimeNs slice = 0;
  /// Time map::place and map::generate_routing separately before load.
  bool split_load = false;
  /// Apply check_synapse_counts after load (outside every timed stage).
  bool check_synapses = false;
};

/// Run one lifecycle; spans (when enabled) go under `trace`.
Lifecycle run_lifecycle(const LifecycleInput& in, Spans& spans,
                        std::uint64_t trace);

/// Engine configs the benchmark compares: the serial reference, and the
/// sharded engine with min(8, chips) shards on min(4, nproc) threads.
spinn::sim::EngineConfig serial_engine();
spinn::sim::EngineConfig sharded_engine(std::size_t chips);

/// Statistical gate on the loader: every fixed_probability projection's
/// synapse count lies within 6 standard deviations (+1) of p * pairs, and
/// deterministic connectors are exact.  Holds for any loader that draws
/// each pair independently with probability p, whatever order it consumes
/// random numbers in.  Checked on a freshly loaded System.
bool check_synapse_counts(const spinn::neural::Network& net,
                          const spinn::map::LoadReport& report,
                          const spinn::System& sys, std::string* why);

}  // namespace perfbench
