#include "replay.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <thread>
#include <unordered_map>

#include "map/placement.hpp"
#include "map/routing_gen.hpp"
#include "sim/sharded_simulator.hpp"

namespace perfbench {

using namespace spinn;

sim::EngineConfig serial_engine() { return sim::EngineConfig{}; }

sim::EngineConfig sharded_engine(std::size_t chips) {
  sim::EngineConfig ec;
  ec.kind = sim::EngineKind::Sharded;
  ec.shards = static_cast<std::uint32_t>(std::min<std::size_t>(8, chips));
  ec.threads = std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
  return ec;
}

Lifecycle run_lifecycle(const LifecycleInput& in, Spans& spans,
                        std::uint64_t trace) {
  Lifecycle out;
  const std::int64_t t_start = now_ns();
  const std::int64_t root = spans.add("lifecycle", trace, -1, t_start, t_start);
  std::int64_t t = t_start;
  // Close the current stage: record its span and return its duration.
  const auto stage = [&](const char* name) {
    const std::int64_t t1 = now_ns();
    spans.add(name, trace, root, t, t1);
    const auto ns = static_cast<double>(t1 - t);
    t = t1;
    return ns;
  };

  const neural::Network net =
      in.spec != nullptr ? server::build_network(*in.spec) : in.build();
  out.network_ns = stage("neural.build");
  System sys(in.config);
  out.system_ns = stage("core.system");
  if (in.split_load) {
    const map::PlacementResult placement =
        map::place(net, sys.machine(), in.config.mapper);
    out.place_ns = stage("map.place");
    map::generate_routing(net, placement, sys.machine().topology(),
                          in.config.mapper);
    out.route_ns = stage("map.route");
  }
  map::LoadReport report = sys.load(net);
  out.load_ns = stage("map.load");
  if (!report.ok) {
    out.error = "load failed: " + report.error;
    return out;
  }
  out.synapses = report.total_synapses;
  if (in.check_synapses &&
      !check_synapse_counts(net, report, sys, &out.error)) {
    return out;
  }

  std::unique_ptr<FaultController> faults;
  if (in.fault != nullptr) {
    faults = std::make_unique<FaultController>(sys, net, report.placement,
                                               in.config.mapper, sys.now(),
                                               in.fault_seed);
    faults->schedule(*in.fault);
  }
  const std::uint64_t events_before = sys.engine().executed();
  t = now_ns();  // the synapse gate and fault arming are not stages
  if (in.slice == 0) {
    sys.run(in.duration);
  } else {
    for (TimeNs done = 0; done < in.duration; done += in.slice) {
      sys.run(std::min(in.slice, in.duration - done));
      if (out.first_spike_ns == 0 && sys.spikes().count() > 0) {
        out.first_spike_ns = static_cast<double>(now_ns() - t_start);
      }
    }
  }
  out.run_ns = stage("sim.run");
  if (out.first_spike_ns == 0 && sys.spikes().count() > 0) {
    out.first_spike_ns = static_cast<double>(t - t_start);
  }
  out.spikes = sys.spikes().events();
  out.spike_count = out.spikes.size();
  out.drain_ns = stage("sim.drain");
  out.total_ns = static_cast<double>(t - t_start);
  spans.finish(root, t);

  out.events = sys.engine().executed() - events_before;
  if (const auto* sharded =
          dynamic_cast<const sim::ShardedSimulator*>(&sys.engine())) {
    out.windows = sharded->windows_opened();
  }
  out.fabric = sys.fabric_totals();
  if (faults) {
    out.faults = faults->totals();
    std::string reason;
    if (faults->take_failure(&reason)) {
      out.error = "fault replay failed: " + reason;
      return out;
    }
  }
  out.ok = true;
  return out;
}

bool check_synapse_counts(const neural::Network& net,
                          const map::LoadReport& report, const System& sys,
                          std::string* why) {
  const map::PlacementResult& placement = report.placement;
  std::unordered_map<RoutingKey, const map::Slice*> slice_by_key;
  for (const map::Slice& s : placement.slices) slice_by_key[s.key_base] = &s;

  // Synapses per (pre population, post population), counted from the rows
  // each target core actually holds.
  const std::size_t pops = net.populations().size();
  std::vector<std::uint64_t> counted(pops * pops, 0);
  for (neural::NeuronApp* app : sys.apps()) {
    const auto it = slice_by_key.find(app->config().key_base);
    if (it == slice_by_key.end()) continue;
    const neural::PopulationId post = it->second->pop;
    for (neural::PopulationId pre = 0; pre < pops; ++pre) {
      for (const std::size_t qi : placement.by_population[pre]) {
        const map::Slice& q = placement.slices[qi];
        for (std::uint32_t n = 0; n < q.num_neurons; ++n) {
          if (const neural::SynapticRow* row = app->rows().find(q.key_base + n)) {
            counted[pre * pops + post] += row->synapses.size();
          }
        }
      }
    }
  }

  std::vector<int> projections_per_pair(pops * pops, 0);
  for (const neural::Projection& p : net.projections()) {
    ++projections_per_pair[p.pre * pops + p.post];
  }
  for (const neural::Projection& p : net.projections()) {
    if (projections_per_pair[p.pre * pops + p.post] != 1) continue;
    const double pre = net.population(p.pre).size;
    const double post = net.population(p.post).size;
    double pairs = pre * post;
    if (p.pre == p.post && !p.connector.allow_self) pairs -= pre;
    const double got = static_cast<double>(counted[p.pre * pops + p.post]);
    double expect = pairs;
    double bound = 0.0;
    switch (p.connector.kind) {
      case neural::ConnectorKind::AllToAll:
        break;
      case neural::ConnectorKind::OneToOne:
        expect = std::min(pre, post);
        break;
      case neural::ConnectorKind::FixedProbability: {
        const double q = p.connector.probability;
        expect = q * pairs;
        bound = 6.0 * std::sqrt(pairs * q * (1.0 - q)) + 1.0;
        break;
      }
    }
    if (std::fabs(got - expect) > bound) {
      *why = "projection " + net.population(p.pre).name + "->" +
             net.population(p.post).name + " has " +
             std::to_string(static_cast<std::uint64_t>(got)) +
             " synapses, expected " + std::to_string(expect) + " +- " +
             std::to_string(bound);
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
