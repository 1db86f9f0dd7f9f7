#include <algorithm>
#include <cstdio>

#include "workloads.hpp"

namespace perfbench {

const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"net.frames", "count"},
      {"net.ping_rtt_us", "us"},
      {"net.parse_us", "us"},
      {"net.request_bytes", "bytes"},
      {"net.response_bytes", "bytes"},
      {"server.calls", "count"},
      {"server.open_us", "us"},
      {"server.run_us", "us"},
      {"server.wait_us", "us"},
      {"server.drain_us", "us"},
      {"server.close_us", "us"},
      {"server.ttfs_us", "us"},
      {"server.scrape_ttfs_p50_us", "us"},
      {"server.engine_reuse_frac", "frac"},
      {"server.rejected", "count"},
      {"neural.build_us", "us"},
      {"core.system_us", "us"},
      {"map.place_us", "us"},
      {"map.route_us", "us"},
      {"map.load_us", "us"},
      {"map.synapse_gen_us", "us"},
      {"map.synapses", "count"},
      {"map.ns_per_synapse", "ns"},
      {"sim.run_us", "us"},
      {"sim.events", "count"},
      {"sim.ns_per_event_serial", "ns"},
      {"sim.ns_per_event_sharded", "ns"},
      {"sim.windows", "count"},
      {"sim.events_per_window", "count"},
      {"sim.spikes", "count"},
      {"fault.kills", "count"},
      {"fault.migrations", "count"},
      {"fault.recovery_us", "us"},
      {"fault.spikes_lost", "count"},
      {"fault.spikes_lost_per_kill", "count"},
      {"fabric.received", "count"},
      {"fabric.forwarded", "count"},
      {"fabric.dropped", "count"},
  };
  return kMetrics;
}

void EndToEnd::emit(Result& result) const {
  result.add("setup_s", setup_s, "s");
  result.add("sessions_per_s", sessions_per_s, "1/s");
  result.add("session_p50_ms", session_p50_ms, "ms");
  result.add("ttfs_p50_ms", ttfs_p50_ms, "ms");
  result.add("build_s", build_s, "s");
  result.add("events_per_s_serial", events_per_s_serial, "1/s");
  result.add("events_per_s_sharded", events_per_s_sharded, "1/s");
}

void Layers::set(const std::string& name, double value) {
  for (auto& [n, v] : values_) {
    if (n == name) {
      v = value;
      return;
    }
  }
  values_.emplace_back(name, value);
}

void Layers::emit(Result& result) const {
  for (const auto& [name, unit] : layer_metrics()) {
    double value = 0.0;
    for (const auto& [n, v] : values_) {
      if (n == name) value = v;
    }
    result.add(name, value, unit);
  }
  for (const auto& [n, v] : values_) {
    const auto& known = layer_metrics();
    if (std::none_of(known.begin(), known.end(),
                     [&](const auto& m) { return m.first == n; })) {
      std::fprintf(stderr, "perfbench: unlisted layer metric '%s'\n",
                   n.c_str());
      result.correct = false;
    }
  }
}

double print_layer_table(const std::string& title, double e2e_us,
                         const std::vector<Stage>& stages,
                         const std::string& remainder_name) {
  std::printf("\nlayer table: %s (p50 per lifecycle)\n", title.c_str());
  std::printf("  %-26s %12s %8s\n", "stage", "us", "share");
  double accounted = 0.0;
  for (const Stage& s : stages) {
    const std::string label =
        (s.nested ? "  " : "") + s.name + (s.derived ? " (derived)" : "");
    std::printf("  %-26s %12.2f %7.1f%%\n", label.c_str(), s.us,
                e2e_us > 0 ? 100.0 * s.us / e2e_us : 0.0);
    if (!s.nested) accounted += s.us;
  }
  const double rest = e2e_us - accounted;
  std::printf("  %-26s %12.2f %7.1f%%\n", remainder_name.c_str(), rest,
              e2e_us > 0 ? 100.0 * rest / e2e_us : 0.0);
  std::printf("  %-26s %12.2f %7.1f%%\n", "end-to-end", e2e_us, 100.0);
  return e2e_us > 0 ? accounted / e2e_us : 0.0;
}

double median_of(const std::vector<Lifecycle>& runs,
                 double (*field)(const Lifecycle&)) {
  std::vector<double> v;
  v.reserve(runs.size());
  for (const Lifecycle& r : runs) v.push_back(field(r));
  return median(v);
}

std::vector<Stage> lifecycle_layers(const std::vector<Lifecycle>& serial,
                                    const std::vector<Lifecycle>& sharded,
                                    Layers& layers) {
  using L = const Lifecycle&;
  const double network = median_of(serial, [](L r) { return r.network_ns; });
  const double system = median_of(serial, [](L r) { return r.system_ns; });
  const double place = median_of(serial, [](L r) { return r.place_ns; });
  const double route = median_of(serial, [](L r) { return r.route_ns; });
  const double load = median_of(serial, [](L r) { return r.load_ns; });
  const double run = median_of(serial, [](L r) { return r.run_ns; });
  const double drain = median_of(serial, [](L r) { return r.drain_ns; });
  const double synapses =
      median_of(serial, [](L r) { return static_cast<double>(r.synapses); });
  const double windows =
      median_of(sharded, [](L r) { return static_cast<double>(r.windows); });
  const double sharded_events =
      median_of(sharded, [](L r) { return static_cast<double>(r.events); });
  const auto per_event = [](L r) {
    return r.events > 0 ? r.run_ns / static_cast<double>(r.events) : 0.0;
  };

  layers.set("neural.build_us", network / 1e3);
  layers.set("core.system_us", system / 1e3);
  layers.set("map.place_us", place / 1e3);
  layers.set("map.route_us", route / 1e3);
  layers.set("map.load_us", load / 1e3);
  layers.set("map.synapse_gen_us", (load - place - route) / 1e3);
  layers.set("map.synapses", synapses);
  layers.set("map.ns_per_synapse", synapses > 0 ? load / synapses : 0.0);
  layers.set("sim.run_us", run / 1e3);
  layers.set("sim.events",
             median_of(serial, [](L r) { return static_cast<double>(r.events); }));
  layers.set("sim.ns_per_event_serial", median_of(serial, per_event));
  layers.set("sim.ns_per_event_sharded", median_of(sharded, per_event));
  layers.set("sim.windows", windows);
  layers.set("sim.events_per_window", windows > 0 ? sharded_events / windows : 0.0);
  layers.set("sim.spikes", median_of(serial, [](L r) {
               return static_cast<double>(r.spike_count);
             }));
  layers.set("fabric.received", median_of(serial, [](L r) {
               return static_cast<double>(r.fabric.received);
             }));
  layers.set("fabric.forwarded", median_of(serial, [](L r) {
               return static_cast<double>(r.fabric.forwarded);
             }));
  layers.set("fabric.dropped", median_of(serial, [](L r) {
               return static_cast<double>(r.fabric.dropped);
             }));
  return {
      {"neural.build", network / 1e3},
      {"core.system", system / 1e3},
      {"map.load", load / 1e3},
      {"map.place", place / 1e3, false, true},
      {"map.route", route / 1e3, false, true},
      {"map.synapse_gen", (load - place - route) / 1e3, true, true},
      {"sim.run", run / 1e3},
      {"sim.drain", drain / 1e3},
  };
}

}  // namespace perfbench
