// bulk_network: e12's 24k-neuron network, in process, with no server or
// socket.  One operation builds, loads and runs 20 ms of biological time
// on the serial engine, then again on the sharded engine; the two spike
// streams must be bit-identical.
#include <algorithm>
#include <cstdio>

#include "workloads.hpp"

namespace perfbench {

using namespace spinn;

namespace {

constexpr TimeNs kBulkBio = 20 * kMillisecond;
constexpr std::size_t kBulkChips = 12 * 12;

bool same_stream(const std::vector<neural::SpikeRecorder::Event>& a,
                 const std::vector<neural::SpikeRecorder::Event>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].time != b[i].time || a[i].key != b[i].key) return false;
  }
  return true;
}

}  // namespace

void run_bulk(const Options& opt, Result& result) {
  Spans spans(opt.trace);
  EndToEnd e2e;

  // Set-up: everything a bulk lifecycle needs before its first load — the
  // network object and a System around each engine (the sharded one
  // starts its worker threads).
  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const std::int64_t t0 = now_ns();
    {
      const neural::Network net = bulk_network();
      System serial(bulk_config(opt.seed, serial_engine()));
      System sharded(bulk_config(opt.seed, sharded_engine(kBulkChips)));
    }
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  e2e.setup_s = median(setups);

  LifecycleInput serial_in;
  serial_in.config = bulk_config(opt.seed, serial_engine());
  serial_in.build = &bulk_network;
  serial_in.duration = kBulkBio;
  serial_in.slice = kMillisecond;
  serial_in.split_load = opt.trace;
  LifecycleInput sharded_in = serial_in;
  sharded_in.config = bulk_config(opt.seed, sharded_engine(kBulkChips));

  // A fixed number of operations, one per 7.5 s of --seconds (an operation
  // takes 8-10 s on a 4-core host), so every run takes its medians over the
  // same number of samples whatever the host's speed.
  const int ops = std::max(1, opt.seconds * 2 / 15);
  std::vector<Lifecycle> serial_runs;
  std::vector<Lifecycle> sharded_runs;
  std::uint64_t trace_id = 1;
  double busy_ns = 0;
  for (int op = 0; op < ops && result.failed == 0; ++op) {
    // The loader's statistical gate walks every row: first operation only,
    // outside the timed stages.
    serial_in.check_synapses = op == 0;
    Lifecycle s = run_lifecycle(serial_in, spans, trace_id++);
    Lifecycle h = run_lifecycle(sharded_in, spans, trace_id++);
    ++result.attempted;
    std::string why = !s.ok ? "serial: " + s.error
                      : !h.ok ? "sharded: " + h.error
                      : !same_stream(s.spikes, h.spikes)
                          ? "serial and sharded spike streams differ"
                          : "";
    if (s.ok && s.spikes.empty()) why = "no spikes in 20 ms";
    if (!why.empty()) {
      std::printf("bulk operation %llu failed: %s\n",
                  static_cast<unsigned long long>(result.attempted),
                  why.c_str());
      ++result.failed;
      continue;
    }
    busy_ns += s.total_ns + h.total_ns;
    s.spikes.clear();
    h.spikes.clear();
    serial_runs.push_back(std::move(s));
    sharded_runs.push_back(std::move(h));
  }

  if (serial_runs.empty()) {
    result.correct = false;
    return;
  }
  const auto wall = [](const Lifecycle& r) {
    return r.total_ns - r.place_ns - r.route_ns;  // minus the traced probes
  };
  std::vector<double> lat_ms, ttfs_ms, build, ev_serial, ev_sharded;
  for (const Lifecycle& r : serial_runs) {
    lat_ms.push_back(wall(r) / 1e6);
    ttfs_ms.push_back((r.first_spike_ns - r.place_ns - r.route_ns) / 1e6);
    build.push_back((r.system_ns + r.load_ns) / 1e9);
    ev_serial.push_back(static_cast<double>(r.events) / (r.run_ns / 1e9));
  }
  for (const Lifecycle& r : sharded_runs) {
    ev_sharded.push_back(static_cast<double>(r.events) / (r.run_ns / 1e9));
  }
  e2e.sessions_per_s =
      static_cast<double>(serial_runs.size() + sharded_runs.size()) /
      (busy_ns / 1e9);
  e2e.session_p50_ms = median(lat_ms);
  e2e.ttfs_p50_ms = median(ttfs_ms);
  e2e.build_s = median(build);
  e2e.events_per_s_serial = median(ev_serial);
  e2e.events_per_s_sharded = median(ev_sharded);

  std::printf("bulk_network: %zu operations (serial + sharded lifecycle each), "
              "20 ms bio on 12x12, %llu events, %zu spikes per run\n",
              serial_runs.size(),
              static_cast<unsigned long long>(serial_runs[0].events),
              static_cast<std::size_t>(serial_runs[0].spike_count));
  std::printf("  setup            %s s\n", describe(summarize(setups)).c_str());
  std::printf("  lifecycle        %s ms\n", describe(summarize(lat_ms)).c_str());
  std::printf("  first spike      %s ms\n", describe(summarize(ttfs_ms)).c_str());
  std::printf("  build (System+load) %s s\n", describe(summarize(build)).c_str());
  std::printf("  events/s serial  %s\n", describe(summarize(ev_serial)).c_str());
  std::printf("  events/s sharded %s\n", describe(summarize(ev_sharded)).c_str());

  if (!opt.trace) {
    e2e.emit(result);
    return;
  }

  Layers layers;
  const std::vector<Stage> stages =
      lifecycle_layers(serial_runs, sharded_runs, layers);
  layers.emit(result);

  const double lifecycle_ns = median(lat_ms) * 1e6;
  print_layer_table("bulk_network (serial engine)", lifecycle_ns / 1e3, stages,
                    "unaccounted");
  const auto stage_ns = [](const Lifecycle& r) {
    return r.system_ns + r.load_ns + r.run_ns;
  };
  std::printf("  System + place + route + synapse gen + run cover %.1f%% of "
              "the lifecycle (bar: >= 90%%); no net or server call was made\n",
              100.0 * median_of(serial_runs, stage_ns) / lifecycle_ns);
  if (!opt.spans_path.empty() && !spans.write(opt.spans_path)) {
    std::printf("could not write spans to %s\n", opt.spans_path.c_str());
  }
}

}  // namespace perfbench
