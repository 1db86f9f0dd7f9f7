#include "inputs.hpp"

#include <cstdio>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "map/placement.hpp"
#include "net/client.hpp"

namespace perfbench {

using namespace spinn;

std::uint64_t mix(std::uint64_t seed, std::uint64_t stream, std::uint64_t i) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream * 0xbf58476d1ce4e5b9ull +
                    i * 0x94d049bb133111ebull + 0x2545f4914f6cdd1dull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

namespace {

/// Uniform double in [lo, hi) from one mixed word.
double unit_range(std::uint64_t word, double lo, double hi) {
  return lo + (hi - lo) * static_cast<double>(word >> 11) * 0x1.0p-53;
}

/// Apply every key=value token of an `open` line to a spec through the
/// server's own parser, so replays compile exactly what the wire sends.
void apply_open_line(const std::string& line, server::SessionSpec* spec) {
  std::istringstream in(line);
  std::string token;
  in >> token;  // "open"
  while (in >> token) {
    const auto eq = token.find('=');
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "app" && value == "@") continue;  // the batch's net block
    std::string error;
    if (!server::apply_kv(*spec, key, value, &error)) {
      throw std::logic_error("generated open line rejected: " + error);
    }
  }
}

std::string run_line() {
  return "run $ " + std::to_string(kSessionBio / kMillisecond);
}

/// Lines of `frame` up to and including the `open` line.
std::string lines_through_open(const std::string& frame) {
  const auto open = frame.find("open ");
  const auto eol = frame.find('\n', open);
  return frame.substr(0, eol);
}

}  // namespace

std::vector<WireSpec> chain_specs(std::uint64_t seed, std::size_t count) {
  std::vector<WireSpec> out(count);
  for (std::size_t i = 0; i < count; ++i) {
    WireSpec& w = out[i];
    const std::string open =
        "open app=chain seed=" + std::to_string(mix(seed, 1, i) % 1'000'000'000);
    apply_open_line(open, &w.spec);
    w.frame = open + "\n" + run_line() + "\nwait $\ndrain $\nclose $";
  }
  return out;
}

std::vector<WireSpec> described_specs(std::uint64_t seed, std::size_t count) {
  std::vector<WireSpec> out(count);
  for (std::size_t i = 0; i < count; ++i) {
    WireSpec& w = out[i];
    const auto draw = [&](std::uint64_t k) { return mix(seed, 2, i * 16 + k); };
    // Sizes and probabilities are stratified: spec i draws from its own
    // stratum of each range (the seed picks the point inside the stratum
    // and which strata pair up), so every seed sends the same mix of small
    // and large nets and a run's medians do not depend on a lucky draw.
    // The salts are odd, so for the power-of-two counts used here each
    // i -> stratum map is a permutation.
    const auto stratum = [&](std::uint64_t salt, std::uint64_t k, double lo,
                             double hi) {
      const std::uint64_t s = (i * salt + mix(seed, 4, k)) % count;
      const double width = (hi - lo) / static_cast<double>(count);
      return lo + width * (static_cast<double>(s) +
                           unit_range(draw(k), 0.0, 1.0));
    };
    // Total neurons in [128, 512]: a quarter Poisson drive, the rest an
    // 80/20 excitatory/inhibitory LIF pair.
    const auto total = static_cast<std::uint32_t>(stratum(1, 0, 128.0, 513.0));
    const std::uint32_t bg = total / 4;
    const std::uint32_t exc = (total - bg) * 4 / 5;
    const std::uint32_t inh = total - bg - exc;
    const double p_in = stratum(37, 1, 0.10, 0.20);
    const double p_rec = stratum(23, 2, 0.10, 0.20);
    const double rate = stratum(11, 3, 20.0, 40.0);

    // A two-neuron stimulus guarantees every session a spike stream (and
    // the streaming client a first spike) while the weakly driven LIF pair
    // stays mostly quiet: the session's compute is the loader's, as the
    // workload intends.
    net::NetBuilder b;
    b.spike_source("stim", {{1}, {2}});
    b.poisson("bg", bg, rate);
    b.lif("exc", exc);
    b.lif("inh", inh);
    const auto prob = neural::Connector::fixed_probability;
    const auto u = neural::ValueDist::uniform;
    const auto fixed = neural::ValueDist::fixed;
    b.project("stim", "exc", prob(p_in), u(2.0, 6.0), fixed(1.0));
    b.project("bg", "exc", prob(p_in), u(1.5, 5.0), fixed(1.0));
    b.project("bg", "inh", prob(p_in), u(1.5, 5.0), fixed(1.0));
    b.project("exc", "exc", prob(p_rec), u(0.5, 2.0), u(1.0, 4.0));
    b.project("exc", "inh", prob(p_rec), u(0.5, 2.0), fixed(1.0));
    b.project("inh", "exc", prob(p_rec), u(2.0, 4.0), fixed(1.0), true);
    b.project("inh", "inh", prob(p_rec), u(2.0, 4.0), fixed(1.0), true);

    const std::string open = "open app=@ seed=" +
                             std::to_string(draw(4) % 1'000'000'000) +
                             " width=4 height=4";
    w.spec.net = std::make_shared<const neural::NetworkDescription>(
        b.description());
    apply_open_line(open, &w.spec);

    std::string frame;
    for (const std::string& line : b.lines()) frame += line + "\n";
    frame += open + "\n";
    w.faulted = i % 8 == 7;
    if (w.faulted) {
      // Victim: a seeded slice of the load-time placement, so the kill
      // always takes down a core that hosts neurons.
      const SystemConfig cfg = server::system_config(w.spec);
      System sys(cfg);
      const neural::Network net = server::build_network(w.spec);
      const map::PlacementResult placement =
          map::place(net, sys.machine(), cfg.mapper);
      const map::Slice& victim =
          placement.slices[draw(5) % placement.slices.size()];
      w.fault.kind = FaultAction::Kind::KillCore;
      w.fault.at = 5 * kMillisecond;
      w.fault.chip = victim.core.chip;
      w.fault.core = victim.core.core;
      frame += "fault $ kill core=" + std::to_string(victim.core.chip.x) +
               "," + std::to_string(victim.core.chip.y) + "," +
               std::to_string(victim.core.core) + " at=5\n";
    }
    frame += run_line() + "\nwait $\ndrain $\n";
    if (w.faulted) frame += "status $\n";
    frame += "close $";
    w.frame = frame;
  }
  return out;
}

std::string open_run_frame(const WireSpec& spec) {
  return lines_through_open(spec.frame) + "\n" + run_line();
}

SystemConfig bulk_config(std::uint64_t seed, const sim::EngineConfig& engine) {
  SystemConfig cfg;
  cfg.machine.width = 12;
  cfg.machine.height = 12;
  cfg.machine.chip.num_cores = 4;
  cfg.machine.seed = mix(seed, 3, 0);
  // Board-level link latency: the sharded engine's conservative window.
  cfg.machine.chip.router.port.flight_ns = 1000;
  cfg.mapper.neurons_per_core = 256;
  cfg.engine = engine;
  return cfg;
}

neural::Network bulk_network() {
  neural::Network net;
  const auto noise = net.add_poisson("noise", 6000, 30.0);
  const auto exc = net.add_lif("exc", 18000);
  net.connect(noise, exc, neural::Connector::fixed_probability(0.0045),
              neural::ValueDist::uniform(4.0, 8.0),
              neural::ValueDist::fixed(1.0));
  net.connect(exc, exc, neural::Connector::fixed_probability(0.0005),
              neural::ValueDist::fixed(2.0), neural::ValueDist::fixed(1.0));
  return net;
}

std::string input_digest(const std::string& workload, std::uint64_t seed) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto feed = [&h](const std::string& s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ull;
    }
  };
  if (workload == "bulk_network") {
    feed(std::to_string(bulk_config(seed, sim::EngineConfig{}).machine.seed));
    const neural::Network net = bulk_network();
    for (const auto& p : net.populations()) {
      feed(p.name + ":" + std::to_string(p.size));
    }
  } else {
    const auto specs = workload == "chain_sessions" ? chain_specs(seed, 64)
                                                    : described_specs(seed, 16);
    for (const WireSpec& w : specs) feed(w.frame);
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace perfbench
