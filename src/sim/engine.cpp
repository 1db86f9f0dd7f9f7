#include "sim/engine.hpp"

#include "sim/sharded_simulator.hpp"

namespace spinn::sim {

std::unique_ptr<ISimulationEngine> make_engine(const EngineConfig& cfg,
                                               std::uint64_t seed,
                                               obs::Registry& metrics) {
  if (cfg.kind == EngineKind::Sharded) {
    return std::make_unique<ShardedSimulator>(seed, cfg.shards, cfg.threads,
                                              metrics);
  }
  return std::make_unique<SerialEngine>(seed);
}

}  // namespace spinn::sim
