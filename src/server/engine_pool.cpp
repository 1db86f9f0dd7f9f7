#include "server/engine_pool.hpp"

namespace spinn::server {

EnginePool::EnginePool(const EnginePoolConfig& cfg, obs::Registry& metrics)
    : cfg_(cfg),
      metrics_(metrics),
      created_(metrics.counter("server.engines.created")),
      reused_(metrics.counter("server.engines.reused")),
      idle_count_(metrics.gauge("server.engines.idle")) {}

EnginePool::Lease EnginePool::acquire(const sim::EngineConfig& cfg) {
  std::unique_ptr<sim::ISimulationEngine> engine;
  {
    MutexLock lk(&mu_);
    for (std::size_t i = 0; i < idle_.size(); ++i) {
      if (same_request(idle_[i].cfg, cfg)) {
        engine = std::move(idle_[i].engine);
        idle_.erase(idle_.begin() + static_cast<std::ptrdiff_t>(i));
        idle_count_.set(static_cast<std::int64_t>(idle_.size()));
        reused_.inc();
        break;
      }
    }
    if (!engine) created_.inc();
  }
  // The borrower reseeds (see header); the construction seed is a placeholder.
  if (!engine) engine = sim::make_engine(cfg, 1, metrics_);
  return Lease(this, cfg, std::move(engine));
}

void EnginePool::give_back(const sim::EngineConfig& cfg,
                           std::unique_ptr<sim::ISimulationEngine> engine) {
  {
    MutexLock lk(&mu_);
    if (idle_.size() >= cfg_.max_idle) return;  // over capacity: destroyed
  }
  // Worth pooling: drop the dead session's queued closures and hooks now —
  // they may capture pointers into a machine being destroyed, and an idle
  // engine should not pin a whole scenario's memory.  (Destruction alone
  // releases them too, which is why the over-capacity path skips this.)
  engine->reset(0);
  MutexLock lk(&mu_);
  // Concurrent returns may briefly overshoot max_idle by the number of
  // racing give_backs; acquire() drains it back down.
  idle_.push_back(Idle{cfg, std::move(engine)});
  idle_count_.set(static_cast<std::int64_t>(idle_.size()));
}

EnginePool::Stats EnginePool::stats() const {
  return Stats{created_.value(), reused_.value(),
               static_cast<std::size_t>(idle_count_.value())};
}

}  // namespace spinn::server
