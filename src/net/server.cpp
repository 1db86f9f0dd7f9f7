#include "net/server.hpp"

#include <stdexcept>
#include <string>
#include <thread>

#include "net/reactor.hpp"

namespace spinn::net {

namespace {

std::size_t resolve_reactor_count(const NetConfig& cfg) {
  if (cfg.reactors != 0) return cfg.reactors;
  if (cfg.reactor_drives) return 1;
  const std::size_t hw = std::thread::hardware_concurrency();
  const std::size_t cap = hw == 0 ? 1 : hw;
  return cap < 4 ? cap : 4;
}

}  // namespace

NetServer::Metrics::Metrics(obs::Registry& r)
    : accepted(r.counter("net.accepted")),
      refused(r.counter("net.refused")),
      shed_slow(r.counter("net.shed_slow")),
      shed_flood(r.counter("net.shed_flood")),
      bytes_in(r.counter("net.bytes_in")),
      frames_in(r.counter("net.frames_in")),
      batches(r.counter("net.batches")),
      bytes_out(r.counter("net.bytes_out")),
      faults(r.counter("net.faults")),
      frames_out(r.counter("net.frames_out")),
      connections(r.gauge("net.connections")),
      reactors(r.gauge("net.reactors")),
      request_ns(r.histogram("net.request_ns")) {}

NetServer::NetServer(const NetConfig& cfg)
    : cfg_(cfg), sessions_(cfg.session), metrics_(sessions_.registry()) {
  std::string error;
  listener_ = listen_loopback(cfg_.port, &port_, &error);
  if (!listener_) {
    throw std::runtime_error("net: cannot listen on 127.0.0.1:" +
                             std::to_string(cfg_.port) + " (" + error + ")");
  }
  const std::size_t n = resolve_reactor_count(cfg_);
  if (cfg_.reactor_drives && n != 1) {
    throw std::runtime_error(
        "net: reactor_drives requires exactly one reactor (got reactors=" +
        std::to_string(n) +
        "); the drive loop assumes it is the only thread pumping the "
        "session scheduler");
  }
  // Construct every reactor (epoll set + wakeup pipe, throws on fd
  // exhaustion) before starting any thread: a failed sibling must not
  // leak a running loop, and ~NetServer never runs on a half-built object.
  reactors_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    reactors_.push_back(std::make_unique<Reactor>(*this, i));
  }
  metrics_.reactors.set(static_cast<std::int64_t>(n));
  if (cfg_.reactor_drives) {
    // Embedded submissions must wake the (single) reactor's epoll wait;
    // the hook's shared Wakeup keeps the signal safe through any
    // destruction order.
    sessions_.set_work_signal(reactors_[0]->wake_fn());
  }
  for (auto& r : reactors_) r->start();
}

NetServer::~NetServer() { stop(); }

void NetServer::stop() {
  stopping_.store(true, std::memory_order_release);
  for (auto& r : reactors_) r->notify();
  // Serialise the joins: concurrent stop() calls must not both join the
  // same std::thread (UB); the loser waits for the winner's joins instead.
  MutexLock lk(&stop_mu_);
  for (auto& r : reactors_) r->join();
}

NetStats NetServer::stats() const {
  // A braced list is read in field order: frames before bytes (see Metrics).
  const Metrics& m = metrics_;
  return NetStats{m.accepted.value(),  m.refused.value(),
                  m.shed_slow.value(), m.shed_flood.value(),
                  m.frames_in.value(), m.frames_out.value(),
                  m.batches.value(),   m.faults.value(),
                  m.bytes_in.value(),  m.bytes_out.value(),
                  static_cast<std::size_t>(m.connections.value()),
                  static_cast<std::size_t>(m.reactors.value())};
}

}  // namespace spinn::net
