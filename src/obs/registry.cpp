#include "obs/registry.hpp"

#include <algorithm>
#include <new>
#include <stdexcept>

namespace spinn::obs {

namespace detail {

std::size_t this_thread_shard() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t shard =
      next.fetch_add(1, std::memory_order_relaxed) % Counter::kShards;
  return shard;
}

}  // namespace detail

namespace {

using Snapshot = std::array<std::uint64_t, Histogram::kBuckets>;

/// Relaxed snapshot of the live buckets; returns their total.  The counts
/// keep moving under us, and interpolating over a fixed copy is what keeps
/// the answers internally consistent.
std::uint64_t take(
    const std::array<std::atomic<std::uint64_t>, Histogram::kBuckets>& counts,
    Snapshot& snap) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    snap[i] = counts[i].load(std::memory_order_relaxed);
    total += snap[i];
  }
  return total;
}

/// Linear interpolation inside the bucket holding rank p * total, over an
/// already-taken snapshot.
std::int64_t interpolate(const Snapshot& snap, std::uint64_t total,
                         double p) {
  if (total == 0) return 0;
  p = std::clamp(p, 0.0, 1.0);
  const double target = p * static_cast<double>(total);
  double seen = 0.0;
  for (std::size_t i = 0; i < snap.size(); ++i) {
    const double next = seen + static_cast<double>(snap[i]);
    if (next >= target && snap[i] > 0) {
      const double frac = (target - seen) / static_cast<double>(snap[i]);
      const auto lo = static_cast<double>(Histogram::bucket_lo(i));
      const auto hi = static_cast<double>(Histogram::bucket_lo(i + 1));
      return static_cast<std::int64_t>(lo + frac * (hi - lo));
    }
    seen = next;
  }
  return Histogram::kMax;
}

}  // namespace

std::uint64_t Histogram::count() const noexcept {
  std::uint64_t total = 0;
  for (const auto& c : counts_) total += c.load(std::memory_order_relaxed);
  return total;
}

std::int64_t Histogram::percentile(double p) const {
  Snapshot snap;
  const std::uint64_t total = take(counts_, snap);
  return interpolate(snap, total, p);
}

Histogram::Summary Histogram::summary() const {
  Snapshot snap;
  const std::uint64_t total = take(counts_, snap);
  return Summary{total, interpolate(snap, total, 0.50),
                 interpolate(snap, total, 0.95),
                 interpolate(snap, total, 0.99)};
}

namespace {

// Metric storage outlives its registry in a bounded spare list.  A
// standalone System builds and drops a registry with its engine, and
// carving and freeing a sharded engine's ~14 KiB of counters and
// histograms (too large for malloc's per-thread cache) per System
// measurably slowed the next System's construction.  Reuse re-zeroes: no
// metric value survives here.
template <typename T>
struct Spares {
  Mutex mu;
  std::vector<std::unique_ptr<T>> list SPINN_GUARDED_BY(mu);

  static Spares& get() {
    static auto* s = new Spares();  // leaked: registries may die at exit
    return *s;
  }
  std::unique_ptr<T> take() SPINN_EXCLUDES(mu) {
    MutexLock lk(&mu);
    if (list.empty()) return std::make_unique<T>();
    std::unique_ptr<T> m = std::move(list.back());
    list.pop_back();
    m->~T();
    new (m.get()) T();
    return m;
  }
  void give(std::unique_ptr<T> m) SPINN_EXCLUDES(mu) {
    MutexLock lk(&mu);
    if (m && list.size() < 64) list.push_back(std::move(m));
  }
};

}  // namespace

Registry::~Registry() {
  for (auto& [name, m] : metrics_) {
    Spares<Counter>::get().give(std::move(m.counter));
    Spares<Gauge>::get().give(std::move(m.gauge));
    Spares<Histogram>::get().give(std::move(m.histogram));
  }
}

template <typename T>
T& Registry::find_or_create(const std::string& name,
                            std::unique_ptr<T> Metric::*kind) {
  MutexLock lk(&mu_);
  auto [it, fresh] = metrics_.try_emplace(name);
  Metric& m = it->second;
  if (fresh) {
    m.*kind = Spares<T>::get().take();
    order_.push_back(&*it);
  } else if (!(m.*kind)) {
    throw std::logic_error("obs: metric '" + name +
                           "' is already registered as another kind");
  }
  return *(m.*kind);
}

Counter& Registry::counter(const std::string& name) {
  return find_or_create(name, &Metric::counter);
}

Gauge& Registry::gauge(const std::string& name) {
  return find_or_create(name, &Metric::gauge);
}

Histogram& Registry::histogram(const std::string& name) {
  return find_or_create(name, &Metric::histogram);
}

std::vector<std::pair<std::string, std::uint64_t>> Registry::rows() const {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  MutexLock lk(&mu_);
  out.reserve(4 * order_.size());
  for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
    const auto& [name, m] = **it;
    if (m.counter) out.emplace_back(name, m.counter->value());
    if (m.gauge) {
      out.emplace_back(name, static_cast<std::uint64_t>(m.gauge->value()));
    }
    if (m.histogram) {
      const Histogram::Summary s = m.histogram->summary();
      out.emplace_back(name + ".count", s.count);
      out.emplace_back(name + ".p50", static_cast<std::uint64_t>(s.p50));
      out.emplace_back(name + ".p95", static_cast<std::uint64_t>(s.p95));
      out.emplace_back(name + ".p99", static_cast<std::uint64_t>(s.p99));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace spinn::obs
