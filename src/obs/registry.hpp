// obs::Registry — a server's one metrics namespace (docs/OBSERVABILITY.md).
//
// Every count, level and latency the serving stack keeps is a Counter
// (monotone u64, striped over cache-line-padded slots; release inc,
// acquire sum), a Gauge (i64 level) or a Histogram (one fixed log-linear
// layout for every latency).  Each SessionServer owns one registry, and
// everything that reports receives it once, at construction.
// Registration (find-or-create by name) takes the registry mutex; the
// update paths — inc/set/add/observe — take no lock and allocate nothing
// (tools/lint_invariants.py `obs-hot-path` checks every `// obs:hot` body
// here).  Entries are never removed, so their references never dangle.
//
// rows() reads metrics in reverse registration order: if A (registered
// first) is incremented before B, a scrape that sees a B increment also
// sees the A increment before it — the transport's bytes-before-frames
// protocol.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_annotations.hpp"

namespace spinn::obs {

namespace detail {
/// The calling thread's counter shard.  Assigned round-robin on first use
/// (one relaxed fetch_add per thread, ever): no lock, no allocation.
std::size_t this_thread_shard() noexcept;
}  // namespace detail

/// Monotone counter, sharded to keep concurrent increments off each
/// other's cache lines.
class Counter {
 public:
  static constexpr std::size_t kShards = 16;

  // obs:hot — metric-increment path: no locks, no allocation.  Release, so
  // an acquire value() that sees it sees the writer's earlier writes too.
  void inc(std::uint64_t by = 1) noexcept {
    shards_[detail::this_thread_shard()].v.fetch_add(
        by, std::memory_order_release);
  }

  /// Scrape-time sum over the shards.  Each shard is individually monotone,
  /// so successive scrapes never go backwards.
  std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const Slot& s : shards_) {
      total += s.v.load(std::memory_order_acquire);
    }
    return total;
  }

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> v{0};
  };
  Slot shards_[kShards];
};

/// A level (queue depth, occupancy, live connections).
class Gauge {
 public:
  // obs:hot — metric-update path: no locks, no allocation.
  void set(std::int64_t v) noexcept {
    v_.store(v, std::memory_order_relaxed);
  }
  // obs:hot — metric-update path: no locks, no allocation.
  void add(std::int64_t delta) noexcept {
    v_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Latency histogram (ns) over one fixed log-linear layout, HdrHistogram
/// style: buckets 0..15 hold the exact values 0..15, then each power of two
/// [2^k, 2^(k+1)) splits into 16 sub-buckets of width 2^(k-4), up to 2^36
/// (~69 s).  528 buckets; none is wider than 1/16 of its lower edge, so an
/// interpolated percentile is within 6.25 % of the sample it estimates.
/// Negative samples clamp to bucket 0 and samples >= 2^36 to the last one:
/// nothing is dropped, and percentile() saturates at kMax.
class Histogram {
 public:
  static constexpr int kSubBits = 4;  // 16 sub-buckets per power of two
  static constexpr int kMaxBits = 36;
  static constexpr std::int64_t kMax = std::int64_t{1} << kMaxBits;
  static constexpr std::size_t kBuckets =
      std::size_t{kMaxBits - kSubBits + 1} << kSubBits;

  /// Bucket of `x`: a bit scan and a shift, no divide.
  static constexpr std::size_t bucket(std::int64_t x) noexcept {
    const std::uint64_t u = x <= 0 ? 0
                            : x >= kMax
                                ? static_cast<std::uint64_t>(kMax - 1)
                                : static_cast<std::uint64_t>(x);
    // Keep the top kSubBits+1 bits: their low bits pick the sub-bucket,
    // the shift picks the power of two (values below 32 shift by 0).
    const int shift =
        std::bit_width(u | (std::uint64_t{1} << kSubBits)) - (kSubBits + 1);
    return (static_cast<std::size_t>(shift) << kSubBits) +
           static_cast<std::size_t>(u >> shift);
  }

  /// Lowest value that lands in bucket `i` (bucket(bucket_lo(i)) == i);
  /// the bucket spans [bucket_lo(i), bucket_lo(i + 1)).
  static constexpr std::int64_t bucket_lo(std::size_t i) noexcept {
    const std::size_t shift = i < (2u << kSubBits) ? 0 : (i >> kSubBits) - 1;
    return static_cast<std::int64_t>(i - (shift << kSubBits)) << shift;
  }

  // obs:hot — metric-increment path: no locks, no allocation.
  void observe(std::int64_t x) noexcept {
    counts_[bucket(x)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(static_cast<std::uint64_t>(x < 0 ? 0 : x),
                   std::memory_order_relaxed);
  }

  /// Samples observed so far (the bucket total: monotone across calls).
  std::uint64_t count() const noexcept;
  /// Sum of the samples, negatives counted as 0.
  std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }

  /// Percentile (p in [0, 1]) of everything observed so far, interpolated
  /// linearly inside the bucket holding rank p * count and rounded down to
  /// integer units; 0 when empty.
  std::int64_t percentile(double p) const;

  /// count plus p50/p95/p99 from *one* bucket snapshot, so the three
  /// agree about which events they saw (the scrape path).
  struct Summary {
    std::uint64_t count = 0;
    std::int64_t p50 = 0;
    std::int64_t p95 = 0;
    std::int64_t p99 = 0;
  };
  Summary summary() const;

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> counts_{};
  std::atomic<std::uint64_t> sum_{0};
};

class Registry {
 public:
  Registry() = default;
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Find-or-create by name.  Takes the registry lock — constructors only;
  /// hold the returned reference (stable for the registry's life) for
  /// hot-path use.  Throws std::logic_error when `name` is already
  /// registered as a different kind.
  Counter& counter(const std::string& name) SPINN_EXCLUDES(mu_);
  Gauge& gauge(const std::string& name) SPINN_EXCLUDES(mu_);
  Histogram& histogram(const std::string& name) SPINN_EXCLUDES(mu_);

  /// Scrape: one `{name, value}` row per counter/gauge (a negative gauge
  /// wraps) and four per histogram (`<name>.count`, `.p50`, `.p95`,
  /// `.p99`), sorted by name; read in reverse registration order.
  std::vector<std::pair<std::string, std::uint64_t>> rows() const
      SPINN_EXCLUDES(mu_);

 private:
  struct Metric {
    // Exactly one is set; a tiny hand-rolled variant keeps the storage
    // stable (unique_ptr) without RTTI.
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  /// Find-or-create of one kind; throws on a kind clash.
  template <typename T>
  T& find_or_create(const std::string& name,
                    std::unique_ptr<T> Metric::*kind) SPINN_EXCLUDES(mu_);

  mutable Mutex mu_;
  std::map<std::string, Metric> metrics_ SPINN_GUARDED_BY(mu_);
  /// Entries in registration order (map nodes never move).
  std::vector<const std::pair<const std::string, Metric>*> order_
      SPINN_GUARDED_BY(mu_);
};

}  // namespace spinn::obs
