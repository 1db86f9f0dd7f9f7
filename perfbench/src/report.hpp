// Result reporting for the benchmark: percentile discipline, metric-name
// validation, the host fingerprint, in-memory spans, and the one-line JSON
// result record the benchmark ends with.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Percentile `q` in [0, 1] of `samples` (linear interpolation between
/// closest ranks).  0 for an empty set.
double percentile(std::vector<double> samples, double q);
double median(const std::vector<double>& samples);

/// True when `n` samples leave at least ten beyond percentile `q` — the
/// condition for publishing that percentile.  p99 therefore needs at least
/// 1000 samples.
bool publishable(double q, std::size_t n);

/// A timing as published: the median, the highest percentile of the
/// p90/p99/p99.9 ladder that `publishable` allows (empty name when even
/// p90 is not), and the sample count.
struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  std::string tail_name;  // "p90", "p99", "p99.9" or ""
  double tail = 0.0;
};
Summary summarize(const std::vector<double>& samples);
/// "p50=1.234 p99=5.678 (n=12000)" in the caller's unit.
std::string describe(const Summary& s);

/// Metric names: 1-64 characters of [A-Za-z0-9_.-], starting with a
/// letter or digit.
bool valid_metric_name(const std::string& name);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The record the benchmark prints as its last line.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  /// Appends a metric; a name outside the allowed alphabet, or a name used
  /// twice, marks the result incorrect instead of reaching the output.
  void add(const std::string& name, double value, const std::string& unit);
  std::string json() const;
};

/// Which host and build produced a record: hardware threads, CPU model,
/// compiler, build type and the wall time of a fixed calibration loop.
struct Host {
  unsigned nproc = 0;
  std::string cpu;
  std::string compiler;
  std::string build_type;
  double calibration_ns = 0.0;
};
Host host_fingerprint();
std::string json(const Host& host);

/// Monotonic wall clock in nanoseconds.
std::int64_t now_ns();

/// Spans recorded by the benchmark around its own calls into the program:
/// kept in memory and written out once, when the run ends.
class Spans {
 public:
  struct Span {
    std::string name;
    std::uint64_t trace = 0;   // one id per operation
    std::int64_t parent = -1;  // index of the causing span, -1 for a root
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  explicit Spans(bool enabled) : enabled_(enabled) {}

  /// Records a finished span; returns its index (-1 when disabled).
  std::int64_t add(const std::string& name, std::uint64_t trace,
                   std::int64_t parent, std::int64_t start_ns,
                   std::int64_t end_ns);
  /// Sets the end of a span opened earlier with add() (no-op for -1).
  void finish(std::int64_t index, std::int64_t end_ns);
  const std::vector<Span>& spans() const { return spans_; }

  /// Chrome trace_event JSON; false when the file cannot be written.
  bool write(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
