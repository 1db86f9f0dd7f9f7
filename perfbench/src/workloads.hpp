// The three workloads.  Each fills a Result with the end-to-end metrics
// (untraced run) or the per-layer metrics (traced run) and prints a
// human-readable report above the result line.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "replay.hpp"
#include "report.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string spans_path;  // traced runs write their spans here
};

void run_wire(const Options& opt, Result& result);
void run_bulk(const Options& opt, Result& result);

/// The end-to-end metrics every untraced run reports.
struct EndToEnd {
  double setup_s = 0;
  double sessions_per_s = 0;
  double session_p50_ms = 0;
  double ttfs_p50_ms = 0;
  double build_s = 0;
  double events_per_s_serial = 0;
  double events_per_s_sharded = 0;
  void emit(Result& result) const;
};

/// How many times set-up is repeated per run; setup_s is the median.  Set-up
/// is a millisecond of thread starts and connects, so it takes many.
inline constexpr int kSetupRepeats = 21;

/// Names of the per-layer metrics, in output order.  Every traced run
/// reports all of them; a layer a workload never calls reports 0.
const std::vector<std::pair<std::string, std::string>>& layer_metrics();

/// Per-layer values keyed by name; unknown names are a programming error
/// caught by Result::add's duplicate/alphabet check.
class Layers {
 public:
  void set(const std::string& name, double value);
  /// Appends every layer metric in layer_metrics() order.
  void emit(Result& result) const;

 private:
  std::vector<std::pair<std::string, double>> values_;
};

/// One row of a layer table.
struct Stage {
  std::string name;
  double us = 0.0;
  bool derived = false;
  bool nested = false;  // a part of the row above, not added again
};

/// Print stage p50s against the end-to-end p50 with an explicit remainder
/// row; returns the share of `e2e_us` the top-level stages account for.
double print_layer_table(const std::string& title, double e2e_us,
                         const std::vector<Stage>& stages,
                         const std::string& remainder_name);

/// Median of a field over lifecycles.
double median_of(const std::vector<Lifecycle>& runs,
                 double (*field)(const Lifecycle&));

/// Sets the neural, core, map, sim and fabric layer metrics from in-process
/// lifecycles (p50s over `serial`; the sharded engine's per-event cost and
/// windows from `sharded`) and returns the matching layer-table rows.
std::vector<Stage> lifecycle_layers(const std::vector<Lifecycle>& serial,
                                    const std::vector<Lifecycle>& sharded,
                                    Layers& layers);

}  // namespace perfbench
