#include "report.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

namespace perfbench {

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double median(const std::vector<double>& samples) {
  return percentile(samples, 0.5);
}

bool publishable(double q, std::size_t n) {
  // Integer form of n * (1 - q) >= 10 for the ladder's q values, so p99 at
  // exactly 1000 samples is not lost to rounding.
  const auto beyond_per_mille = static_cast<std::uint64_t>(
      std::llround((1.0 - q) * 1000.0));
  return static_cast<std::uint64_t>(n) * beyond_per_mille >= 10 * 1000;
}

Summary summarize(const std::vector<double>& samples) {
  Summary s;
  s.n = samples.size();
  s.p50 = percentile(samples, 0.5);
  static const struct {
    const char* name;
    double q;
  } kLadder[] = {{"p99.9", 0.999}, {"p99", 0.99}, {"p90", 0.90}};
  for (const auto& rung : kLadder) {
    if (publishable(rung.q, s.n)) {
      s.tail_name = rung.name;
      s.tail = percentile(samples, rung.q);
      break;
    }
  }
  return s;
}

std::string describe(const Summary& s) {
  char buf[160];
  if (s.tail_name.empty()) {
    std::snprintf(buf, sizeof buf, "p50=%.4g (n=%zu, no tail percentile)",
                  s.p50, s.n);
  } else {
    std::snprintf(buf, sizeof buf, "p50=%.4g %s=%.4g (n=%zu)", s.p50,
                  s.tail_name.c_str(), s.tail, s.n);
  }
  return buf;
}

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name[0])) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

void Result::add(const std::string& name, double value,
                 const std::string& unit) {
  const bool dup = std::any_of(metrics.begin(), metrics.end(),
                               [&](const Metric& m) { return m.name == name; });
  if (!valid_metric_name(name) || dup || !std::isfinite(value)) {
    std::fprintf(stderr, "perfbench: refusing metric '%s'\n", name.c_str());
    correct = false;
    return;
  }
  metrics.push_back(Metric{name, value, unit});
}

std::string Result::json() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

/// A fixed dependent integer chain: its wall time tracks core speed, not
/// memory, so two records can be compared for host drift.
double calibration_loop_ns() {
  std::vector<double> runs;
  for (int rep = 0; rep < 5; ++rep) {
    const std::int64_t t0 = now_ns();
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (int i = 0; i < 20'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    const std::int64_t t1 = now_ns();
    if (x == 0) std::fprintf(stderr, "calibration degenerated\n");
    runs.push_back(static_cast<double>(t1 - t0));
  }
  return median(runs);
}

}  // namespace

Host host_fingerprint() {
  Host h;
  h.nproc = std::thread::hardware_concurrency();
  h.cpu = cpu_model();
#if defined(__clang__)
  h.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  h.compiler = "gcc " __VERSION__;
#else
  h.compiler = "unknown";
#endif
#ifdef PERFBENCH_BUILD_TYPE
  h.build_type = PERFBENCH_BUILD_TYPE;
#endif
  h.calibration_ns = calibration_loop_ns();
  return h;
}

std::string json(const Host& host) {
  char calib[64];
  std::snprintf(calib, sizeof calib, "%.0f", host.calibration_ns);
  return "{\"nproc\": " + std::to_string(host.nproc) + ", \"cpu\": \"" +
         json_escape(host.cpu) + "\", \"compiler\": \"" +
         json_escape(host.compiler) + "\", \"build_type\": \"" +
         json_escape(host.build_type) + "\", \"calibration_ns\": " + calib +
         "}";
}

std::int64_t Spans::add(const std::string& name, std::uint64_t trace,
                        std::int64_t parent, std::int64_t start_ns,
                        std::int64_t end_ns) {
  if (!enabled_) return -1;
  spans_.push_back(Span{name, trace, parent, start_ns, end_ns});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void Spans::finish(std::int64_t index, std::int64_t end_ns) {
  if (index >= 0) spans_[static_cast<std::size_t>(index)].end_ns = end_ns;
}

bool Spans::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[96];
    std::snprintf(buf, sizeof buf, "\"ts\": %.3f, \"dur\": %.3f",
                  static_cast<double>(s.start_ns - t0) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    out << (i ? ",\n" : "") << "{\"name\": \"" << json_escape(s.name)
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.trace << ", "
        << buf << ", \"args\": {\"span\": " << i << ", \"parent\": "
        << s.parent << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
