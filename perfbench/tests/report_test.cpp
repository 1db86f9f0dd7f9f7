// Tests of the benchmark's own rules: percentile discipline, metric-name
// validation, the result record, and seed-determinism of generated inputs.
// Plain checks that stay on in every build type; exit code 1 on failure.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
    ++failures;
  }
}
#define CHECK(cond) check((cond), #cond, __LINE__)

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 0; i < n; ++i) v.push_back(static_cast<double>(i + 1));
  return v;
}

void percentiles() {
  using namespace perfbench;
  CHECK(percentile({}, 0.5) == 0.0);
  CHECK(percentile({3, 1, 2}, 0.5) == 2.0);
  CHECK(percentile({1, 2, 3, 4}, 0.5) == 2.5);
  CHECK(percentile(ramp(101), 0.99) == 100.0);
  CHECK(median({5}) == 5.0);
}

void percentile_discipline() {
  using namespace perfbench;
  // At least ten samples beyond the published percentile.
  CHECK(!publishable(0.90, 99));
  CHECK(publishable(0.90, 100));
  CHECK(!publishable(0.99, 999));  // p99 from fewer than 1000 is refused
  CHECK(publishable(0.99, 1000));
  CHECK(!publishable(0.999, 9999));
  CHECK(publishable(0.999, 10000));

  CHECK(summarize(ramp(99)).tail_name.empty());
  CHECK(summarize(ramp(100)).tail_name == "p90");
  CHECK(summarize(ramp(999)).tail_name == "p90");
  CHECK(summarize(ramp(1000)).tail_name == "p99");
  CHECK(summarize(ramp(10000)).tail_name == "p99.9");
  const Summary s = summarize(ramp(1000));
  CHECK(s.n == 1000);
  CHECK(std::fabs(s.p50 - 500.5) < 1e-9);
  CHECK(describe(s).find("n=1000") != std::string::npos);
}

void metric_names() {
  using namespace perfbench;
  CHECK(valid_metric_name("net.ping_rtt_us"));
  CHECK(valid_metric_name("a-b_c.9"));
  CHECK(valid_metric_name("9lives"));
  CHECK(!valid_metric_name(""));
  CHECK(!valid_metric_name(".hidden"));
  CHECK(!valid_metric_name("has space"));
  CHECK(!valid_metric_name("slash/name"));
  CHECK(!valid_metric_name("quote\""));
  CHECK(!valid_metric_name(std::string(65, 'a')));
  CHECK(valid_metric_name(std::string(64, 'a')));
  for (const auto& [name, unit] : layer_metrics()) {
    CHECK(valid_metric_name(name));
  }

  Result r;
  r.add("ok_name", 1.5, "ms");
  CHECK(r.correct);
  r.add("ok_name", 2.0, "ms");  // duplicate
  CHECK(!r.correct);
  Result bad;
  bad.add("bad name", 1.0, "s");
  CHECK(!bad.correct && bad.metrics.empty());
  Result nan;
  nan.add("x", std::nan(""), "s");
  CHECK(!nan.correct);
}

void result_record() {
  using namespace perfbench;
  Result r;
  r.attempted = 3;
  r.failed = 1;
  r.add("latency_ms", 1.2034, "ms");
  CHECK(r.json() ==
        "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": "
        "{\"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}}}");
}

void input_determinism() {
  using namespace perfbench;
  for (const char* w : {"chain_sessions", "described_nets", "bulk_network"}) {
    CHECK(input_digest(w, 7) == input_digest(w, 7));
    CHECK(input_digest(w, 7) != input_digest(w, 8));
  }
  const auto a = described_specs(3, 16);
  const auto b = described_specs(3, 16);
  bool same = a.size() == b.size();
  std::size_t faulted = 0;
  for (std::size_t i = 0; same && i < a.size(); ++i) {
    same = a[i].frame == b[i].frame && a[i].spec.seed == b[i].spec.seed;
    faulted += a[i].faulted ? 1 : 0;
  }
  CHECK(same);
  CHECK(faulted == 2);  // one session in eight
  const auto c = chain_specs(3, 64);
  CHECK(c[0].frame == chain_specs(3, 64)[0].frame);
  CHECK(c[0].frame.rfind("open app=chain seed=", 0) == 0);
}

}  // namespace

int main() {
  percentiles();
  percentile_discipline();
  metric_names();
  result_record();
  input_determinism();
  if (failures == 0) std::printf("perfbench_tests: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
