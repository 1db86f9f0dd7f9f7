// perfbench — the repository benchmark.
//
//   perfbench --workload <chain_sessions|described_nets|bulk_network>
//             --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
//
// Prints a human-readable report, a `host` fingerprint line, and as its
// last line one JSON result: end-to-end metrics with --trace 0, per-layer
// metrics (from spans taken around the benchmark's own calls into the
// program) with --trace 1.  perfbench/README.md describes the workloads.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "inputs.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <chain_sessions|described_nets|"
               "bulk_network> --seed <n> --seconds <s> --trace <0|1> "
               "[--spans <file>]\n");
  return 2;
}

bool parse_u64(const char* text, std::uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || text[0] == '-') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed" && parse_u64(value, &n)) {
      opt.seed = n;
    } else if (flag == "--seconds" && parse_u64(value, &n) && n >= 1 &&
               n <= 600) {
      opt.seconds = static_cast<int>(n);
    } else if (flag == "--trace" && parse_u64(value, &n) && n <= 1) {
      opt.trace = n == 1;
    } else if (flag == "--spans") {
      opt.spans_path = value;
    } else {
      return usage();
    }
  }
  const bool wire =
      opt.workload == "chain_sessions" || opt.workload == "described_nets";
  if (!wire && opt.workload != "bulk_network") return usage();

  const perfbench::Host host = perfbench::host_fingerprint();
  std::printf("perfbench %s seed=%llu seconds=%d trace=%d inputs=%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0,
              perfbench::input_digest(opt.workload, opt.seed).c_str());

  perfbench::Result result;
  if (wire) {
    perfbench::run_wire(opt, result);
  } else {
    perfbench::run_bulk(opt, result);
  }
  if (result.failed > 0) result.correct = false;
  std::printf("host %s\n", perfbench::json(host).c_str());
  std::printf("%s\n", result.json().c_str());
  std::fflush(stdout);
  return 0;
}
