// perfbench: the repo benchmark program. One workload per run:
//
//   perfbench --workload <tree_scan|evidence_mix|wire_closed> --seed <n>
//             --seconds <s> --trace <0|1> [--workdir <dir>]
//             [--tiny] [--corrupt-digest]
//
// The last line of standard output is the JSON result: end-to-end metrics
// with --trace 0, per-layer metrics with --trace 1. --tiny and
// --corrupt-digest are the self-test's knobs (selftest.py).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "perfbench: %s needs a value\n", flag.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value().c_str());
    } else if (flag == "--trace") {
      args.trace = value() == "1";
    } else if (flag == "--workdir") {
      args.workdir = value();
    } else if (flag == "--tiny") {
      args.tiny = true;
    } else if (flag == "--corrupt-digest") {
      args.corrupt_digest = true;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (args.seconds <= 0) {
    std::fprintf(stderr, "perfbench: --seconds must be positive\n");
    return 2;
  }
  if (args.workload == "tree_scan") return perfbench::RunTreeScan(args);
  if (args.workload == "evidence_mix") return perfbench::RunEvidenceMix(args);
  if (args.workload == "wire_closed") return perfbench::RunWireClosed(args);
  std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
               args.workload.c_str());
  return 2;
}
