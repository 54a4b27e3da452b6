// perfbench — runs one benchmark workload and prints one JSON line with its
// metrics, correctness checks and cut values. run.py builds this binary,
// adds the set-up probes and turns the line into the benchmark result.
//
//   perfbench --workload qaoa2_sim --seed 3 --seconds 20 --trace 0
//             [--setup-only 1] [--service-rate 35] [--trace-out FILE]

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>

#include "common.hpp"
#include "trace.hpp"

namespace {

perfbench::Args parse(int argc, char** argv) {
  perfbench::Args args;
  if (argc % 2 == 0) throw std::invalid_argument("arguments come in --key value pairs");
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value != "0";
    } else if (key == "--setup-only") {
      args.setup_only = value != "0";
    } else if (key == "--service-rate") {
      args.service_rate = std::stod(value);
    } else if (key == "--trace-out") {
      args.trace_out = value;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (args.seconds <= 0.0) throw std::invalid_argument("--seconds must be > 0");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const perfbench::Args args = parse(argc, argv);
    perfbench::Report report;
    if (args.workload == "qaoa2_sim") {
      perfbench::run_qaoa2_sim(args, report);
    } else if (args.workload == "qaoa2_classic") {
      perfbench::run_qaoa2_classic(args, report);
    } else if (args.workload == "service_mix") {
      perfbench::run_service_mix(args, report);
    } else {
      throw std::invalid_argument("unknown workload '" + args.workload + "'");
    }
    if (args.trace && !args.trace_out.empty()) {
      perfbench::tracer().write_chrome_trace(args.trace_out);
    }
    std::printf("%s\n", report.to_json().c_str());
    return report.ok() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
