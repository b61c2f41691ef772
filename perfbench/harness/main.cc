// perfbench: the dnsnoise benchmark binary.
//
//   perfbench --workload dec30_day|feb01_day --seed N
//             --seconds S --trace 0|1 [--setup-only]
//             [--fingerprints DIR]
//   perfbench --workload dec30_day|feb01_day --record-fingerprint
//             [--fingerprints DIR]
//
// Prints the machine record as one JSON line, then the result as the last
// line: {"correct", "attempted", "failed", "metrics"}.  Untraced runs
// report the end-to-end metrics, traced runs the per-layer ledger.  Exits
// non-zero without a result line on any harness failure.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness/workloads.h"

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload dec30_day|feb01_day --seed N "
               "--seconds S --trace 0|1 [--setup-only] [--record-fingerprint] "
               "[--fingerprints DIR]\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  options.process_start = perfbench::Clock::now();
  bool record = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        options.workload = value();
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
      } else if (arg == "--trace") {
        options.trace = std::stoi(value()) != 0;
      } else if (arg == "--setup-only") {
        options.setup_only = true;
      } else if (arg == "--record-fingerprint") {
        record = true;
      } else if (arg == "--fingerprints") {
        options.fingerprint_dir = value();
      } else {
        usage(argv[0]);
      }
    } catch (const std::exception&) {
      usage(argv[0]);
    }
  }

  dnsnoise::ScenarioDate date = dnsnoise::ScenarioDate::kDec30;
  if (options.workload == "feb01_day") {
    date = dnsnoise::ScenarioDate::kFeb01;
  } else if (options.workload != "dec30_day") {
    usage(argv[0]);
  }
  try {
    if (record) {
      perfbench::record_fingerprint(options, date);
      return 0;
    }
    const perfbench::Outcome outcome =
        perfbench::run_day_workload(options, date);
    std::printf("%s\n", perfbench::machine_json(options.workload, options.seed,
                                                outcome.placement)
                            .c_str());
    std::printf("%s\n", outcome.report
                            .json(outcome.correct, outcome.attempted,
                                  outcome.failed)
                            .c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
