// Shared pieces of the dnsnoise benchmark: the result report, the checks
// that decide whether a run was correct, the ledger arithmetic, and the
// machine record printed beside every result.
//
// Everything here is a pure function of its arguments (or of the process,
// for the machine record and the CPU placement), so tests/selftest.cc
// can pin it on synthetic inputs.
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "miner/algorithm1.h"
#include "miner/pipeline.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Exact quantile by linear interpolation between order statistics
/// (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

// --- Output check -----------------------------------------------------------

/// The findings fingerprint: one "zone depth" line per finding, sorted, so
/// it ignores the confidence ranking and pins only which (zone, depth)
/// pairs a day mined.
std::string fingerprint(std::span<const dnsnoise::DisposableZoneFinding> findings);

struct Outcome;

/// Checks every mined day of one seed: it must succeed, mine something,
/// and produce the same fingerprint as the first day checked, and the
/// recorded `reference` fingerprint when the seed is kReferenceSeed.
class FindingsCheck {
 public:
  FindingsCheck(std::string reference, std::uint64_t seed)
      : reference_(std::move(reference)), seed_(seed) {}

  /// Counts one attempted day into `outcome` (a failure also clears
  /// outcome.correct); returns whether it passed.
  bool check(bool ok,
             std::span<const dnsnoise::DisposableZoneFinding> findings,
             Outcome& outcome);
  bool check(const dnsnoise::MiningDayResult& result, Outcome& outcome) {
    return check(result.ok(), result.findings, outcome);
  }

 private:
  std::string reference_;
  std::uint64_t seed_;
  std::string first_;
};

/// Reads a whole file; false when it cannot be opened.
bool read_file(const std::string& path, std::string& out);
/// Replaces a file's contents; false on any write failure.
bool write_file(const std::string& path, const std::string& text);

// --- Generator lateness -----------------------------------------------------

/// Lateness of each send of a fixed-rate schedule, in ns: the k-th actual
/// send minus (origin + k * gap), where the origin is the first send
/// unless a later send shows the first was itself late (a sender that
/// never sends early puts the origin at the minimum of send_k - k * gap).
/// `send_ns` are the actual send times in order on one connection.
std::vector<double> lateness_ns(std::span<const std::int64_t> send_ns,
                                std::int64_t gap_ns);

// --- Ledger -----------------------------------------------------------------

/// Share of `total_s` that the timed layers do not account for:
/// (total - sum(layers)) / total.  Negative when the layers overlap or
/// the instrumented replay ran slower than the untimed total.
double residual_share(double total_s, std::span<const double> layers_s);

// --- Allocation counter (harness/alloc_counter.cc) --------------------------

/// Calls of the global operator new made by the calling thread so far.
std::uint64_t thread_allocations() noexcept;

// --- Process facts ----------------------------------------------------------

/// Peak resident set of the process so far, in MiB.
double peak_rss_mb();
/// CPU seconds (user + system) the process has used so far.
double process_cpu_seconds();

/// CPUs this process may run on, in ascending order.
std::vector<int> allowed_cpus();
/// Restricts the calling thread to `cpus`; threads it creates afterwards
/// inherit the mask.  False when the kernel refuses.
bool pin_current_thread(std::span<const int> cpus);
/// Restricts thread `tid` of this process to `cpus`.
bool pin_thread(int tid, std::span<const int> cpus);
/// "a-b" / "a,b,c" rendering of a CPU list.
std::string cpu_list(std::span<const int> cpus);

/// One JSON object describing the machine and the run: nproc, CPU model,
/// kernel, compiler, build type, seed, placement.
std::string machine_json(const std::string& workload, std::uint64_t seed,
                         const std::string& placement);

// --- Result -----------------------------------------------------------------

/// The benchmark's result line: {"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}} with metrics in insertion order.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  std::string json(bool correct, std::uint64_t attempted,
                   std::uint64_t failed) const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

/// What every workload reports back to main().
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string placement = "unpinned";
  Report report;
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Stop after the warm-up unit and report only setup_s.
  bool setup_only = false;
  /// Directory holding the recorded findings fingerprints.
  std::string fingerprint_dir = "perfbench/fingerprints";
  Clock::time_point process_start = Clock::now();
};

/// Scenario seed whose findings fingerprints are committed under
/// fingerprints/ (ScenarioScale's default seed).
inline constexpr std::uint64_t kReferenceSeed = 2011;

}  // namespace perfbench
