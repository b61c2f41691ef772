// The benchmark's workloads and the two halves of the per-layer ledger.
#pragma once

#include "harness/harness.h"
#include "workload/scenario.h"

namespace perfbench {

/// dec30_day / feb01_day: MiningSession::run of one default-scale day with
/// min(4, nproc) threads.  Untraced it reports day_s, setup_s,
/// peak_rss_mb, precision and truth_zones_found; traced, the day ledger
/// for its date and the served ledger for the same date.
Outcome run_day_workload(const RunOptions& options, dnsnoise::ScenarioDate date);

/// Mines the reference seed's day of `date` and writes its findings
/// fingerprint under options.fingerprint_dir.
void record_fingerprint(const RunOptions& options,
                        dnsnoise::ScenarioDate date);

/// Day half of the ledger: a single-thread replay of the day through the
/// modules' public calls, next to an untraced 1-thread and min(4, nproc)
/// thread day, repeated until `seconds` have passed (at least once).
/// Adds the workload.*, resolver.*, capture.*, engine.*, miner.*, ml.* and
/// ledger/trace metrics to `outcome`.
void day_ledger(const RunOptions& options, dnsnoise::ScenarioDate date,
                double seconds, Outcome& outcome);

/// Served half of the ledger: a served day of `date` (UDP on loopback, two
/// socket shards, driven by src/loadgen from this process) with the
/// frontend's stage clocks on; open-loop passes at the fixed rate until
/// `seconds` have passed, closed-loop passes, and an in-process replay of
/// recorded queries.  Adds the server.*, dns.*, served.*, net.* and
/// loadgen.* metrics to `outcome`.
void served_ledger(const RunOptions& options, dnsnoise::ScenarioDate date,
                   double seconds, Outcome& outcome);

}  // namespace perfbench
