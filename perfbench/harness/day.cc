// Mining-day workloads and the day half of the ledger.
#include <algorithm>
#include <array>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/parallel_miner.h"
#include "engine/shard_merge.h"
#include "harness/workloads.h"
#include "miner/evaluate.h"
#include "miner/labeler.h"
#include "ml/lad_tree.h"

namespace perfbench {

using namespace dnsnoise;

namespace {

/// At least this many timed days per run, whatever --seconds says, so the
/// reported median is a median.
constexpr std::size_t kMinTimedDays = 3;
/// Seconds of open-loop load in the served half of a traced run.
constexpr double kServedLedgerSeconds = 4.0;

std::size_t day_threads() {
  return std::max<std::size_t>(
      1, std::min<std::size_t>(4, allowed_cpus().size()));
}

MiningSession make_session(std::uint64_t seed, std::size_t threads) {
  ScenarioScale scale;
  scale.seed = seed;
  MiningSession session(scale);
  session.threads(threads);
  return session;
}

/// fingerprints/<workload>.txt.
std::string fingerprint_path(const RunOptions& options, ScenarioDate date) {
  if (date != ScenarioDate::kDec30 && date != ScenarioDate::kFeb01) {
    throw std::runtime_error("no day workload for this date");
  }
  return options.fingerprint_dir +
         (date == ScenarioDate::kDec30 ? "/dec30_day.txt" : "/feb01_day.txt");
}

std::string reference_fingerprint(const RunOptions& options,
                                  ScenarioDate date) {
  const std::string path = fingerprint_path(options, date);
  std::string text;
  if (!read_file(path, text)) {
    throw std::runtime_error("missing findings fingerprint " + path);
  }
  return text;
}

/// The warm-up unit: the reference seed's day, checked against the recorded
/// fingerprint.  The first day of a process pays for heap growth, so it
/// belongs to set-up, never to day_s.
void warm_up_day(const RunOptions& options, ScenarioDate date,
                 Outcome& outcome) {
  FindingsCheck check(reference_fingerprint(options, date), kReferenceSeed);
  MiningSession warm = make_session(kReferenceSeed, day_threads());
  check.check(warm.run(date), outcome);
}

/// Wraps the day's DayCapture as the cluster's tap observer and times
/// every batch it ingests.
class TimingObserver final : public TapObserver {
 public:
  explicit TimingObserver(DayCapture& capture) : capture_(capture) {}

  void on_tap_batch(const TapBatch& batch) override {
    const std::uint64_t allocs = thread_allocations();
    const Clock::time_point t0 = Clock::now();
    capture_.on_tap_batch(batch);
    seconds += seconds_between(t0, Clock::now());
    allocations += thread_allocations() - allocs;
    events += batch.size();
  }

  double seconds = 0.0;
  std::uint64_t allocations = 0;
  std::uint64_t events = 0;

 private:
  DayCapture& capture_;
};

/// One single-thread replay of MiningSession::run, timed layer by layer.
struct DayReplay {
  double scenario_s = 0, gen_s = 0, warmup_s = 0, query_s = 0, ingest_s = 0;
  double merge_s = 0, label_s = 0, train_s = 0, classify_s = 0;
  double evaluate_s = 0, aggregate_s = 0;
  double wall_s = 0;  // the replayed day, without the timing-only calls
  std::vector<double> shard_s;
  std::uint64_t events = 0, ingest_allocs = 0, hits = 0, lookups = 0;
  std::size_t unique_queried = 0, unique_resolved = 0;
  MiningDayResult result;

  /// The exclusive layer times that together make up the day.
  std::array<double, 11> layers_s() const {
    return {scenario_s, gen_s,   warmup_s,   query_s,    ingest_s,   merge_s,
            label_s,    train_s, classify_s, evaluate_s, aggregate_s};
  }
  double serial_s() const {
    return merge_s + label_s + train_s + evaluate_s + aggregate_s;
  }
};

/// Mirrors MiningSession::simulate's shard task and run()'s mining half
/// through public calls only, timing each call into a layer.
DayReplay replay_day(const PipelineOptions& o, ScenarioDate date) {
  DayReplay r;
  const std::int64_t day = scenario_day_index(date);
  const std::size_t shard_count = o.cluster.server_count;
  const auto timed = [](double& into, const auto& fn) {
    const Clock::time_point t0 = Clock::now();
    fn();
    into += seconds_between(t0, Clock::now());
  };

  const Clock::time_point day_start = Clock::now();
  std::optional<Scenario> truth;
  timed(r.scenario_s, [&] { truth.emplace(date, o.scale); });

  std::vector<ShardResult> shards;
  shards.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) shards.emplace_back(o.capture);

  for (std::size_t i = 0; i < shard_count; ++i) {
    const Clock::time_point shard_start = Clock::now();
    std::optional<Scenario> scenario;
    timed(r.scenario_s, [&] { scenario.emplace(date, o.scale); });
    RdnsCluster cluster(o.cluster.for_shard(i), scenario->authority());
    const TrafficGenerator::ShardSpec spec{shard_count, i};
    Question question;
    double in_query = 0.0;
    const auto feed = [&](SimTime ts, std::uint64_t client,
                          const QuerySpec& query) {
      if (!question.name.assign(query.qname)) return;
      question.type = query.qtype;
      const Clock::time_point t0 = Clock::now();
      cluster.query_view(client, question, ts);
      in_query += seconds_between(t0, Clock::now());
    };

    if (o.warmup) {
      ScenarioScale warm_scale = o.scale;
      warm_scale.queries_per_day = static_cast<std::uint64_t>(
          static_cast<double>(warm_scale.queries_per_day) *
          o.warmup_volume_fraction);
      warm_scale.traffic_stream ^= 0xbeefcafeULL;
      std::optional<Scenario> warm;
      timed(r.scenario_s, [&] { warm.emplace(date, warm_scale); });
      double wall = 0.0;
      timed(wall, [&] { warm->traffic().run_day_shard(day - 1, spec, feed); });
      r.warmup_s += in_query;
      r.gen_s += wall - in_query;
    }

    const DnsCacheStats before = cluster.aggregate_stats();
    DayCapture& capture = shards[i].capture;
    capture.start_day(day);
    TimingObserver observer(capture);
    cluster.add_tap_observer(&observer);
    in_query = 0.0;
    double wall = 0.0;
    timed(wall, [&] { scenario->traffic().run_day_shard(day, spec, feed); });
    const double ingest_in_query = observer.seconds;
    cluster.flush_taps();
    cluster.remove_tap_observer(&observer);
    r.query_s += in_query - ingest_in_query;
    r.gen_s += wall - in_query;
    r.ingest_s += observer.seconds;
    r.events += observer.events;
    r.ingest_allocs += observer.allocations;

    const DnsCacheStats after = cluster.aggregate_stats();
    r.hits += after.hits - before.hits;
    r.lookups += (after.hits + after.misses + after.expired_misses) -
                 (before.hits + before.misses + before.expired_misses);
    r.shard_s.push_back(seconds_between(shard_start, Clock::now()));
  }

  DayCapture merged(o.capture);
  merged.start_day(day);
  std::string error;
  timed(r.merge_s, [&] { merge_shards(shards, merged, error); });
  if (!error.empty()) throw std::runtime_error("merge failed: " + error);
  r.unique_queried = merged.unique_queried();
  r.unique_resolved = merged.unique_resolved();

  // finish_mining_day labels, trains, mines through the hook, evaluates
  // and aggregates; the hook's clock splits its wall into before / during
  // / after the classify stage.
  Clock::time_point hook_in{}, hook_out{};
  const MineFn mine = [&](const DisposableZoneMiner& miner,
                          DomainNameTree& tree,
                          const CacheHitRateTracker& chr) {
    hook_in = Clock::now();
    auto findings = mine_zones_parallel(miner, tree, chr, *o.miner.psl, 1);
    hook_out = Clock::now();
    return findings;
  };
  const Clock::time_point finish_in = Clock::now();
  r.result = finish_mining_day(merged, *truth, o, mine);
  const Clock::time_point finish_out = Clock::now();
  r.wall_s = seconds_between(day_start, finish_out);
  if (!r.result.ok()) throw std::runtime_error("replayed day failed");
  r.classify_s = seconds_between(hook_in, hook_out);

  // Timing-only calls, outside the replayed day's wall: the training and
  // evaluation the day just did, repeated to split the hook's before and
  // after intervals into their layers.
  timed(r.train_s, [&] {
    LadTree model(o.model);
    model.train(to_dataset(r.result.labeled));
  });
  timed(r.evaluate_s,
        [&] { evaluate_findings(r.result.findings, truth->truth()); });
  r.label_s = seconds_between(finish_in, hook_in) - r.train_s;
  r.aggregate_s = seconds_between(hook_out, finish_out) - r.evaluate_s;
  return r;
}

}  // namespace

void record_fingerprint(const RunOptions& options, ScenarioDate date) {
  const std::string path = fingerprint_path(options, date);
  MiningSession session = make_session(kReferenceSeed, day_threads());
  const MiningDayResult result = session.run(date);
  if (!result.ok() || !write_file(path, fingerprint(result.findings))) {
    throw std::runtime_error("cannot record " + path);
  }
  std::fprintf(stderr, "recorded %zu findings in %s\n",
               result.findings.size(), path.c_str());
}

Outcome run_day_workload(const RunOptions& options, ScenarioDate date) {
  Outcome outcome;
  warm_up_day(options, date, outcome);
  const double setup_s = seconds_between(options.process_start, Clock::now());
  if (options.setup_only) {
    outcome.report.add("setup_s", setup_s, "s");
    return outcome;
  }
  if (options.trace) {
    day_ledger(options, date, options.seconds, outcome);
    served_ledger(options, date, kServedLedgerSeconds, outcome);
    return outcome;
  }

  FindingsCheck check(reference_fingerprint(options, date), options.seed);
  MiningSession session = make_session(options.seed, day_threads());
  std::vector<double> day_s, precision, truth_found;
  const Clock::time_point start = Clock::now();
  while (day_s.size() < kMinTimedDays ||
         seconds_between(start, Clock::now()) < options.seconds) {
    const Clock::time_point t0 = Clock::now();
    const MiningDayResult result = session.run(date);
    day_s.push_back(seconds_between(t0, Clock::now()));
    check.check(result, outcome);
    precision.push_back(result.evaluation.finding_precision());
    truth_found.push_back(
        static_cast<double>(result.evaluation.truth_zones_discovered));
  }
  std::fprintf(stderr, "day_s per timed day:");
  for (const double s : day_s) std::fprintf(stderr, " %.4f", s);
  std::fprintf(stderr, "\n");

  Report& report = outcome.report;
  report.add("day_s", median(day_s), "s");
  report.add("setup_s", setup_s, "s");
  report.add("peak_rss_mb", peak_rss_mb(), "MiB");
  report.add("precision", median(precision), "ratio");
  report.add("truth_zones_found", median(truth_found), "count");
  return outcome;
}

void day_ledger(const RunOptions& options, ScenarioDate date, double seconds,
                Outcome& outcome) {
  const std::size_t threads = day_threads();
  const std::string reference = reference_fingerprint(options, date);
  FindingsCheck check(reference, options.seed);
  MiningSession parallel = make_session(options.seed, threads);
  MiningSession serial = make_session(options.seed, 1);

  std::vector<double> day_s, cpu_s, serial_day_s;
  std::vector<DayReplay> replays;
  const Clock::time_point start = Clock::now();
  while (replays.empty() ||
         seconds_between(start, Clock::now()) < seconds) {
    const double cpu0 = process_cpu_seconds();
    Clock::time_point t0 = Clock::now();
    check.check(parallel.run(date), outcome);
    day_s.push_back(seconds_between(t0, Clock::now()));
    cpu_s.push_back(process_cpu_seconds() - cpu0);

    t0 = Clock::now();
    check.check(serial.run(date), outcome);
    serial_day_s.push_back(seconds_between(t0, Clock::now()));

    replays.push_back(replay_day(serial.options(), date));
    check.check(replays.back().result, outcome);
  }

  Report& report = outcome.report;
  const auto layer = [&](const std::string& name, const std::string& unit,
                         const auto& field) {
    std::vector<double> values;
    for (const DayReplay& r : replays) values.push_back(field(r));
    report.add(name, median(values), unit);
  };
  const double day = median(day_s);
  const double serial_day = median(serial_day_s);
  layer("workload.scenario_s", "s", [](const DayReplay& r) { return r.scenario_s; });
  layer("workload.gen_s", "s", [](const DayReplay& r) { return r.gen_s; });
  layer("resolver.warmup_s", "s", [](const DayReplay& r) { return r.warmup_s; });
  layer("resolver.query_s", "s", [](const DayReplay& r) { return r.query_s; });
  layer("resolver.hit_ratio", "ratio", [](const DayReplay& r) {
    return r.lookups == 0 ? 0.0
                          : static_cast<double>(r.hits) /
                                static_cast<double>(r.lookups);
  });
  layer("capture.ingest_s", "s", [](const DayReplay& r) { return r.ingest_s; });
  layer("capture.allocs_per_event", "allocs", [](const DayReplay& r) {
    return r.events == 0 ? 0.0
                         : static_cast<double>(r.ingest_allocs) /
                               static_cast<double>(r.events);
  });
  layer("capture.events", "count",
        [](const DayReplay& r) { return static_cast<double>(r.events); });
  layer("capture.unique_queried", "count", [](const DayReplay& r) {
    return static_cast<double>(r.unique_queried);
  });
  layer("capture.unique_resolved", "count", [](const DayReplay& r) {
    return static_cast<double>(r.unique_resolved);
  });
  layer("engine.merge_s", "s", [](const DayReplay& r) { return r.merge_s; });
  layer("engine.shard_skew", "ratio", [](const DayReplay& r) {
    double sum = 0.0, max = 0.0;
    for (const double s : r.shard_s) {
      sum += s;
      max = std::max(max, s);
    }
    return sum == 0.0 ? 0.0
                      : max / (sum / static_cast<double>(r.shard_s.size()));
  });
  layer("engine.serial_fraction", "ratio",
        [day](const DayReplay& r) { return r.serial_s() / day; });
  report.add("engine.speedup", serial_day / day, "ratio");
  report.add("engine.cpu_s", median(cpu_s), "s");
  report.add("engine.day_s", day, "s");
  layer("miner.label_s", "s", [](const DayReplay& r) { return r.label_s; });
  layer("ml.train_s", "s", [](const DayReplay& r) { return r.train_s; });
  layer("miner.classify_s", "s", [](const DayReplay& r) { return r.classify_s; });
  layer("miner.evaluate_s", "s", [](const DayReplay& r) { return r.evaluate_s; });
  layer("miner.aggregate_s", "s", [](const DayReplay& r) { return r.aggregate_s; });
  report.add("ledger.serial_day_s", serial_day, "s");
  layer("ledger.residual_share", "ratio", [serial_day](const DayReplay& r) {
    return residual_share(serial_day, r.layers_s());
  });
  layer("trace.overhead_share", "ratio", [serial_day](const DayReplay& r) {
    return (r.wall_s - serial_day) / serial_day;
  });
}

}  // namespace perfbench
