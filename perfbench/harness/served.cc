// The served half of the ledger: a served day under src/loadgen.
#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "dns/wire.h"
#include "engine/parallel_miner.h"
#include "harness/transport.h"
#include "harness/workloads.h"
#include "loadgen/driver.h"
#include "util/rng.h"

namespace perfbench {

using namespace dnsnoise;

namespace {

// Load shape.  The load names live in a zone of their own, registered
// through DnsServerOptions::authority_hook, with a 1 s TTL: a name is a
// cache miss the first time it is asked in each second, so the Zipf tail
// keeps cache inserts and capture writes next to hit reads at a share
// that does not drift as a run gets longer.
constexpr char kLoadZone[] = "load.test";
constexpr std::uint32_t kLoadTtl = 1;
constexpr std::size_t kNamePopulation = 100'000;
constexpr double kZipfS = 1.0;
/// One connection per socket shard (see spread_over_shards).
constexpr std::size_t kSocketShards = 2;
constexpr std::size_t kConnections = kSocketShards;
/// Closed loop: queries per pass, all connections together.
constexpr std::uint64_t kClosedQueries = 80'000;
/// Open loop: one fixed absolute rate, never derived from a measurement,
/// so every commit is offered the same load.
constexpr double kOpenRate = 10'000.0;
constexpr std::uint64_t kOpenQueries = 10'000;
/// Closed-loop passes of the served ledger (median reported).
constexpr std::size_t kClosedPasses = 3;
/// Queries per candidate source port when steering the connections onto
/// the socket shards.
constexpr std::size_t kProbeQueries = 300;

struct PassResult {
  std::uint64_t sent = 0;
  std::uint64_t lost = 0;
  std::uint64_t invalid = 0;
  double qps = 0.0;
  std::vector<double> latency_ns;  // open loop, from the scheduled send
  std::vector<double> lateness_ns;
  std::vector<ConnectionLog> logs;
};

/// A ServedMiningDay of one date with the load zone and session metrics
/// (so the frontend's stage clocks run), the server threads on one half
/// of the CPUs and the generator on the other.
class ServedRig {
 public:
  ServedRig(const RunOptions& options, ScenarioDate date)
      : seed_(options.seed) {
    ScenarioScale scale;
    scale.seed = options.seed;
    session_.scale(scale);
    session_.threads(std::min<std::size_t>(4, all_cpus_.size()));
    session_.enable_metrics();
    DnsServerOptions server;
    server.socket_shards = kSocketShards;
    server.authority_hook = [](SyntheticAuthority& authority) {
      authority.register_zone(*DomainName::parse(kLoadZone),
                              SyntheticAuthority::make_flat_a_zone(kLoadTtl));
    };
    session_.enable_dns_server(true, 0, server);

    const std::vector<int>& cpus = all_cpus_;
    const bool split = cpus.size() >= 4;
    const std::size_t half = cpus.size() / 2;
    const std::vector<int> generator(cpus.begin(), cpus.begin() + half);
    const std::vector<int> serving(cpus.begin() + half, cpus.end());
    // Threads inherit the creating thread's mask: pin before serve() so
    // the socket shards start on the serving half, then move this thread
    // (and the loadgen workers it will create) to the other half.
    if (split && !pin_current_thread(serving)) {
      throw std::runtime_error("cannot pin the serving CPUs");
    }
    const std::vector<int> threads_before = thread_ids();
    day_ = session_.serve(date);
    if (day_ == nullptr || !day_->ok()) {
      throw std::runtime_error("served day failed to start: " +
                               (day_ ? day_->error() : std::string("null")));
    }
    std::vector<int> server_threads;
    for (const int tid : thread_ids()) {
      if (!std::binary_search(threads_before.begin(), threads_before.end(),
                              tid)) {
        server_threads.push_back(tid);
      }
    }
    const ShardSpread spread = spread_over_shards(
        day_->udp_port(), server_threads, kSocketShards,
        std::string("probe.") + kLoadZone, kProbeQueries);
    source_ports_ = spread.ports;
    if (split) {
      // One CPU per shard thread and per loadgen worker, so two busy
      // threads never share a CPU while the other idles.
      for (std::size_t i = 0; i < spread.shard_threads.size(); ++i) {
        const int cpu[] = {serving[i % serving.size()]};
        if (!pin_thread(spread.shard_threads[i], cpu)) {
          throw std::runtime_error("cannot pin a socket-shard thread");
        }
      }
      for (std::size_t i = 0; i < kConnections; ++i) {
        worker_cpus_.push_back(generator[i % generator.size()]);
      }
      if (!pin_current_thread(generator)) {
        throw std::runtime_error("cannot pin the generator CPUs");
      }
    }
    pinned_ = split;
    placement_ = (split ? "server=" + cpu_list(serving) +
                              " (one shard thread per CPU) generator=" +
                              cpu_list(generator) + " (one worker per CPU)"
                        : std::string("unpinned (nproc < 4)")) +
                 " connections=one per socket shard";
  }

  // Hands the whole machine back to this thread (and to the threads it
  // creates from now on).
  ~ServedRig() { pin_current_thread(all_cpus_); }

  ServedRig(const ServedRig&) = delete;
  ServedRig& operator=(const ServedRig&) = delete;

  const std::string& placement() const noexcept { return placement_; }
  ServedMiningDay& day() noexcept { return *day_; }
  const PipelineOptions& options() const noexcept { return session_.options(); }

  PassResult closed_pass() { return pass(loadgen::LoopMode::kClosed, false); }
  PassResult open_pass(bool record) {
    return pass(loadgen::LoopMode::kOpen, record);
  }

 private:
  PassResult pass(loadgen::LoopMode mode, bool record) {
    loadgen::LoadgenConfig config;
    config.mode = mode;
    config.connections = kConnections;
    config.workload.arrival = loadgen::ArrivalProcess::kFixedRate;
    config.workload.offered_qps = kOpenRate;
    config.workload.keys = loadgen::KeyDistribution::kZipf;
    config.workload.zipf_s = kZipfS;
    config.workload.name_count = kNamePopulation;
    config.workload.name_suffix = std::string(".") + kLoadZone;
    config.queries = mode == loadgen::LoopMode::kOpen ? kOpenQueries
                                                      : kClosedQueries;
    config.seed = shard_seed(seed_, passes_++);

    PassResult out;
    out.logs.resize(kConnections);
    // run_load splits the offered rate evenly over the connections, so
    // each connection's schedule has this fixed gap (Workload's own rule).
    loadgen::WorkloadConfig per_connection = config.workload;
    per_connection.offered_qps = kOpenRate / kConnections;
    Rng unused(0);
    const auto gap_ns = static_cast<std::int64_t>(
        loadgen::Workload(per_connection).next_gap_ns(unused));
    const Clock::time_point origin = Clock::now();
    for (std::size_t i = 0; i < out.logs.size(); ++i) {
      ConnectionLog& log = out.logs[i];
      log.origin = origin;
      log.record_queries = record;
      log.spin = pinned_;
      log.cpu = pinned_ ? worker_cpus_[i] : -1;
      if (mode == loadgen::LoopMode::kOpen) {
        log.gap_ns = gap_ns;
        log.send_ns.reserve(config.queries);
        log.answer_index.reserve(config.queries);
        log.answer_ns.reserve(config.queries);
      }
    }
    const loadgen::LoadgenResult result =
        loadgen::run_load(config, poll_transports(out.logs, day_->udp_port(),
                                                  source_ports_));
    if (!result.ok) throw std::runtime_error("load pass failed: " + result.error);
    out.sent = result.sent;
    out.lost = result.lost;
    out.qps = result.achieved_qps;
    for (const ConnectionLog& log : out.logs) {
      out.invalid += log.invalid;
      const std::vector<double> latency = open_loop_latency_ns(log);
      out.latency_ns.insert(out.latency_ns.end(), latency.begin(),
                            latency.end());
      const std::vector<double> late = lateness_ns(log.send_ns, log.gap_ns);
      out.lateness_ns.insert(out.lateness_ns.end(), late.begin(), late.end());
    }
    return out;
  }

  const std::vector<int> all_cpus_ = allowed_cpus();
  std::uint64_t seed_;
  std::uint64_t passes_ = 0;
  MiningSession session_;
  std::unique_ptr<ServedMiningDay> day_;
  std::vector<std::uint16_t> source_ports_;
  std::vector<int> worker_cpus_;  // per connection; empty when unpinned
  bool pinned_ = false;
  std::string placement_;
};

/// Counts a pass's queries and failures (lost or failed-check answers).
void account(const PassResult& pass, Outcome& outcome) {
  outcome.attempted += pass.sent;
  const std::uint64_t failed = pass.lost + pass.invalid;
  outcome.failed += failed;
  if (failed != 0) outcome.correct = false;
}

/// The served path's steps for each recorded query, in process and
/// single-threaded: no socket and no mutex, so the gap to the frontend's
/// own stage clocks is transport and lock wait.
struct ServedReplay {
  std::vector<double> decode_ns, query_view_ns, encode_ns;
  std::uint64_t queries = 0;
  std::uint64_t allocations = 0;
  double hit_ratio = 0.0;
};

ServedReplay replay_queries(const PipelineOptions& options, ScenarioDate date,
                            const std::vector<ConnectionLog>& logs) {
  Scenario scenario(date, options.scale);
  scenario.authority_mut().register_zone(
      *DomainName::parse(kLoadZone),
      SyntheticAuthority::make_flat_a_zone(kLoadTtl));
  RdnsCluster cluster(options.cluster, scenario.authority());
  const std::int64_t day = scenario_day_index(date);
  DayCapture capture(options.capture);
  capture.start_day(day);
  capture.attach(cluster);

  ServedReplay r;
  for (std::size_t c = 0; c < logs.size(); ++c) {
    const ConnectionLog& log = logs[c];
    for (std::size_t k = 0; k < log.queries.size(); ++k) {
      const std::vector<std::uint8_t>& wire = log.queries[k];
      const SimTime ts =
          day * kSecondsPerDay +
          (k < log.send_ns.size() ? log.send_ns[k] / 1'000'000'000 : 0);
      const std::uint64_t allocs = thread_allocations();
      const Clock::time_point t0 = Clock::now();
      auto query = decode_message(wire);
      if (!query || query->questions.size() != 1) {
        throw std::runtime_error("recorded query does not decode");
      }
      DnsMessage reply;
      reply.header.id = query->header.id;
      reply.header.qr = true;
      reply.header.rd = query->header.rd;
      reply.header.ra = true;
      reply.questions.push_back(query->questions.front());
      const Clock::time_point t1 = Clock::now();
      const QueryView view = cluster.query_view(mix64(c + 1),
                                                reply.questions.front(), ts);
      reply.header.rcode = view.rcode;
      reply.answers.assign(view.answers.begin(), view.answers.end());
      const Clock::time_point t2 = Clock::now();
      const std::vector<std::uint8_t> response = encode_message(reply);
      const Clock::time_point t3 = Clock::now();
      r.allocations += thread_allocations() - allocs;
      if (!valid_answer(response)) {
        throw std::runtime_error("replayed answer fails the check");
      }
      const auto ns = [](Clock::time_point a, Clock::time_point b) {
        return static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
                .count());
      };
      r.decode_ns.push_back(ns(t0, t1));
      r.query_view_ns.push_back(ns(t1, t2));
      r.encode_ns.push_back(ns(t2, t3));
      ++r.queries;
    }
  }
  capture.detach(cluster);
  r.hit_ratio = cluster.aggregate_stats().hit_rate();
  return r;
}

}  // namespace

void served_ledger(const RunOptions& options, ScenarioDate date,
                   double seconds, Outcome& outcome) {
  ServedRig rig(options, date);
  outcome.placement = rig.placement();
  account(rig.open_pass(false), outcome);  // warm-up pass
  const StageLatencyBreakdown before = rig.day().frontend().stage_latency();

  std::vector<double> latency_ns, lateness_ns;
  std::vector<ConnectionLog> recorded;
  const Clock::time_point start = Clock::now();
  do {
    PassResult pass = rig.open_pass(recorded.empty());
    account(pass, outcome);
    latency_ns.insert(latency_ns.end(), pass.latency_ns.begin(),
                      pass.latency_ns.end());
    lateness_ns.insert(lateness_ns.end(), pass.lateness_ns.begin(),
                       pass.lateness_ns.end());
    if (recorded.empty()) recorded = std::move(pass.logs);
  } while (seconds_between(start, Clock::now()) < seconds);

  const StageLatencyBreakdown after = rig.day().frontend().stage_latency();
  const auto p50 = [](const obs::LatencySnapshot& now,
                      const obs::LatencySnapshot& then) {
    return now.delta_since(then).quantile_ns(0.5);
  };
  const double server_total_ns = p50(after.total, before.total);
  const double p50_ns = quantile(latency_ns, 0.5);

  // Closed loop last, after the stage clocks were read, so the server.*
  // figures describe the open-loop load alone.
  std::vector<double> qps;
  for (std::size_t i = 0; i < kClosedPasses; ++i) {
    const PassResult closed = rig.closed_pass();
    account(closed, outcome);
    qps.push_back(closed.qps);
  }

  const ServedReplay replay = replay_queries(rig.options(), date, recorded);
  Report& report = outcome.report;
  report.add("server.decode_ns", p50(after.decode, before.decode), "ns");
  report.add("server.cluster_ns", p50(after.cluster, before.cluster), "ns");
  report.add("server.encode_ns", p50(after.encode, before.encode), "ns");
  report.add("server.total_ns", server_total_ns, "ns");
  report.add("dns.decode_ns", median(replay.decode_ns), "ns");
  report.add("resolver.query_view_ns", median(replay.query_view_ns), "ns");
  report.add("dns.encode_ns", median(replay.encode_ns), "ns");
  report.add("served.allocs_per_query",
             replay.queries == 0 ? 0.0
                                 : static_cast<double>(replay.allocations) /
                                       static_cast<double>(replay.queries),
             "allocs");
  report.add("served.hit_ratio", replay.hit_ratio, "ratio");
  report.add("served.qps", median(qps), "1/s");
  report.add("served.p50_us", p50_ns / 1000.0, "us");
  report.add("served.p99_us", quantile(latency_ns, 0.99) / 1000.0, "us");
  report.add("net.wait_share",
             p50_ns > 0.0 ? 1.0 - server_total_ns / p50_ns : 0.0, "ratio");
  report.add("loadgen.lateness_us.p50", quantile(lateness_ns, 0.5) / 1000.0,
             "us");
  report.add("loadgen.lateness_us.p99", quantile(lateness_ns, 0.99) / 1000.0,
             "us");
}

}  // namespace perfbench
