// The benchmark's own loadgen::QueryTransport: a connected UDP socket that
// waits with poll(2) (spinning on a zero timeout when the generator has
// CPUs of its own), receives into one reused buffer, and checks every
// answer it hands to loadgen::run_load.
//
// The transport also keeps the per-connection timeline run_load does
// not expose: actual send times (so generator lateness is measured per
// query against the fixed-rate schedule), open-loop latency from each
// query's scheduled send, and optionally the query bytes themselves for
// the in-process replay of the served ledger.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "harness/harness.h"
#include "loadgen/driver.h"

namespace perfbench {

/// What one connection saw during one load pass.  run_load owns (and
/// destroys) the transports, so the transport writes here and the harness
/// reads it after run_load returns.
struct ConnectionLog {
  /// Fixed-rate gap of this connection's schedule in ns; 0 for a closed
  /// loop, which has no schedule (no lateness or latency is recorded).
  std::int64_t gap_ns = 0;
  /// Common origin of every ns stamp below.
  Clock::time_point origin{};
  /// Keep a copy of every query sent (served-ledger replay).
  bool record_queries = false;
  /// Wait for answers by spinning on a zero-timeout poll instead of
  /// sleeping in poll; only worth it when the generator has CPUs of its
  /// own, since it keeps them busy.
  bool spin = false;
  /// CPU the connection's worker thread pins itself to on its first send
  /// (-1: leave the thread where it is).
  int cpu = -1;

  std::vector<std::int64_t> send_ns;  // actual send times, in order
  /// Open loop: the send index and arrival time of each valid answer.
  std::vector<std::int64_t> answer_index;
  std::vector<std::int64_t> answer_ns;
  std::vector<std::vector<std::uint8_t>> queries;  // when record_queries
  std::uint64_t answers = 0;  // answers that passed every check
  std::uint64_t invalid = 0;  // answers that failed a check (see below)
};

/// Open-loop latency of each valid answer in `log`, in ns: arrival minus
/// the query's scheduled send, on the schedule lateness_ns() infers.
std::vector<double> open_loop_latency_ns(const ConnectionLog& log);

/// Checks one answer datagram's header: the QR bit, RCODE NOERROR and at
/// least one answer record.  PollTransport also requires the answer's id
/// to match a query outstanding on its connection.
bool valid_answer(std::span<const std::uint8_t> datagram);

class PollTransport final : public dnsnoise::loadgen::QueryTransport {
 public:
  explicit PollTransport(ConnectionLog& log);
  ~PollTransport() override;

  PollTransport(const PollTransport&) = delete;
  PollTransport& operator=(const PollTransport&) = delete;

  /// Connects to 127.0.0.1:`port`, from `source_port` when non-zero.
  bool connect(std::uint16_t port, std::uint16_t source_port = 0);

  bool send(std::span<const std::uint8_t> wire) override;
  std::optional<std::vector<std::uint8_t>> receive(int timeout_ms) override;

 private:
  static constexpr std::size_t kIdSpace = 65536;

  int fd_ = -1;
  ConnectionLog& log_;
  /// Schedule index of the query outstanding under each DNS id (-1 free).
  std::vector<std::int64_t> outstanding_ =
      std::vector<std::int64_t>(kIdSpace, -1);
  std::int64_t next_index_ = 0;
  bool placed_ = false;
  /// Responses are at most 512 bytes (the frontend truncates above that);
  /// anything longer is cut and fails the check.
  std::array<std::uint8_t, 2048> buffer_{};
};

/// A factory for run_load that connects one PollTransport per connection
/// to `port` from `source_ports[connection]`, logging into
/// `logs[connection]` (both must outlive the run_load call).
dnsnoise::loadgen::TransportFactory poll_transports(
    std::vector<ConnectionLog>& logs, std::uint16_t port,
    const std::vector<std::uint16_t>& source_ports);

/// One client source port per socket shard of the server at `port`.
/// SO_REUSEPORT steers each client 4-tuple to a shard by hash, so two
/// clients land on one shard half of the time and leave the other idle,
/// which makes closed-loop throughput bimodal across processes.  For each
/// candidate port this sends `probes` queries for `qname` and credits them
/// to whichever of `server_threads` (kernel thread ids) gained the most
/// CPU time; it keeps one port per distinct thread until all `shards` are
/// reached.  Throws when that takes more than a bounded number of tries.
struct ShardSpread {
  std::vector<std::uint16_t> ports;  // port i reaches shard i
  std::vector<int> shard_threads;    // the thread serving shard i
};
ShardSpread spread_over_shards(std::uint16_t port,
                               std::span<const int> server_threads,
                               std::size_t shards, const std::string& qname,
                               std::size_t probes);

/// Kernel thread ids of this process's threads.
std::vector<int> thread_ids();

}  // namespace perfbench
