#include "harness/transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "dns/message.h"
#include "dns/wire.h"

namespace perfbench {

namespace {

std::int64_t ns_since(Clock::time_point origin) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin)
      .count();
}

std::uint16_t wire_id(std::span<const std::uint8_t> wire) {
  return static_cast<std::uint16_t>((wire[0] << 8) | wire[1]);
}

sockaddr_in loopback(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

/// A UDP socket connected to 127.0.0.1:`port` from `source_port` (0 lets
/// the kernel pick); -1 on failure.
int connect_udp(std::uint16_t port, std::uint16_t source_port) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  const sockaddr_in source = loopback(source_port);
  const sockaddr_in target = loopback(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&source),
             sizeof(source)) != 0 ||
      ::connect(fd, reinterpret_cast<const sockaddr*>(&target),
                sizeof(target)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

std::uint16_t local_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return 0;
  }
  return ntohs(addr.sin_port);
}

/// CPU time a thread of this process has run, in ns (schedstat).
std::uint64_t thread_run_ns(int tid) {
  std::ifstream in("/proc/self/task/" + std::to_string(tid) + "/schedstat");
  std::uint64_t run_ns = 0;
  in >> run_ns;
  return run_ns;
}

}  // namespace

std::vector<double> open_loop_latency_ns(const ConnectionLog& log) {
  std::vector<double> out;
  if (log.send_ns.empty()) return out;
  const std::vector<double> late = lateness_ns(log.send_ns, log.gap_ns);
  out.reserve(log.answer_ns.size());
  for (std::size_t i = 0; i < log.answer_ns.size(); ++i) {
    const auto k = static_cast<std::size_t>(log.answer_index[i]);
    if (k >= log.send_ns.size()) continue;
    const double due = static_cast<double>(log.send_ns[k]) - late[k];
    out.push_back(static_cast<double>(log.answer_ns[i]) - due);
  }
  return out;
}

bool valid_answer(std::span<const std::uint8_t> datagram) {
  if (datagram.size() < 12) return false;
  const bool qr = (datagram[2] & 0x80) != 0;
  const unsigned rcode = datagram[3] & 0x0f;
  const unsigned ancount = (datagram[6] << 8) | datagram[7];
  return qr && rcode == 0 && ancount >= 1;
}

PollTransport::PollTransport(ConnectionLog& log) : log_(log) {}

PollTransport::~PollTransport() {
  if (fd_ >= 0) ::close(fd_);
}

bool PollTransport::connect(std::uint16_t port, std::uint16_t source_port) {
  fd_ = connect_udp(port, source_port);
  return fd_ >= 0;
}

bool PollTransport::send(std::span<const std::uint8_t> wire) {
  if (wire.size() < 2) return false;
  if (!placed_) {
    // run_load's worker thread makes the first send: give it a CPU of
    // its own so two spinning workers never share one.
    placed_ = true;
    if (log_.cpu >= 0) {
      const int cpu[] = {log_.cpu};
      if (!pin_current_thread(cpu)) return false;
    }
  }
  const std::int64_t now_ns = ns_since(log_.origin);
  if (::send(fd_, wire.data(), wire.size(), 0) !=
      static_cast<ssize_t>(wire.size())) {
    return false;
  }
  outstanding_[wire_id(wire)] = next_index_++;
  if (log_.gap_ns > 0) log_.send_ns.push_back(now_ns);
  if (log_.record_queries) log_.queries.emplace_back(wire.begin(), wire.end());
  return true;
}

std::optional<std::vector<std::uint8_t>> PollTransport::receive(
    int timeout_ms) {
  pollfd pfd{fd_, POLLIN, 0};
  if (log_.spin) {
    // Spin on a zero-timeout poll until the deadline, so an answer never
    // waits for this thread to be woken.
    const Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(std::max(timeout_ms, 0));
    for (;;) {
      const int ready = ::poll(&pfd, 1, 0);
      if (ready > 0) break;
      if (ready < 0 && errno != EINTR) return std::nullopt;
      if (Clock::now() >= deadline) return std::nullopt;
    }
  } else {
    int ready = 0;
    do {
      ready = ::poll(&pfd, 1, std::max(timeout_ms, 0));
    } while (ready < 0 && errno == EINTR);
    if (ready <= 0) return std::nullopt;
  }
  const ssize_t n =
      ::recv(fd_, buffer_.data(), buffer_.size(), MSG_DONTWAIT | MSG_TRUNC);
  if (n < 0) return std::nullopt;
  const std::int64_t now_ns = ns_since(log_.origin);
  const std::size_t size =
      std::min(static_cast<std::size_t>(n), buffer_.size());
  const std::span<const std::uint8_t> datagram(buffer_.data(), size);

  std::int64_t index = -1;
  if (size >= 2) {
    std::int64_t& slot = outstanding_[wire_id(datagram)];
    index = slot;
    slot = -1;
  }
  if (index < 0 || static_cast<std::size_t>(n) > buffer_.size() ||
      !valid_answer(datagram)) {
    ++log_.invalid;
  } else {
    ++log_.answers;
    if (log_.gap_ns > 0) {
      log_.answer_index.push_back(index);
      log_.answer_ns.push_back(now_ns);
    }
  }
  return std::vector<std::uint8_t>(datagram.begin(), datagram.end());
}

dnsnoise::loadgen::TransportFactory poll_transports(
    std::vector<ConnectionLog>& logs, std::uint16_t port,
    const std::vector<std::uint16_t>& source_ports) {
  return [&logs, &source_ports, port](std::size_t connection)
             -> std::unique_ptr<dnsnoise::loadgen::QueryTransport> {
    if (connection >= logs.size() || connection >= source_ports.size()) {
      return nullptr;
    }
    auto transport = std::make_unique<PollTransport>(logs[connection]);
    if (!transport->connect(port, source_ports[connection])) return nullptr;
    return transport;
  };
}

std::vector<int> thread_ids() {
  std::vector<int> tids;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    tids.push_back(std::stoi(entry.path().filename().string()));
  }
  std::sort(tids.begin(), tids.end());
  return tids;
}

ShardSpread spread_over_shards(std::uint16_t port,
                               std::span<const int> server_threads,
                               std::size_t shards, const std::string& qname,
                               std::size_t probes) {
  const auto name = dnsnoise::DomainName::parse(qname);
  if (!name) throw std::runtime_error("bad probe name " + qname);
  std::vector<std::uint8_t> query = dnsnoise::encode_message(
      dnsnoise::DnsMessage::make_query(0, *name, dnsnoise::RRType::A));
  std::array<std::uint8_t, 2048> buffer{};

  ShardSpread spread;
  const int max_tries = 16 * static_cast<int>(shards);
  for (int attempt = 0; attempt < max_tries && spread.ports.size() < shards;
       ++attempt) {
    const int fd = connect_udp(port, 0);
    if (fd < 0) throw std::runtime_error("probe socket failed");
    std::vector<std::uint64_t> before;
    for (const int tid : server_threads) before.push_back(thread_run_ns(tid));
    for (std::size_t i = 0; i < probes; ++i) {
      query[0] = static_cast<std::uint8_t>(i >> 8);
      query[1] = static_cast<std::uint8_t>(i);
      pollfd pfd{fd, POLLIN, 0};
      if (::send(fd, query.data(), query.size(), 0) < 0 ||
          ::poll(&pfd, 1, 1000) <= 0 ||
          ::recv(fd, buffer.data(), buffer.size(), 0) < 0) {
        ::close(fd);
        throw std::runtime_error("probe query unanswered");
      }
    }
    int busiest = -1;
    std::uint64_t most = 0;
    for (std::size_t t = 0; t < server_threads.size(); ++t) {
      const std::uint64_t ran = thread_run_ns(server_threads[t]) - before[t];
      if (ran > most) {
        most = ran;
        busiest = server_threads[t];
      }
    }
    if (busiest >= 0 &&
        std::find(spread.shard_threads.begin(), spread.shard_threads.end(),
                  busiest) == spread.shard_threads.end()) {
      spread.shard_threads.push_back(busiest);
      spread.ports.push_back(local_port(fd));
    }
    ::close(fd);
  }
  if (spread.ports.size() < shards) {
    throw std::runtime_error("could not reach every socket shard");
  }
  return spread;
}

}  // namespace perfbench
