#include "harness/harness.h"

#include <sched.h>
#include <sys/resource.h>
#include <sys/utsname.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(" \t", colon + 1));
      }
    }
  }
  return "unknown";
}

}  // namespace

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::string fingerprint(
    std::span<const dnsnoise::DisposableZoneFinding> findings) {
  std::vector<std::string> lines;
  lines.reserve(findings.size());
  for (const dnsnoise::DisposableZoneFinding& finding : findings) {
    lines.push_back(finding.zone + ' ' + std::to_string(finding.depth));
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

bool FindingsCheck::check(
    bool ok, std::span<const dnsnoise::DisposableZoneFinding> findings,
    Outcome& outcome) {
  ++outcome.attempted;
  const std::string print = fingerprint(findings);
  bool pass = ok && !findings.empty();
  if (pass && first_.empty()) first_ = print;
  pass = pass && print == first_ &&
         (seed_ != kReferenceSeed || print == reference_);
  if (!pass) {
    ++outcome.failed;
    outcome.correct = false;
  }
  return pass;
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream text;
  text << in.rdbuf();
  out = text.str();
  return true;
}

std::vector<double> lateness_ns(std::span<const std::int64_t> send_ns,
                                std::int64_t gap_ns) {
  std::vector<double> out;
  if (send_ns.empty()) return out;
  // run_load never sends early, so the schedule's origin is the earliest
  // (send_k - k * gap); anchoring there instead of at the first send keeps
  // a late first send from making every later send look early.
  std::int64_t origin = send_ns.front();
  for (std::size_t k = 0; k < send_ns.size(); ++k) {
    origin = std::min(origin,
                      send_ns[k] - static_cast<std::int64_t>(k) * gap_ns);
  }
  out.reserve(send_ns.size());
  for (std::size_t k = 0; k < send_ns.size(); ++k) {
    const std::int64_t due = origin + static_cast<std::int64_t>(k) * gap_ns;
    out.push_back(static_cast<double>(send_ns[k] - due));
  }
  return out;
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  out.flush();
  return static_cast<bool>(out);
}

double residual_share(double total_s, std::span<const double> layers_s) {
  if (total_s <= 0.0) return 0.0;
  double sum = 0.0;
  for (const double layer : layers_s) sum += layer;
  return (total_s - sum) / total_s;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

bool pin_current_thread(std::span<const int> cpus) { return pin_thread(0, cpus); }

bool pin_thread(int tid, std::span<const int> cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  return sched_setaffinity(tid, sizeof(set), &set) == 0;
}

std::string cpu_list(std::span<const int> cpus) {
  if (cpus.empty()) return "none";
  bool contiguous = true;
  for (std::size_t i = 1; i < cpus.size(); ++i) {
    contiguous = contiguous && cpus[i] == cpus[i - 1] + 1;
  }
  if (contiguous && cpus.size() > 1) {
    return std::to_string(cpus.front()) + '-' + std::to_string(cpus.back());
  }
  std::string out;
  for (const int cpu : cpus) {
    if (!out.empty()) out += ',';
    out += std::to_string(cpu);
  }
  return out;
}

std::string machine_json(const std::string& workload, std::uint64_t seed,
                         const std::string& placement) {
  utsname name{};
  uname(&name);
  std::ostringstream out;
  out << "{\"machine\": {\"nproc\": " << allowed_cpus().size()
      << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
      << ", \"cpu_model\": \"" << json_escape(cpu_model())
      << "\", \"kernel\": \"" << json_escape(name.release)
      << "\", \"compiler\": \"" << json_escape("g++ " __VERSION__)
      << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
      << "\"}, \"workload\": \"" << json_escape(workload)
      << "\", \"seed\": " << seed << ", \"placement\": \""
      << json_escape(placement) << "\"}";
  return out.str();
}

void Report::add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

std::string Report::json(bool correct, std::uint64_t attempted,
                         std::uint64_t failed) const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& metric = metrics_[i];
    char value[64];
    // Non-finite values are not JSON; report them as 0 (never expected).
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    out << (i == 0 ? "" : ", ") << '"' << json_escape(metric.name)
        << "\": {\"value\": " << value << ", \"unit\": \""
        << json_escape(metric.unit) << "\"}";
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
