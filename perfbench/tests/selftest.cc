// Self-tests of the benchmark harness: the findings check, generator
// lateness and open-loop latency on a synthetic schedule, the allocation
// counter, and the ledger residual.  Run with
//
//   python3 perfbench/run.py --self-test
//
// (or ctest in the perfbench build directory).  Exits non-zero when any
// check fails.
#include <cmath>
#include <cstdio>
#include <new>
#include <string>
#include <vector>

#include "harness/harness.h"
#include "harness/transport.h"

namespace {

int g_failures = 0;

void expect(bool ok, const char* test, const std::string& what) {
  std::printf("%s %s: %s\n", ok ? "ok  " : "FAIL", test, what.c_str());
  if (!ok) ++g_failures;
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<dnsnoise::DisposableZoneFinding> sample_findings() {
  std::vector<dnsnoise::DisposableZoneFinding> findings(3);
  findings[0].zone = "example.com";
  findings[0].depth = 4;
  findings[1].zone = "akamai.net";
  findings[1].depth = 5;
  findings[2].zone = "t.example.org";
  findings[2].depth = 6;
  return findings;
}

void fingerprint_check() {
  const char* test = "fingerprint";
  const auto findings = sample_findings();
  const std::string reference = perfbench::fingerprint(findings);
  expect(reference == "akamai.net 5\nexample.com 4\nt.example.org 6\n", test,
         "sorted (zone, depth) lines");

  auto reordered = findings;
  std::swap(reordered[0], reordered[2]);
  reordered[0].confidence = 0.5;
  {
    perfbench::Outcome outcome;
    perfbench::FindingsCheck check(reference, perfbench::kReferenceSeed);
    expect(check.check(true, reordered, outcome) && outcome.failed == 0,
           test, "ranking and confidence changes still pass");
  }

  auto deeper = findings;
  deeper[1].depth = 6;
  auto dropped = findings;
  dropped.pop_back();
  auto renamed = findings;
  renamed[0].zone = "example.net";
  for (const auto* perturbed : {&deeper, &dropped, &renamed}) {
    perfbench::Outcome outcome;
    perfbench::FindingsCheck check(reference, perfbench::kReferenceSeed);
    const bool passed = check.check(true, *perturbed, outcome);
    expect(!passed && outcome.failed == 1 && outcome.attempted == 1 &&
               !outcome.correct,
           test, "a perturbed list fails against the recorded fingerprint");
  }

  // Another seed has no recorded fingerprint: its days must agree with
  // the first one.
  perfbench::Outcome outcome;
  perfbench::FindingsCheck check(reference, perfbench::kReferenceSeed + 1);
  const bool first = check.check(true, deeper, outcome);
  const bool same = check.check(true, deeper, outcome);
  const bool changed = check.check(true, findings, outcome);
  expect(first && same && !changed && outcome.attempted == 3 &&
             outcome.failed == 1,
         test, "days of one seed must agree with its first day");

  perfbench::Outcome empty_outcome;
  perfbench::FindingsCheck empty_check(reference, 7);
  expect(!empty_check.check(true, {}, empty_outcome) &&
             !empty_check.check(false, findings, empty_outcome),
         test, "an empty or failed day fails");
}

void lateness() {
  const char* test = "lateness";
  // Fixed-rate schedule, gap 100 ns, origin 1000 ns; the extra delays are
  // the lateness the harness must recover.
  const std::vector<std::int64_t> late = {0, 0, 30, 5, 0, 250};
  std::vector<std::int64_t> sends;
  for (std::size_t k = 0; k < late.size(); ++k) {
    sends.push_back(1000 + static_cast<std::int64_t>(k) * 100 + late[k]);
  }
  const std::vector<double> got = perfbench::lateness_ns(sends, 100);
  bool exact = got.size() == late.size();
  for (std::size_t k = 0; exact && k < late.size(); ++k) {
    exact = near(got[k], static_cast<double>(late[k]));
  }
  expect(exact, test, "send minus (first send + k * gap)");

  // A late first send: the schedule origin comes from the on-time sends,
  // so the first send carries its own lateness and the rest read zero.
  const std::vector<double> shifted =
      perfbench::lateness_ns(std::vector<std::int64_t>{1040, 1100, 1200, 1300},
                             100);
  expect(shifted.size() == 4 && near(shifted[0], 40) && near(shifted[1], 0) &&
             near(shifted[3], 0),
         test, "a late first send does not make later sends early");
  expect(perfbench::lateness_ns({}, 100).empty(), test, "no sends");

  // Open-loop latency is measured from the scheduled send, not the
  // actual one: a late send's wait counts.
  perfbench::ConnectionLog log;
  log.gap_ns = 100;
  log.send_ns = {1000, 1100, 1250};  // third send 50 ns late
  log.answer_index = {0, 2, 1};
  log.answer_ns = {1010, 1270, 1150};
  const std::vector<double> latency = perfbench::open_loop_latency_ns(log);
  expect(latency.size() == 3 && near(latency[0], 10) && near(latency[1], 70) &&
             near(latency[2], 50),
         test, "open-loop latency from the scheduled send");
}

void allocation_counter() {
  const char* test = "alloc_counter";
  const std::uint64_t before = perfbench::thread_allocations();
  void* volatile p = ::operator new(64);
  const std::uint64_t after_one = perfbench::thread_allocations();
  ::operator delete(p);
  expect(after_one - before == 1, test, "one operator new counts once");

  const std::uint64_t before_vector = perfbench::thread_allocations();
  std::vector<int> values;
  values.reserve(1000);
  values.push_back(1);
  const std::uint64_t after_vector = perfbench::thread_allocations();
  expect(after_vector - before_vector == 1 && values.size() == 1, test,
         "a vector reserve allocates once");

  const std::uint64_t before_free = perfbench::thread_allocations();
  values.clear();
  values.shrink_to_fit();
  const bool unchanged = perfbench::thread_allocations() == before_free;
  expect(unchanged, test, "freeing is not counted");
}

void ledger_residual() {
  const char* test = "ledger_residual";
  const double layers[] = {2.0, 3.0, 4.0};
  expect(near(perfbench::residual_share(10.0, layers), 0.1), test,
         "(10 - (2 + 3 + 4)) / 10 = 0.1");
  const double over[] = {6.0, 6.0};
  expect(near(perfbench::residual_share(10.0, over), -0.2), test,
         "layers summing past the total give a negative residual");
  expect(near(perfbench::residual_share(0.0, layers), 0.0), test,
         "a zero total gives 0, not a division by zero");
}

void answer_check() {
  const char* test = "answer_check";
  std::vector<std::uint8_t> header(12, 0);
  header[2] = 0x81;  // QR, RD
  header[3] = 0x80;  // RA, NOERROR
  header[7] = 1;     // ANCOUNT 1
  expect(perfbench::valid_answer(header), test, "NOERROR with one answer");
  auto query = header;
  query[2] = 0x01;
  expect(!perfbench::valid_answer(query), test, "a query is not an answer");
  auto nxdomain = header;
  nxdomain[3] = 0x83;
  expect(!perfbench::valid_answer(nxdomain), test, "NXDOMAIN fails");
  auto empty = header;
  empty[7] = 0;
  expect(!perfbench::valid_answer(empty), test, "no answer records fails");
  expect(!perfbench::valid_answer(std::vector<std::uint8_t>(11, 0)), test,
         "short datagram fails");
}

void quantiles() {
  const char* test = "quantile";
  expect(near(perfbench::median({3.0, 1.0, 2.0}), 2.0), test, "odd median");
  expect(near(perfbench::median({4.0, 1.0, 2.0, 3.0}), 2.5), test,
         "even median interpolates");
  expect(near(perfbench::quantile({0.0, 10.0}, 0.99), 9.9), test,
         "p99 interpolates");
  expect(near(perfbench::median({}), 0.0), test, "empty sample");
}

}  // namespace

int main() {
  fingerprint_check();
  lateness();
  allocation_counter();
  ledger_residual();
  answer_check();
  quantiles();
  std::printf("%s: %d failure(s)\n", g_failures == 0 ? "PASS" : "FAIL",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}
