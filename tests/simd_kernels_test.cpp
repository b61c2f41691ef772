// Correctness and determinism tests for dnsnoise::kernels (DESIGN.md §15).
//
// Histograms: hist_build (one scalar counting loop) must reproduce a naive
// counting oracle byte for byte, and shannon_entropy must equal the shared
// reducer applied to that oracle, bit for bit.  Name normalization: every
// dispatch level (scalar, SSE2, AVX2 — whichever this build + CPU can run)
// must produce identical output.  A table-driven sweep covers the
// structural edge cases (lengths 0..255, one-symbol strings, the full
// byte alphabet including 0x00/0xff) and a seeded fuzz loop covers
// everything the table missed.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "dns/name_table.h"
#include "util/entropy.h"
#include "util/simd/kernels.h"

namespace dnsnoise::kernels {
namespace {

std::vector<DispatchLevel> available_levels() {
  std::vector<DispatchLevel> levels = {DispatchLevel::kScalar};
  if (level_available(DispatchLevel::kSse2)) {
    levels.push_back(DispatchLevel::kSse2);
  }
  if (level_available(DispatchLevel::kAvx2)) {
    levels.push_back(DispatchLevel::kAvx2);
  }
  return levels;
}

/// Reference entropy: the formula the repo used before the LUT rewrite,
/// H = -sum_c p_c log2 p_c.  The LUT path must agree to 1e-12.
double reference_entropy(std::string_view s) {
  if (s.size() <= 1) return 0.0;
  std::size_t counts[256] = {};
  for (const unsigned char c : s) ++counts[c];
  const double n = static_cast<double>(s.size());
  double h = 0.0;
  for (const std::size_t count : counts) {
    if (count == 0) continue;
    const double p = static_cast<double>(count) / n;
    h -= p * std::log2(p);
  }
  return h;
}

/// Naive counting oracle: the histogram hist_build must produce.
CharHist oracle_hist(std::string_view s) {
  CharHist hist;
  std::memset(&hist, 0, sizeof(hist));
  for (const unsigned char c : s) {
    ++hist.counts[c];
    hist.present[c / 64] |= std::uint64_t{1} << (c % 64);
  }
  return hist;
}

/// Asserts hist_build reproduces the oracle bit for bit (counts and
/// presence bitmap), and the one-shot entropy equals the shared reducer
/// over the oracle's histogram.
void expect_matches_oracle(std::string_view s) {
  const CharHist want = oracle_hist(s);
  CharHist got;
  hist_init(got);
  hist_build(got, s);
  EXPECT_EQ(0, std::memcmp(got.counts, want.counts, sizeof(got.counts)))
      << "counts diverge at len=" << s.size();
  EXPECT_EQ(0, std::memcmp(got.present, want.present, sizeof(got.present)))
      << "bitmap diverges at len=" << s.size();
  EXPECT_EQ(entropy_from_hist(want, s.size()), shannon_entropy(s))
      << "entropy diverges at len=" << s.size();
}

TEST(SimdKernelsTest, LevelNamesAndAvailability) {
  EXPECT_STREQ("scalar", level_name(DispatchLevel::kScalar));
  EXPECT_STREQ("sse2", level_name(DispatchLevel::kSse2));
  EXPECT_STREQ("avx2", level_name(DispatchLevel::kAvx2));
  EXPECT_TRUE(level_available(DispatchLevel::kScalar));
  // AVX2 without SSE2 is impossible.
  if (level_available(DispatchLevel::kAvx2)) {
    EXPECT_TRUE(level_available(DispatchLevel::kSse2));
  }
}

TEST(SimdKernelsTest, SetActiveLevel) {
  const DispatchLevel before = active_level();
  ASSERT_TRUE(set_active_level(DispatchLevel::kScalar));
  EXPECT_EQ(DispatchLevel::kScalar, active_level());
  ASSERT_TRUE(set_active_level(before));
  EXPECT_EQ(before, active_level());
}

TEST(SimdKernelsTest, HistogramCountsAreExact) {
  CharHist hist;
  hist_init(hist);
  hist_build(hist, "abracadabra");
  EXPECT_EQ(5u, hist.counts['a']);
  EXPECT_EQ(2u, hist.counts['b']);
  EXPECT_EQ(2u, hist.counts['r']);
  EXPECT_EQ(1u, hist.counts['c']);
  EXPECT_EQ(1u, hist.counts['d']);
  EXPECT_EQ(0u, hist.counts['e']);
  hist_reset(hist);
  for (int c = 0; c < 256; ++c) EXPECT_EQ(0u, hist.counts[c]) << c;
  for (int w = 0; w < 4; ++w) EXPECT_EQ(0u, hist.present[w]) << w;
}

TEST(SimdKernelsTest, TableDrivenParity) {
  const std::string_view cases[] = {
      "",
      "a",
      ".",
      "ab",
      "aa",
      "abc",
      "www",
      "r4nd0m-l4bel_x",
      "0123456789abcdef",                  // 16 bytes
      "0123456789abcdef0123456789abcdef",  // 32 bytes
      "the-quick-brown-fox-jumps-over-the-lazy-dog",
      "zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz",
  };
  for (const std::string_view s : cases) expect_matches_oracle(s);
}

TEST(SimdKernelsTest, ParityAcrossAllLengths) {
  // Lengths 0..255 with a rolling byte pattern, crossing every 16/32/64
  // byte boundary (15/16/17, 31/32/33, 63/64/65, ...).
  std::string s;
  for (std::size_t len = 0; len <= 255; ++len) {
    s.clear();
    for (std::size_t i = 0; i < len; ++i) {
      s.push_back(static_cast<char>('a' + (i * 7 + len) % 26));
    }
    expect_matches_oracle(s);
  }
}

TEST(SimdKernelsTest, ParityOnOneSymbolStrings) {
  for (std::size_t len = 1; len <= 70; ++len) {
    const std::string s(len, 'x');
    expect_matches_oracle(s);
    // One distinct symbol must give exactly zero.
    EXPECT_EQ(0.0, shannon_entropy(s)) << len;
  }
}

TEST(SimdKernelsTest, ParityOnFullByteAlphabet) {
  // All 256 byte values, including 0x00 and 0xff: real NUL bytes count
  // like any other byte.
  std::string all;
  for (int c = 0; c < 256; ++c) all.push_back(static_cast<char>(c));
  expect_matches_oracle(all);
  EXPECT_EQ(8.0, shannon_entropy(all));

  std::string nuls(64, '\0');
  expect_matches_oracle(nuls);
  EXPECT_EQ(0.0, shannon_entropy(nuls));

  std::string highs(33, '\xff');
  highs += std::string(31, '\0');
  expect_matches_oracle(highs);
}

TEST(SimdKernelsTest, SeededFuzzParity) {
  std::mt19937 rng(0xd15c0u);
  std::uniform_int_distribution<int> len_dist(0, 255);
  std::uniform_int_distribution<int> byte_dist(0, 255);
  std::uniform_int_distribution<int> mode_dist(0, 2);
  std::string s;
  for (int iter = 0; iter < 2000; ++iter) {
    const int len = len_dist(rng);
    const int mode = mode_dist(rng);
    s.clear();
    for (int i = 0; i < len; ++i) {
      // Mix full-range bytes, narrow alphabets (high counts per symbol),
      // and hostname-ish characters.
      int c = byte_dist(rng);
      if (mode == 1) c = 'a' + c % 4;
      if (mode == 2) c = "abcdefghijklmnopqrstuvwxyz0123456789-_."[c % 39];
      s.push_back(static_cast<char>(c));
    }
    expect_matches_oracle(s);
  }
}

TEST(SimdKernelsTest, LutEntropyMatchesReferenceFormula) {
  // The LUT path computes H = log2(n) - sum(k log2 k)/n; the pre-rewrite
  // code computed -sum(p log2 p).  Algebraically equal; numerically they
  // must agree to 1e-12 on every realistic input.
  std::mt19937 rng(0xfeedu);
  std::uniform_int_distribution<int> len_dist(2, 255);
  std::uniform_int_distribution<int> byte_dist(0, 255);
  for (int iter = 0; iter < 500; ++iter) {
    std::string s;
    const int len = len_dist(rng);
    for (int i = 0; i < len; ++i) {
      s.push_back(static_cast<char>(byte_dist(rng) % (iter % 2 ? 256 : 8)));
    }
    EXPECT_NEAR(reference_entropy(s), shannon_entropy(s), 1e-12) << s;
  }
  EXPECT_NEAR(reference_entropy("abracadabra"), shannon_entropy("abracadabra"),
              1e-12);
  EXPECT_NEAR(2.0, shannon_entropy("abcd"), 1e-12);
}

TEST(SimdKernelsTest, EntropyNeverNegative) {
  std::mt19937 rng(7u);
  std::uniform_int_distribution<int> byte_dist(0, 255);
  for (int len = 0; len <= 128; ++len) {
    std::string s;
    for (int i = 0; i < len; ++i) {
      s.push_back(static_cast<char>(byte_dist(rng) % 3));
    }
    EXPECT_GE(shannon_entropy(s), 0.0);
  }
}

TEST(SimdKernelsTest, UtilShannonEntropyRoutesThroughKernels) {
  // util/entropy.h's scalar entry point and the kernel layer are the same
  // code path now; they must agree bitwise.
  const std::string_view cases[] = {"", "a", "abracadabra", "x9f2-k_q",
                                    "aaaaaaaaaaaaaaaaaaaaaaaaaa"};
  for (const std::string_view s : cases) {
    EXPECT_EQ(kernels::shannon_entropy(s), dnsnoise::shannon_entropy(s));
  }
}

TEST(SimdKernelsTest, EntropyManyMatchesPerString) {
  std::vector<std::string> storage = {
      "", "a", "abracadabra", "mail", "x7f2-dk01", "cdn-edge-fra-07",
      "zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz"};
  std::vector<std::string_view> views(storage.begin(), storage.end());
  std::vector<double> out(views.size(), -1.0);
  entropy_many(views, out);
  for (std::size_t i = 0; i < views.size(); ++i) {
    EXPECT_EQ(shannon_entropy(views[i]), out[i]) << storage[i];
  }
}

TEST(SimdKernelsTest, NameTableEntropyManyWalksInternedNames) {
  NameTable table;
  std::vector<NameId> ids;
  std::vector<std::string> names = {"mail.example.com", "x7f2.d.example.net",
                                    "a.b", "singleton"};
  for (const std::string& n : names) ids.push_back(table.intern(n));
  std::vector<double> out(ids.size(), -1.0);
  dnsnoise::entropy_many(ids, table, out);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(shannon_entropy(names[i]), out[i]) << names[i];
  }
}

// ---------------------------------------------------------------------------
// normalize_name parity + semantics

struct ScanResult {
  NameScan scan;
  std::string out;
  std::vector<std::uint16_t> offsets;
};

ScanResult scan_at(DispatchLevel level, std::string_view in) {
  ScanResult r;
  char out[256] = {};
  std::uint16_t offsets[130] = {};
  r.scan = normalize_name_at(level, in, out, offsets);
  if (r.scan.ok) {
    r.out.assign(out, in.size());
    r.offsets.assign(offsets, offsets + r.scan.label_count);
  }
  return r;
}

void expect_scan_parity(std::string_view in) {
  const ScanResult scalar = scan_at(DispatchLevel::kScalar, in);
  for (const DispatchLevel level : available_levels()) {
    const ScanResult r = scan_at(level, in);
    EXPECT_EQ(scalar.scan.ok, r.scan.ok)
        << level_name(level) << " in=" << in;
    if (!scalar.scan.ok || !r.scan.ok) continue;
    EXPECT_EQ(scalar.scan.label_count, r.scan.label_count)
        << level_name(level) << " in=" << in;
    EXPECT_EQ(scalar.out, r.out) << level_name(level) << " in=" << in;
    EXPECT_EQ(scalar.offsets, r.offsets) << level_name(level) << " in=" << in;
  }
}

TEST(SimdKernelsTest, NormalizeLowercasesAndIndexesLabels) {
  for (const DispatchLevel level : available_levels()) {
    const ScanResult r = scan_at(level, "WWW.Example.COM");
    ASSERT_TRUE(r.scan.ok) << level_name(level);
    EXPECT_EQ("www.example.com", r.out) << level_name(level);
    EXPECT_EQ((std::vector<std::uint16_t>{0, 4, 12}), r.offsets)
        << level_name(level);
  }
}

TEST(SimdKernelsTest, NormalizeAcceptsLdhUnderscore) {
  for (const DispatchLevel level : available_levels()) {
    EXPECT_TRUE(scan_at(level, "_dmarc.mail-01.example9.com").scan.ok)
        << level_name(level);
  }
}

TEST(SimdKernelsTest, NormalizeRejectsMalformedNames) {
  const std::string_view bad[] = {
      "exa mple.com",        // space
      "exam!ple.com",        // punctuation outside LDH+underscore
      "a..b",                // empty middle label
      ".leading.dot",        // empty first label
      std::string_view("a\0b", 3),  // embedded NUL
      "caf\xc3\xa9.com",     // non-ASCII bytes
  };
  for (const std::string_view in : bad) {
    for (const DispatchLevel level : available_levels()) {
      EXPECT_FALSE(scan_at(level, in).scan.ok)
          << level_name(level) << " in=" << in;
    }
  }
  // 63-byte label is the RFC ceiling; 64 is malformed.
  const std::string label63(63, 'a');
  const std::string label64(64, 'a');
  for (const DispatchLevel level : available_levels()) {
    EXPECT_TRUE(scan_at(level, label63 + ".com").scan.ok) << level_name(level);
    EXPECT_FALSE(scan_at(level, label64 + ".com").scan.ok)
        << level_name(level);
  }
}

TEST(SimdKernelsTest, NormalizeParityAcrossLengths) {
  // Valid hostname characters across every chunk boundary up to the
  // 253-byte ceiling, with a dot sprinkled every 9 bytes.
  std::string s;
  for (std::size_t len = 1; len <= 253; ++len) {
    s.clear();
    for (std::size_t i = 0; i < len; ++i) {
      if (i % 9 == 8 && i + 1 < len) {
        s.push_back('.');
      } else {
        s.push_back(static_cast<char>((i % 2 ? 'A' : 'a') + (i * 5) % 26));
      }
    }
    expect_scan_parity(s);
  }
}

TEST(SimdKernelsTest, SeededFuzzNormalizeParity) {
  std::mt19937 rng(0xbadd06u);
  std::uniform_int_distribution<int> len_dist(1, 253);
  std::uniform_int_distribution<int> mode_dist(0, 2);
  std::uniform_int_distribution<int> byte_dist(0, 255);
  const std::string_view good =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_.";
  std::string s;
  for (int iter = 0; iter < 2000; ++iter) {
    const int len = len_dist(rng);
    const int mode = mode_dist(rng);
    s.clear();
    for (int i = 0; i < len; ++i) {
      const int c = byte_dist(rng);
      // Mode 0: mostly-valid names (reject path depends on label layout);
      // mode 1: raw bytes (reject path depends on classification);
      // mode 2: valid chars with dot clusters (empty-label detection).
      if (mode == 0 || (mode == 2 && c % 5 != 0)) {
        s.push_back(good[c % good.size()]);
      } else if (mode == 2) {
        s.push_back('.');
      } else {
        s.push_back(static_cast<char>(c));
      }
    }
    expect_scan_parity(s);
  }
}

}  // namespace
}  // namespace dnsnoise::kernels
