#include "util/zipf.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

namespace dnsnoise {
namespace {

TEST(ZipfTest, PmfSumsToOne) {
  const ZipfSampler zipf(100, 1.0);
  double total = 0.0;
  for (std::size_t r = 0; r < zipf.size(); ++r) total += zipf.pmf(r);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ZipfTest, PmfMonotoneNonIncreasing) {
  const ZipfSampler zipf(50, 1.2);
  for (std::size_t r = 1; r < zipf.size(); ++r) {
    EXPECT_LE(zipf.pmf(r), zipf.pmf(r - 1) + 1e-12);
  }
}

TEST(ZipfTest, ExponentZeroIsUniform) {
  const ZipfSampler zipf(10, 0.0);
  for (std::size_t r = 0; r < zipf.size(); ++r) {
    EXPECT_NEAR(zipf.pmf(r), 0.1, 1e-9);
  }
}

TEST(ZipfTest, PmfOutOfRangeIsZero) {
  const ZipfSampler zipf(5, 1.0);
  EXPECT_EQ(zipf.pmf(5), 0.0);
  EXPECT_EQ(zipf.pmf(1000), 0.0);
}

TEST(ZipfTest, SamplesStayInRange) {
  const ZipfSampler zipf(20, 1.0);
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(zipf.sample(rng), 20u);
  }
}

TEST(ZipfTest, HeadHeavierThanTail) {
  const ZipfSampler zipf(1000, 1.0);
  Rng rng(2);
  std::size_t head = 0;
  std::size_t tail = 0;
  for (int i = 0; i < 50000; ++i) {
    const std::size_t r = zipf.sample(rng);
    if (r < 10) ++head;
    if (r >= 990) ++tail;
  }
  EXPECT_GT(head, tail * 10);
}

TEST(ZipfTest, EmpiricalFrequencyMatchesPmf) {
  const ZipfSampler zipf(8, 1.0);
  Rng rng(3);
  std::vector<std::size_t> counts(8, 0);
  constexpr int kSamples = 200000;
  for (int i = 0; i < kSamples; ++i) ++counts[zipf.sample(rng)];
  for (std::size_t r = 0; r < 8; ++r) {
    const double freq = static_cast<double>(counts[r]) / kSamples;
    EXPECT_NEAR(freq, zipf.pmf(r), 0.01) << "rank " << r;
  }
}

TEST(ZipfTest, SingleRank) {
  const ZipfSampler zipf(1, 2.0);
  Rng rng(4);
  EXPECT_EQ(zipf.sample(rng), 0u);
  EXPECT_NEAR(zipf.pmf(0), 1.0, 1e-12);
}

TEST(ZipfTest, InvalidArgumentsThrow) {
  EXPECT_THROW(ZipfSampler(0, 1.0), std::invalid_argument);
  EXPECT_THROW(ZipfSampler(10, -0.5), std::invalid_argument);
}

/// Probe points for an exact-search check over table `v`: every value and
/// its two float neighbours, every guide bucket edge (j/m of the total,
/// rounded both ways the index might compute it) and its neighbours, the
/// ends of the range, and a seeded sweep.
std::vector<double> search_probes(const std::vector<double>& v) {
  const double total = v.back();
  const auto m = static_cast<double>(v.size());
  std::vector<double> probes = {0.0, total};
  const auto add = [&](double u) {
    for (const double p :
         {std::nextafter(u, 0.0), u, std::nextafter(u, 2.0 * total)}) {
      if (p >= 0.0 && p <= total) probes.push_back(p);
    }
  };
  for (const double value : v) add(value);
  for (std::size_t j = 0; j < v.size(); ++j) {
    add(static_cast<double>(j) / (m / total));
    add(static_cast<double>(j) * total / m);
  }
  Rng rng(17);
  for (int i = 0; i < 20000; ++i) probes.push_back(rng.uniform() * total);
  return probes;
}

using ZipfShape = std::tuple<std::size_t, double>;
class ZipfGuideTest : public ::testing::TestWithParam<ZipfShape> {};

TEST_P(ZipfGuideTest, GuideDrawsEqualLowerBound) {
  const auto [n, s] = GetParam();
  const ZipfSampler zipf(n, s);
  const std::vector<double> cdf(zipf.cdf().begin(), zipf.cdf().end());
  const GuideIndex guide(cdf);
  for (const double u : search_probes(cdf)) {
    const auto expected = static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    ASSERT_EQ(guide.lower_bound(cdf, u), expected) << "u=" << u;
  }
  // The sampler's own draws: one uniform each, searched as lower_bound.
  Rng draws(23);
  Rng replay(23);
  for (int i = 0; i < 20000; ++i) {
    const double u = replay.uniform();
    const auto expected = static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    ASSERT_EQ(zipf.sample(draws), expected) << "draw " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ZipfGuideTest,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{64}, std::size_t{20000},
                                         std::size_t{80000}),
                       ::testing::Values(0.0, 0.8, 0.95, 1.2)),
    [](const ::testing::TestParamInfo<ZipfShape>& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "_s" +
             std::to_string(
                 static_cast<int>(std::get<1>(info.param) * 100 + 0.5));
    });

TEST(GuideIndexTest, SearchesEqualStdBinarySearches) {
  // Cumulative traffic weights shaped like a scenario's tenant mix (a few
  // heavy tenants, Zipf-weighted zones, many equal weights that accumulate
  // rounding), a one-entry table, plateaus of equal values, and a table
  // whose values lie one ulp below the bucket edge 5/6 yet multiply into
  // bucket 5 (x * 6 rounds up): an index that placed values by dividing
  // out the edges would start bucket 5 past lower_bound(x) = 0.
  std::vector<std::vector<double>> tables(5);
  double total = 0.0;
  for (const double w : {0.3, 0.14, 0.035, 0.035, 0.035, 0.035}) {
    tables[0].push_back(total += w);
  }
  for (std::size_t i = 0; i < 400; ++i) {
    tables[0].push_back(total +=
                        0.22 / std::pow(static_cast<double>(i + 1), 0.9));
  }
  for (std::size_t i = 0; i < 800; ++i) {
    tables[0].push_back(total += 0.04 / std::sqrt(static_cast<double>(i + 1)));
  }
  total = 0.0;
  for (int i = 0; i < 1000; ++i) tables[1].push_back(total += 0.1);
  tables[2].push_back(2.5);
  tables[3] = {0.0, 0.0, 1.0, 1.0, 1.0, 2.0, 2.0, 3.0};
  const double x = std::nextafter(5.0 / 6.0, 0.0);
  tables[4] = {x, x, x, x, x, 1.0};
  for (const std::vector<double>& v : tables) {
    const GuideIndex guide(v);
    for (const double u : search_probes(v)) {
      const auto expected = static_cast<std::size_t>(
          std::upper_bound(v.begin(), v.end(), u) - v.begin());
      ASSERT_EQ(guide.upper_bound(v, u), expected) << "u=" << u;
      const auto lower = static_cast<std::size_t>(
          std::lower_bound(v.begin(), v.end(), u) - v.begin());
      ASSERT_EQ(guide.lower_bound(v, u), lower) << "u=" << u;
    }
  }
}

class ZipfExponentTest : public ::testing::TestWithParam<double> {};

TEST_P(ZipfExponentTest, CdfCoversUnitIntervalAtEveryExponent) {
  const ZipfSampler zipf(64, GetParam());
  double total = 0.0;
  for (std::size_t r = 0; r < zipf.size(); ++r) total += zipf.pmf(r);
  EXPECT_NEAR(total, 1.0, 1e-9);
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(zipf.sample(rng), 64u);
}

INSTANTIATE_TEST_SUITE_P(Exponents, ZipfExponentTest,
                         ::testing::Values(0.0, 0.3, 0.7, 1.0, 1.5, 2.0, 3.0));

}  // namespace
}  // namespace dnsnoise
