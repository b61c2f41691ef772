#include "workload/traffic_gen.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "miner/pipeline.h"
#include "workload/scenario.h"

namespace dnsnoise {
namespace {

/// Minimal test tenant: fixed name, tracks how often it was sampled.
class CountingModel final : public ZoneModel {
 public:
  explicit CountingModel(std::string name) : name_(std::move(name)) {}
  const std::string& name() const noexcept override { return name_; }
  bool disposable() const noexcept override { return false; }
  QuerySpec sample_query(Rng&) override {
    ++samples_;
    return {"host." + name_, RRType::A};
  }
  void install(SyntheticAuthority&) const override {}
  std::uint64_t samples() const noexcept { return samples_; }

 private:
  std::string name_;
  std::uint64_t samples_ = 0;
};

TrafficConfig small_config() {
  TrafficConfig config;
  config.queries_per_day = 24'000;
  config.client_count = 100;
  config.seed = 7;
  return config;
}

TEST(TrafficGenTest, TimestampsAreOrderedAndWithinDay) {
  TrafficGenerator gen(small_config());
  gen.add_model(std::make_shared<CountingModel>("a.com"), 1.0);
  SimTime last = -1;
  std::uint64_t count = 0;
  gen.run_day(3, [&](SimTime ts, std::uint64_t, const QuerySpec&) {
    EXPECT_GE(ts, last);
    EXPECT_GE(ts, 3 * kSecondsPerDay);
    EXPECT_LT(ts, 4 * kSecondsPerDay);
    last = ts;
    ++count;
  });
  EXPECT_NEAR(static_cast<double>(count), 24'000.0, 24.0);
}

TEST(TrafficGenTest, WeightsControlMix) {
  TrafficGenerator gen(small_config());
  auto heavy = std::make_shared<CountingModel>("heavy.com");
  auto light = std::make_shared<CountingModel>("light.com");
  gen.add_model(heavy, 9.0);
  gen.add_model(light, 1.0);
  gen.run_day(0, [](SimTime, std::uint64_t, const QuerySpec&) {});
  const double total =
      static_cast<double>(heavy->samples() + light->samples());
  EXPECT_NEAR(static_cast<double>(heavy->samples()) / total, 0.9, 0.02);
}

TEST(TrafficGenTest, DiurnalShapeShows) {
  TrafficConfig config = small_config();
  config.queries_per_day = 100'000;
  TrafficGenerator gen(config);
  gen.add_model(std::make_shared<CountingModel>("a.com"), 1.0);
  std::map<int, std::uint64_t> per_hour;
  gen.run_day(0, [&per_hour](SimTime ts, std::uint64_t, const QuerySpec&) {
    ++per_hour[hour_of_day(ts)];
  });
  // Default profile: 8pm is the peak, 4am the trough.
  EXPECT_GT(per_hour[20], per_hour[4] * 3);
}

TEST(TrafficGenTest, FlatProfileIsEven) {
  TrafficConfig config = small_config();
  config.diurnal = DiurnalProfile::flat();
  TrafficGenerator gen(config);
  gen.add_model(std::make_shared<CountingModel>("a.com"), 1.0);
  std::map<int, std::uint64_t> per_hour;
  gen.run_day(0, [&per_hour](SimTime ts, std::uint64_t, const QuerySpec&) {
    ++per_hour[hour_of_day(ts)];
  });
  for (const auto& [hour, count] : per_hour) {
    EXPECT_EQ(count, 1000u) << "hour " << hour;
  }
}

TEST(TrafficGenTest, DeterministicForSameSeed) {
  std::vector<std::string> run1;
  std::vector<std::string> run2;
  for (auto* sink : {&run1, &run2}) {
    TrafficGenerator gen(small_config());
    gen.add_model(std::make_shared<CountingModel>("a.com"), 1.0);
    gen.add_model(std::make_shared<CountingModel>("b.com"), 1.0);
    gen.run_day(0, [sink](SimTime, std::uint64_t, const QuerySpec& q) {
      if (sink->size() < 500) sink->push_back(q.qname);
    });
  }
  EXPECT_EQ(run1, run2);
}

TEST(TrafficGenTest, ClientIdsAreStableAndNonZero) {
  const TrafficGenerator gen(small_config());
  EXPECT_NE(gen.client_id_for_rank(0), 0u);
  EXPECT_EQ(gen.client_id_for_rank(5), gen.client_id_for_rank(5));
  EXPECT_NE(gen.client_id_for_rank(5), gen.client_id_for_rank(6));
}

TEST(TrafficGenTest, ClientActivityIsSkewed) {
  TrafficGenerator gen(small_config());
  gen.add_model(std::make_shared<CountingModel>("a.com"), 1.0);
  std::map<std::uint64_t, std::uint64_t> per_client;
  gen.run_day(0, [&per_client](SimTime, std::uint64_t client,
                               const QuerySpec&) { ++per_client[client]; });
  std::uint64_t max_count = 0;
  for (const auto& [client, count] : per_client) {
    max_count = std::max(max_count, count);
  }
  const double mean = 24'000.0 / static_cast<double>(per_client.size());
  EXPECT_GT(static_cast<double>(max_count), mean * 3);
}

TEST(TrafficGenTest, PickModelEqualsUpperBoundOverCumulativeWeights) {
  // A scenario-shaped tenant mix: heavy tenants, Zipf-weighted zones and a
  // run of equal weights whose sums accumulate rounding.
  std::vector<double> weights = {0.3, 0.14, 0.035, 0.035, 0.035, 0.035};
  for (std::size_t i = 0; i < 400; ++i) {
    weights.push_back(0.22 / std::pow(static_cast<double>(i + 1), 0.9));
  }
  for (std::size_t i = 0; i < 300; ++i) weights.push_back(0.001);
  for (std::size_t i = 0; i < 500; ++i) {
    weights.push_back(0.04 / std::sqrt(static_cast<double>(i + 1)));
  }
  TrafficGenerator gen(small_config());
  std::vector<double> cumulative;
  const auto add = [&](double weight) {
    const std::string name = "m" + std::to_string(cumulative.size());
    gen.add_model(std::make_shared<CountingModel>(name), weight);
    cumulative.push_back((cumulative.empty() ? 0.0 : cumulative.back()) +
                         weight);
  };
  for (const double w : weights) add(w);

  // run_day draws, per query: the timestamp jitter, one uniform for the
  // client rank, one for the model; CountingModel draws nothing.
  Rng replay(small_config().seed);
  const auto check_day = [&](std::int64_t day) {
    std::uint64_t queries = 0;
    gen.run_day(day, [&](SimTime, std::uint64_t, const QuerySpec& q) {
      replay.uniform();
      replay.uniform();
      const double u = replay.uniform() * cumulative.back();
      const std::size_t expected = std::min<std::size_t>(
          static_cast<std::size_t>(
              std::upper_bound(cumulative.begin(), cumulative.end(), u) -
              cumulative.begin()),
          cumulative.size() - 1);
      ASSERT_EQ(q.qname, "host.m" + std::to_string(expected))
          << "query " << queries;
      ++queries;
    });
    EXPECT_GT(queries, 0u);
  };
  check_day(0);
  // A model added after a day re-indexes the mix before the next one.
  add(0.5);
  check_day(1);
}

/// One generated query plus the authority's answer to it.
struct StreamEntry {
  SimTime ts;
  std::uint64_t client;
  std::string qname;
  RRType qtype;
  RCode rcode;
  std::vector<ResourceRecord> answers;
  bool dnssec_signed;
  bool disposable_zone;

  friend bool operator==(const StreamEntry&, const StreamEntry&) = default;
};

std::vector<StreamEntry> shard_stream(Scenario& scenario, std::int64_t day,
                                      std::size_t shard) {
  std::vector<StreamEntry> out;
  scenario.traffic().run_day_shard(
      day, {4, shard},
      [&](SimTime ts, std::uint64_t client, const QuerySpec& query) {
        const AuthorityAnswer answer = scenario.authority().resolve(
            Question{DomainName(query.qname), query.qtype}, ts);
        out.push_back({ts, client, query.qname, query.qtype, answer.rcode,
                       answer.answers, answer.dnssec_signed,
                       answer.disposable_zone});
      });
  return out;
}

TEST(ScenarioStreamTest, SharedNamespaceShardsMatchStandAloneScenarios) {
  ScenarioScale day_scale;
  day_scale.queries_per_day = 16'000;
  day_scale.client_count = 2'000;
  day_scale.population_scale = 0.25;
  const ScenarioScale warm_scale = warmup_scale(day_scale, 0.5);
  const std::int64_t day = scenario_day_index(ScenarioDate::kDec30);

  const auto ns = std::make_shared<const ScenarioNamespace>(
      ScenarioDate::kDec30, day_scale);
  for (const ScenarioScale& scale : {warm_scale, day_scale}) {
    for (std::size_t shard = 0; shard < 4; ++shard) {
      Scenario shared(ns, scale);
      Scenario alone(ScenarioDate::kDec30, scale);
      const std::vector<StreamEntry> got = shard_stream(shared, day, shard);
      const std::vector<StreamEntry> want = shard_stream(alone, day, shard);
      ASSERT_FALSE(want.empty());
      ASSERT_EQ(got.size(), want.size()) << "shard " << shard;
      for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_TRUE(got[i] == want[i])
            << "shard " << shard << " query " << i << ": " << got[i].qname
            << " vs " << want[i].qname;
      }
      EXPECT_EQ(shared.authority().queries(), alone.authority().queries());
      EXPECT_EQ(shared.authority().nxdomains(), alone.authority().nxdomains());
    }
  }
}

TEST(ScenarioStreamTest, NamespaceRejectsAScaleItDoesNotServe) {
  ScenarioScale scale;
  scale.population_scale = 0.05;
  const auto ns =
      std::make_shared<const ScenarioNamespace>(ScenarioDate::kFeb01, scale);
  ScenarioScale other = scale;
  other.seed += 1;
  EXPECT_FALSE(ns->serves(other));
  EXPECT_THROW(Scenario(ns, other), std::invalid_argument);
  other = scale;
  other.queries_per_day = 7;
  other.traffic_stream = 3;
  EXPECT_TRUE(ns->serves(other));
}

TEST(TrafficGenTest, ErrorsOnBadUsage) {
  TrafficGenerator gen(small_config());
  EXPECT_THROW(gen.run_day(0, [](SimTime, std::uint64_t, const QuerySpec&) {}),
               std::logic_error);
  EXPECT_THROW(gen.add_model(nullptr, 1.0), std::invalid_argument);
  EXPECT_THROW(gen.add_model(std::make_shared<CountingModel>("x"), 0.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace dnsnoise
