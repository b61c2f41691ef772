#include "miner/pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "ml/eval.h"

namespace dnsnoise {
namespace {

PipelineOptions small_options() {
  PipelineOptions options;
  options.scale.queries_per_day = 90'000;
  options.scale.client_count = 4'000;
  options.scale.population_scale = 0.5;
  options.labeler.min_group_size = 8;
  return options;
}

class PipelineTest : public ::testing::Test {
 protected:
  static const MiningDayResult& result() {
    // One shared end-to-end run; the assertions below each check one
    // contract of the pipeline.
    static const MiningDayResult shared =
        run_mining_day(ScenarioDate::kNov14, small_options());
    return shared;
  }
};

TEST_F(PipelineTest, ProducesLabeledZonesOfBothClasses) {
  const auto& labeled = result().labeled;
  const auto positives = static_cast<std::size_t>(
      std::count_if(labeled.begin(), labeled.end(),
                    [](const LabeledZone& z) { return z.label == 1; }));
  EXPECT_GT(positives, 25u);
  EXPECT_GT(labeled.size() - positives, 50u);
}

TEST_F(PipelineTest, MinesZonesWithHighPrecision) {
  const MiningEvaluation& eval = result().evaluation;
  EXPECT_GT(eval.findings, 20u);
  EXPECT_GT(eval.finding_precision(), 0.9);
  EXPECT_GT(eval.truth_zones_discovered, 20u);
  EXPECT_LE(eval.unique_2lds, eval.findings);
  EXPECT_EQ(eval.true_positive_findings + eval.false_positive_findings,
            eval.findings);
}

TEST_F(PipelineTest, AggregatesAreConsistent) {
  const DayAggregates& agg = result().aggregates;
  EXPECT_GT(agg.unique_queried, agg.unique_resolved);
  EXPECT_LE(agg.disposable_queried, agg.unique_queried);
  EXPECT_LE(agg.disposable_resolved, agg.unique_resolved);
  EXPECT_LE(agg.disposable_rrs, agg.unique_rrs);
  // Disposable names are successfully resolved names: the queried and
  // resolved disposable counts must be close (mined zones resolve).
  EXPECT_EQ(agg.disposable_queried, agg.disposable_resolved);
  // Shares fall in loose paper-like bands.
  const double queried_share = static_cast<double>(agg.disposable_queried) /
                               static_cast<double>(agg.unique_queried);
  EXPECT_GT(queried_share, 0.10);
  EXPECT_LT(queried_share, 0.45);
}

TEST_F(PipelineTest, FindingsHaveEvidence) {
  for (const auto& finding : result().findings) {
    EXPECT_GE(finding.confidence, 0.9);
    EXPECT_GE(finding.group_size, 5u);
    EXPECT_GT(finding.depth, 2u);
    EXPECT_FALSE(finding.zone.empty());
  }
}

TEST(PipelineUnitTest, FindingIndexMatchesZoneAndDepth) {
  std::vector<DisposableZoneFinding> findings;
  DisposableZoneFinding f;
  f.zone = "vendor.com";
  f.depth = 4;
  findings.push_back(f);
  const FindingIndex index(findings);
  EXPECT_EQ(index.size(), 1u);
  EXPECT_TRUE(index.is_disposable(DomainName("a.avqs.vendor.com")));
  EXPECT_FALSE(index.is_disposable(DomainName("a.b.avqs.vendor.com")));  // depth 5
  EXPECT_FALSE(index.is_disposable(DomainName("a.avqs.other.com")));
  EXPECT_FALSE(index.is_disposable(DomainName("vendor.com")));
}

/// The parse-based lookup FindingIndex replaced: a linear scan of the
/// findings over the name's proper suffixes.
bool reference_is_disposable(const std::vector<DisposableZoneFinding>& findings,
                             const DomainName& name) {
  const std::size_t depth = name.label_count();
  for (std::size_t k = 1; k < depth; ++k) {
    for (const DisposableZoneFinding& finding : findings) {
      if (finding.depth == depth && finding.zone == name.nld_view(k)) {
        return true;
      }
    }
  }
  return false;
}

TEST(PipelineUnitTest, FindingIndexTextLookupMatchesDomainNameLookup) {
  std::vector<DisposableZoneFinding> findings;
  DisposableZoneFinding f;
  f.depth = 4;
  f.zone = "a.com";  // nested findings at the same depth
  findings.push_back(f);
  f.zone = "b.a.com";
  findings.push_back(f);
  f.zone = "c.org";
  f.depth = 3;
  findings.push_back(f);
  const FindingIndex index(findings);

  const std::vector<std::string> names = {
      "x.b.a.com",    // under both nested zones, at their depth
      "x.z.a.com",    // under the outer zone only
      "x.y.b.a.com",  // under both, too deep
      "b.a.com",      // equal to a zone
      "a.com",        // equal to a zone
      "com",          // depth 1
      "org",          // depth 1
      "x.c.org",      // under c.org at its depth
      "x.y.c.org",    // under c.org, wrong depth
      "c.org",        // equal to a zone
      "x.y.b.a.net",  // under no finding
      "q.x.y.a.com",  // under a.com, too deep
      "w.x.a.com.cn"  // a zone's text but not a suffix
  };
  for (const std::string& text : names) {
    SCOPED_TRACE(text);
    const DomainName name(text);
    const bool expected = reference_is_disposable(findings, name);
    EXPECT_EQ(index.is_disposable(std::string_view(text)), expected);
    EXPECT_EQ(index.is_disposable(name), expected);
  }
  EXPECT_TRUE(index.is_disposable(std::string_view("x.b.a.com")));
  EXPECT_TRUE(index.is_disposable(std::string_view("x.z.a.com")));
  EXPECT_FALSE(index.is_disposable(std::string_view("x.y.b.a.com")));
  EXPECT_FALSE(index.is_disposable(std::string_view("b.a.com")));
  EXPECT_FALSE(index.is_disposable(std::string_view("com")));
  EXPECT_TRUE(index.is_disposable(std::string_view("x.c.org")));
  EXPECT_FALSE(index.is_disposable(std::string_view("x.y.b.a.net")));
  EXPECT_FALSE(index.is_disposable(std::string_view("")));
}

TEST(PipelineUnitTest, EvaluateFindingsMatching) {
  GroundTruth truth;
  truth.disposable_zones.push_back({"avqs.vendor.com", 4, "reputation"});
  truth.disposable_apexes.insert("avqs.vendor.com");

  std::vector<DisposableZoneFinding> findings;
  DisposableZoneFinding tp;
  tp.zone = "vendor.com";  // ancestor of the truth apex, same depth
  tp.depth = 4;
  findings.push_back(tp);
  DisposableZoneFinding wrong_depth;
  wrong_depth.zone = "vendor.com";
  wrong_depth.depth = 7;
  findings.push_back(wrong_depth);
  DisposableZoneFinding unrelated;
  unrelated.zone = "innocent.org";
  unrelated.depth = 4;
  findings.push_back(unrelated);

  const MiningEvaluation eval = evaluate_findings(findings, truth);
  EXPECT_EQ(eval.findings, 3u);
  EXPECT_EQ(eval.true_positive_findings, 1u);
  EXPECT_EQ(eval.false_positive_findings, 2u);
  EXPECT_EQ(eval.truth_zones_discovered, 1u);
  EXPECT_EQ(eval.unique_2lds, 2u);
}

TEST(PipelineUnitTest, CrossValidationHitsPaperBands) {
  // Paper Fig. 12: theta=0.5 gives ~97% TPR at ~1% FPR on 10-fold CV.
  PipelineOptions options = small_options();
  Scenario scenario(ScenarioDate::kNov14, options.scale);
  DayCapture capture;
  simulate_day(scenario, capture, options,
               scenario_day_index(ScenarioDate::kNov14));
  const auto labeled =
      label_zones(capture.tree(), capture.chr(), scenario, options.labeler);
  const Dataset data = to_dataset(labeled);
  const auto scores = cross_val_scores(
      data, [] { return std::make_unique<LadTree>(); }, 10, 2011);
  std::vector<int> labels;
  for (std::size_t i = 0; i < data.size(); ++i) {
    labels.push_back(data.label(i));
  }
  const Confusion at_half = confusion_at(scores, labels, 0.5);
  EXPECT_GT(at_half.tpr(), 0.90);
  EXPECT_LT(at_half.fpr(), 0.05);
  const auto curve = roc_curve(scores, labels);
  EXPECT_GT(auc(curve), 0.97);
}

TEST(PipelineUnitTest, WarmupReducesColdMisses) {
  PipelineOptions with_warmup = small_options();
  with_warmup.scale.queries_per_day = 20'000;
  PipelineOptions without = with_warmup;
  without.warmup = false;

  Scenario s1(ScenarioDate::kFeb01, with_warmup.scale);
  DayCapture c1;
  simulate_day(s1, c1, with_warmup, 0);

  Scenario s2(ScenarioDate::kFeb01, without.scale);
  DayCapture c2;
  simulate_day(s2, c2, without, 0);

  // With warm caches, fewer above-answers for the same below volume.
  EXPECT_LT(c1.above_series().sum_total(), c2.above_series().sum_total());
}

TEST(PipelineUnitTest, WarmupScaleIsTheReducedDayOnItsOwnStream) {
  // The warmup rule every driver shares: the day's scale at the truncated
  // fraction of its volume, on the 0xbeefcafe-offset query stream.
  ScenarioScale day;
  day.queries_per_day = 400'001;
  day.traffic_stream = 7;
  const ScenarioScale warm = warmup_scale(day, 0.3);
  EXPECT_EQ(warm.queries_per_day, 120'000u);  // 120000.3 truncated
  EXPECT_EQ(warm.traffic_stream, 7u ^ 0xbeefcafeULL);
  EXPECT_EQ(warm.seed, day.seed);
  EXPECT_EQ(warm.client_count, day.client_count);
  EXPECT_EQ(warm.population_scale, day.population_scale);
  EXPECT_EQ(warmup_scale(day, 0.0).queries_per_day, 0u);
  EXPECT_EQ(warmup_scale(day, 1.0).queries_per_day, day.queries_per_day);
}

TEST(PipelineUnitTest, OutOfRangeWarmupFractionIsInvalidConfig) {
  PipelineOptions options = small_options();
  options.scale.queries_per_day = 5'000;
  for (const double fraction :
       {-0.5, std::numeric_limits<double>::quiet_NaN(), 1.5}) {
    options.warmup_volume_fraction = fraction;
    EXPECT_FALSE(valid_warmup(options)) << fraction;
    const MiningDayResult result =
        run_mining_day(ScenarioDate::kNov14, options);
    EXPECT_EQ(result.status, MiningDayStatus::kInvalidConfig) << fraction;
    EXPECT_FALSE(result.error.empty()) << fraction;
    Scenario scenario(ScenarioDate::kNov14, options.scale);
    DayCapture capture;
    EXPECT_THROW(simulate_day(scenario, capture, options, 0),
                 std::invalid_argument)
        << fraction;
  }
  // A disabled warmup never reads the fraction.
  options.warmup = false;
  EXPECT_TRUE(valid_warmup(options));
  options.warmup = true;
  for (const double fraction : {0.0, 0.5, 1.0}) {
    options.warmup_volume_fraction = fraction;
    EXPECT_TRUE(valid_warmup(options)) << fraction;
  }
}

}  // namespace
}  // namespace dnsnoise
