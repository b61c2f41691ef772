// Shard-merge unit tests: the per-structure union/summation operations the
// engine composes (see engine/shard_merge.h).
#include "engine/shard_merge.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "engine/thread_pool.h"
#include "features/chr.h"
#include "features/domain_tree.h"

namespace dnsnoise {
namespace {

Question question(const std::string& name) {
  return {DomainName(name), RRType::A};
}

std::vector<ResourceRecord> answer_rrs(const std::string& name,
                                       std::uint32_t ttl,
                                       const std::string& rdata = "10.0.0.1") {
  return {{DomainName(name), RRType::A, ttl, rdata}};
}

DayCaptureConfig full_config() {
  DayCaptureConfig config;
  config.keep_fpdns = true;
  config.feed_rpdns = true;
  return config;
}

/// Feeds one synthetic shard: names every shard shares (with
/// per-shard TTLs, so first-wins TTLs show the fold order), names of its
/// own, NXDOMAIN queries and above-stream misses.  Timestamps collide
/// across shards so the fpDNS stable sort depends on the append order.
void fill_shard(DayCapture& capture, std::size_t index) {
  const std::string tag = std::to_string(index);
  for (std::size_t k = 0; k < 6; ++k) {
    const std::string n = std::to_string(k);
    const std::string shared = "s" + n + ".shared.example.com";
    const std::string own = "n" + n + ".shard" + tag + ".example.net";
    const SimTime ts =
        static_cast<SimTime>((k * 7 + index * 3) % 24) * kSecondsPerHour;
    const auto ttl = static_cast<std::uint32_t>(60 + index);
    capture.on_below(ts, index * 100 + k, question(shared), RCode::NoError,
                     answer_rrs(shared, ttl, "10.0.0." + n));
    capture.on_below(ts, index * 100 + k, question(own), RCode::NoError,
                     answer_rrs(own, 30, "10.1.0." + tag));
    capture.on_below(ts + 1, index * 100 + k, question("nx" + n + ".example.org"),
                     RCode::NXDomain, {});
    capture.on_above(ts, question(shared), RCode::NoError,
                     answer_rrs(shared, ttl, "10.0.0." + n));
  }
}

/// `count` shards of day `day`; shards whose bit is set in `empty_mask`
/// saw no traffic.
std::vector<ShardResult> make_shards(std::size_t count, unsigned empty_mask,
                                     std::int64_t day) {
  std::vector<ShardResult> shards;
  for (std::size_t i = 0; i < count; ++i) {
    shards.emplace_back(full_config());
    shards[i].capture.start_day(day);
    shards[i].counters.below_answers = i + 1;
    if ((empty_mask >> i & 1u) == 0) fill_shard(shards[i].capture, i);
  }
  return shards;
}

/// Tree nodes in sorted (label-order) traversal with their colors.
std::vector<std::string> sorted_traversal(const DomainNameTree& tree) {
  std::vector<std::string> out;
  const auto walk = [&out](auto&& self, const DomainNameTree::Node& node)
      -> void {
    out.push_back(DomainNameTree::full_name(node) + (node.black ? "|b" : "|w") +
                  (node.resolved ? "r" : "-"));
    for (const DomainNameTree::Node* child : node.children()) {
      self(self, *child);
    }
  };
  walk(walk, tree.root());
  return out;
}

std::vector<std::string> sorted_queried(const DayCapture& capture) {
  std::vector<std::string> names;
  for (NameId id = 0; id < capture.queried_names().size(); ++id) {
    names.emplace_back(capture.queried_names().name(id));
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::vector<std::tuple<std::string, std::string, std::int64_t>> rpdns_days(
    const RpDnsDataset& rpdns) {
  std::vector<std::tuple<std::string, std::string, std::int64_t>> out;
  rpdns.for_each([&out](const RRKey& key, const RpDnsRecord& record) {
    out.emplace_back(key.name, key.rdata, record.first_seen_day);
  });
  std::sort(out.begin(), out.end());
  return out;
}

void expect_same_capture(const DayCapture& a, const DayCapture& b) {
  EXPECT_EQ(a.unique_queried(), b.unique_queried());
  EXPECT_EQ(a.unique_resolved(), b.unique_resolved());
  EXPECT_EQ(sorted_queried(a), sorted_queried(b));
  EXPECT_EQ(a.tree().node_count(), b.tree().node_count());
  EXPECT_EQ(a.tree().black_count(), b.tree().black_count());
  EXPECT_EQ(sorted_traversal(a.tree()), sorted_traversal(b.tree()));
  // CHR entries keep their first-observation order across the merge.
  ASSERT_EQ(a.chr().entries().size(), b.chr().entries().size());
  for (std::size_t i = 0; i < a.chr().entries().size(); ++i) {
    const auto& [key_a, counts_a] = a.chr().entries()[i];
    const auto& [key_b, counts_b] = b.chr().entries()[i];
    EXPECT_EQ(key_a, key_b) << "CHR entry " << i;
    EXPECT_EQ(counts_a.below, counts_b.below) << "CHR entry " << i;
    EXPECT_EQ(counts_a.above, counts_b.above) << "CHR entry " << i;
    EXPECT_EQ(counts_a.ttl, counts_b.ttl) << "CHR entry " << i;
  }
  EXPECT_EQ(a.below_series().total, b.below_series().total);
  EXPECT_EQ(a.below_series().nxdomain, b.below_series().nxdomain);
  EXPECT_EQ(a.above_series().total, b.above_series().total);
  ASSERT_EQ(a.fpdns().size(), b.fpdns().size());
  for (std::size_t i = 0; i < a.fpdns().size(); ++i) {
    EXPECT_EQ(a.fpdns().entries()[i], b.fpdns().entries()[i])
        << "fpDNS entry " << i;
  }
  EXPECT_EQ(rpdns_days(a.rpdns()), rpdns_days(b.rpdns()));
  EXPECT_EQ(a.rpdns().days(), b.rpdns().days());
}

TEST(ShardMergeTest, DomainTreeUnionKeepsBlackNodesAndCounts) {
  DomainNameTree a;
  a.insert(DomainName("x.example.com"));
  a.insert(DomainName("shared.example.com"));
  DomainNameTree b;
  b.insert(DomainName("y.example.com"));
  b.insert(DomainName("shared.example.com"));
  b.insert(DomainName("deep.y.example.com"));

  a.merge_from(b);
  EXPECT_EQ(a.black_count(), 4u);  // x, y, shared, deep.y
  // root + com + example + x + shared + y + deep = 7
  EXPECT_EQ(a.node_count(), 7u);
  const auto* deep = a.find(DomainName("deep.y.example.com"));
  ASSERT_NE(deep, nullptr);
  EXPECT_TRUE(deep->black);
  EXPECT_EQ(deep->depth, 4u);
  EXPECT_EQ(DomainNameTree::full_name(*deep), "deep.y.example.com");
  // y was only inserted as a leaf in b, black there; x untouched by merge.
  EXPECT_TRUE(a.find(DomainName("y.example.com"))->black);
  EXPECT_TRUE(a.find(DomainName("x.example.com"))->black);
  // Intermediate nodes stay white.
  EXPECT_FALSE(a.find(DomainName("example.com"))->black);
}

TEST(ShardMergeTest, DomainTreeMergeIsIdempotentOnEqualTrees) {
  DomainNameTree a;
  a.insert(DomainName("x.example.com"));
  DomainNameTree b;
  b.insert(DomainName("x.example.com"));
  a.merge_from(b);
  EXPECT_EQ(a.black_count(), 1u);
  EXPECT_EQ(a.node_count(), 4u);
}

TEST(ShardMergeTest, ChrMergeSumsBelowAndAboveCounts) {
  CacheHitRateTracker a;
  a.record_below("a.example.com", RRType::A, "10.0.0.1", 60);
  a.record_below("a.example.com", RRType::A, "10.0.0.1");
  a.record_above("a.example.com", RRType::A, "10.0.0.1");
  CacheHitRateTracker b;
  b.record_below("a.example.com", RRType::A, "10.0.0.1", 90);
  b.record_above("b.example.com", RRType::A, "10.0.0.2", 30);

  a.merge_from(b);
  EXPECT_EQ(a.unique_rrs(), 2u);
  const auto* shared = a.find({"a.example.com", RRType::A, "10.0.0.1"});
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(shared->below, 3u);
  EXPECT_EQ(shared->above, 1u);
  EXPECT_EQ(shared->ttl, 60u);  // the merge target's TTL wins
  const auto* fresh = a.find({"b.example.com", RRType::A, "10.0.0.2"});
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(fresh->below, 0u);
  EXPECT_EQ(fresh->above, 1u);
  EXPECT_EQ(fresh->ttl, 30u);  // new entry takes the source's TTL
}

TEST(ShardMergeTest, HourlySeriesAddsSlotWise) {
  HourlySeries a;
  a.total[3] = 5;
  a.nxdomain[3] = 1;
  a.google[7] = 2;
  HourlySeries b;
  b.total[3] = 7;
  b.akamai[9] = 4;
  a += b;
  EXPECT_EQ(a.total[3], 12u);
  EXPECT_EQ(a.nxdomain[3], 1u);
  EXPECT_EQ(a.google[7], 2u);
  EXPECT_EQ(a.akamai[9], 4u);
  EXPECT_EQ(a.sum_total(), 12u);
}

TEST(ShardMergeTest, RpdnsMergeKeepsEarliestFirstSeen) {
  RpDnsDataset a;
  a.add({"x.example.com", RRType::A, "10.0.0.1"}, 5);
  RpDnsDataset b;
  b.add({"x.example.com", RRType::A, "10.0.0.1"}, 3);
  b.add({"y.example.com", RRType::A, "10.0.0.2"}, 4);

  a.merge_from(b);
  EXPECT_EQ(a.unique_records(), 2u);
  EXPECT_EQ(a.first_seen({"x.example.com", RRType::A, "10.0.0.1"}), 3);
  EXPECT_EQ(a.new_records_on(5), 0u);  // moved to day 3
  EXPECT_EQ(a.new_records_on(3), 1u);
  EXPECT_EQ(a.new_records_on(4), 1u);
}

TEST(ShardMergeTest, DayCaptureMergeUnionsEverything) {
  DayCaptureConfig config;
  config.keep_fpdns = true;
  config.feed_rpdns = true;
  DayCapture a(config);
  DayCapture b(config);
  a.start_day(1);
  b.start_day(1);
  a.on_below(2 * kSecondsPerHour, 1, question("a.example.com"),
             RCode::NoError, answer_rrs("a.example.com", 60));
  b.on_below(1 * kSecondsPerHour, 2, question("b.example.com"),
             RCode::NoError, answer_rrs("b.example.com", 60, "10.0.0.2"));
  b.on_above(3 * kSecondsPerHour, question("a.example.com"), RCode::NoError,
             answer_rrs("a.example.com", 60));

  a.merge_from(b);
  a.fpdns().stable_sort_by_time();
  EXPECT_EQ(a.unique_queried(), 2u);
  EXPECT_EQ(a.unique_resolved(), 2u);
  EXPECT_EQ(a.tree().black_count(), 2u);
  EXPECT_EQ(a.chr().unique_rrs(), 2u);
  EXPECT_EQ(a.below_series().sum_total(), 2u);
  EXPECT_EQ(a.above_series().sum_total(), 1u);
  EXPECT_EQ(a.rpdns().unique_records(), 2u);
  ASSERT_EQ(a.fpdns().size(), 3u);
  // Sorted back into tap time order: b's below entry came first.
  EXPECT_EQ(a.fpdns().entries()[0].qname, "b.example.com");
  EXPECT_EQ(a.fpdns().entries()[1].qname, "a.example.com");
  const auto* counts = a.chr().find({"a.example.com", RRType::A, "10.0.0.1"});
  ASSERT_NE(counts, nullptr);
  EXPECT_EQ(counts->below, 1u);
  EXPECT_EQ(counts->above, 1u);
}

TEST(ShardMergeTest, MergeShardsStopsAtFirstError) {
  std::vector<ShardResult> shards;
  shards.emplace_back();
  shards.emplace_back();
  shards[0].counters.below_answers = 3;
  shards[1].error = "boom";
  shards[1].counters.below_answers = 9;

  DayCapture total;
  total.start_day(0);
  std::string error;
  merge_shards(shards, total, error);
  EXPECT_EQ(error, "shard 1: boom");
}

TEST(ShardMergeTest, MergeShardsSumsCounters) {
  std::vector<ShardResult> shards;
  shards.emplace_back();
  shards.emplace_back();
  shards[0].counters.below_answers = 3;
  shards[0].counters.above_answers = 1;
  shards[0].counters.stats.hits = 2;
  shards[1].counters.below_answers = 4;
  shards[1].counters.stats.hits = 5;

  DayCapture total;
  total.start_day(0);
  std::string error;
  const ShardCounters counters = merge_shards(shards, total, error);
  EXPECT_TRUE(error.empty());
  EXPECT_EQ(counters.below_answers, 7u);
  EXPECT_EQ(counters.above_answers, 1u);
  EXPECT_EQ(counters.stats.hits, 7u);
}

TEST(ShardMergeTest, PoolMergeEqualsSerialMergeForOneToFourShards) {
  ThreadPool pool(3);
  for (std::size_t count = 1; count <= 4; ++count) {
    // Every pattern of empty shards, the all-empty day included.
    for (unsigned empty = 0; empty < (1u << count); ++empty) {
      SCOPED_TRACE("shards=" + std::to_string(count) +
                   " empty_mask=" + std::to_string(empty));
      std::vector<ShardResult> serial_shards = make_shards(count, empty, 7);
      std::vector<ShardResult> pool_shards = make_shards(count, empty, 7);
      std::vector<ShardResult> copy_shards = make_shards(count, empty, 7);

      DayCapture serial(full_config());
      DayCapture pooled(full_config());
      DayCapture reference(full_config());
      serial.start_day(7);
      pooled.start_day(7);
      reference.start_day(7);
      std::string serial_error;
      std::string pool_error;
      const ShardCounters serial_counters =
          merge_shards(serial_shards, serial, serial_error);
      const ShardCounters pool_counters =
          merge_shards(pool_shards, pooled, pool_error, &pool);
      // The pre-adopt merge: every shard unioned by copy, in order.
      for (const ShardResult& shard : copy_shards) {
        reference.merge_from(shard.capture);
      }
      reference.fpdns().stable_sort_by_time();

      EXPECT_TRUE(serial_error.empty());
      EXPECT_TRUE(pool_error.empty());
      EXPECT_EQ(serial_counters.below_answers, pool_counters.below_answers);
      EXPECT_EQ(serial_counters.below_answers, count * (count + 1) / 2);
      expect_same_capture(serial, pooled);
      expect_same_capture(serial, reference);
    }
  }
}

TEST(ShardMergeTest, AdoptingShardZeroKeepsTheCumulativeRpdnsStore) {
  for (const bool with_pool : {false, true}) {
    SCOPED_TRACE(with_pool ? "pool" : "no pool");
    ThreadPool pool(2);
    DayCapture capture(full_config());
    std::string error;

    capture.start_day(1);
    std::vector<ShardResult> day1;
    day1.emplace_back(full_config());
    day1[0].capture.start_day(1);
    day1[0].capture.on_below(0, 1, question("x.example.com"), RCode::NoError,
                             answer_rrs("x.example.com", 60));
    merge_shards(day1, capture, error, with_pool ? &pool : nullptr);
    ASSERT_TRUE(error.empty());

    capture.start_day(2);
    std::vector<ShardResult> day2;
    day2.emplace_back(full_config());
    day2.emplace_back(full_config());
    day2[0].capture.start_day(2);
    day2[1].capture.start_day(2);
    day2[0].capture.on_below(0, 1, question("x.example.com"), RCode::NoError,
                             answer_rrs("x.example.com", 60));
    day2[1].capture.on_below(0, 2, question("y.example.com"), RCode::NoError,
                             answer_rrs("y.example.com", 60, "10.0.0.2"));
    merge_shards(day2, capture, error, with_pool ? &pool : nullptr);
    ASSERT_TRUE(error.empty());

    // Day 1's record survives day 2's shard-0 adopt with its first day.
    EXPECT_EQ(capture.rpdns().unique_records(), 2u);
    EXPECT_EQ(capture.rpdns().first_seen({"x.example.com", RRType::A,
                                          "10.0.0.1"}),
              1);
    EXPECT_EQ(capture.rpdns().first_seen({"y.example.com", RRType::A,
                                          "10.0.0.2"}),
              2);
    EXPECT_EQ(capture.rpdns().new_records_on(1), 1u);
    EXPECT_EQ(capture.rpdns().new_records_on(2), 1u);
    // The per-day parts hold day 2 only.
    EXPECT_EQ(capture.unique_queried(), 2u);
    EXPECT_EQ(capture.unique_resolved(), 2u);
  }
}

TEST(ShardMergeTest, MergeShardsWithPoolReportsTheFirstError) {
  ThreadPool pool(3);
  std::vector<ShardResult> shards = make_shards(4, 0u, 0);
  shards[2].error = "boom";
  shards[3].error = "later";

  DayCapture total;
  total.start_day(0);
  std::string error;
  merge_shards(shards, total, error, &pool);
  EXPECT_EQ(error, "shard 2: boom");
}

}  // namespace
}  // namespace dnsnoise
