// DayCapture: the monitoring tap of one simulated day.
//
// Subscribes to an RdnsCluster's batched tap stream (TapObserver) and
// accumulates everything the paper's analyses need for that day: the domain
// name tree of resolved names, per-RR cache-hit-rate counts, hourly
// traffic-volume series with tenant attribution (Fig. 2), the unique
// queried names (interned in a NameTable; the unique resolved names are the
// tree's resolved nodes), and optionally the raw fpDNS entries and
// rpDNS/pDNS-DB feeds.  Captures are mergeable: the sharded engine runs one
// DayCapture per RDNS-server shard and unions them part by part (see
// merge_part), the parts concurrently on its pool.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "dns/name_table.h"
#include "features/chr.h"
#include "features/domain_tree.h"
#include "pdns/fpdns.h"
#include "pdns/rpdns.h"
#include "resolver/cluster.h"
#include "resolver/tap.h"
#include "util/sim_time.h"

namespace dnsnoise {

/// Hourly volume counters for one stream (24 slots).
struct HourlySeries {
  std::array<std::uint64_t, 24> total{};
  std::array<std::uint64_t, 24> nxdomain{};
  std::array<std::uint64_t, 24> google{};
  std::array<std::uint64_t, 24> akamai{};

  std::uint64_t sum_total() const noexcept {
    std::uint64_t sum = 0;
    for (const std::uint64_t v : total) sum += v;
    return sum;
  }
  std::uint64_t sum_nxdomain() const noexcept {
    std::uint64_t sum = 0;
    for (const std::uint64_t v : nxdomain) sum += v;
    return sum;
  }

  /// Slot-wise addition (shard merging).
  HourlySeries& operator+=(const HourlySeries& other) noexcept {
    for (std::size_t h = 0; h < 24; ++h) {
      total[h] += other.total[h];
      nxdomain[h] += other.nxdomain[h];
      google[h] += other.google[h];
      akamai[h] += other.akamai[h];
    }
    return *this;
  }
};

struct DayCaptureConfig {
  bool keep_fpdns = false;       // store raw fpDNS entries (memory-heavy)
  bool feed_rpdns = false;       // deduplicate into the rpDNS dataset
  std::int64_t day_index = 0;    // used for rpDNS first-seen dates
};

class DayCapture final : public TapObserver {
 public:
  /// The independently mergeable parts of a capture.  Distinct parts touch
  /// disjoint members, so the parts of one capture may merge concurrently.
  enum class Part { kTree, kChr, kRest };
  static constexpr std::size_t kPartCount = 3;

  explicit DayCapture(const DayCaptureConfig& config = {});

  /// Subscribes this capture to the cluster's batched tap stream.  The
  /// capture must stay registered-valid until detach() (or the cluster is
  /// destroyed, which flushes to it).
  void attach(RdnsCluster& cluster);

  /// Flushes pending cluster batches to this capture and unsubscribes.
  void detach(RdnsCluster& cluster);

  /// TapObserver: dispatches each batched event into the per-direction
  /// accumulators below.
  void on_tap_batch(const TapBatch& batch) override;

  /// Direct sink entry points (exposed for pcap-driven ingestion paths).
  void on_below(SimTime ts, std::uint64_t client_id, const Question& question,
                RCode rcode, std::span<const ResourceRecord> answers);
  void on_above(SimTime ts, const Question& question, RCode rcode,
                std::span<const ResourceRecord> answers);

  /// Advances to a new day.  This is the ONE reset point of a capture:
  /// clears all per-day state (tree, CHR, hourly series, queried names,
  /// fpDNS entries) but keeps the cumulative cross-day rpDNS store.  Every
  /// simulate/run entry point calls this before feeding a day.
  void start_day(std::int64_t day_index);

  /// Unions another capture of the SAME day into this one: domain-tree
  /// union, CHR count summation, hourly-series addition, queried-name
  /// union, fpDNS append, rpDNS first-seen merge.  Merging shard captures in
  /// shard order yields a deterministic result regardless of how many
  /// threads produced them.
  void merge_from(const DayCapture& other);

  /// Folds one part of `shards` (captures of the SAME day) into this
  /// capture in index order, with the same result as merge_from over each
  /// shard.  Where this capture's part is still empty (start_day()-reset),
  /// the first shard's per-day state is taken by move instead of
  /// re-inserted, leaving that shard's part empty.  The cumulative rpDNS
  /// store (kRest) is always merged, never replaced.
  void merge_part(Part part, std::span<DayCapture* const> shards);

  DomainNameTree& tree() noexcept { return tree_; }
  const DomainNameTree& tree() const noexcept { return tree_; }
  CacheHitRateTracker& chr() noexcept { return chr_; }
  const CacheHitRateTracker& chr() const noexcept { return chr_; }
  RpDnsDataset& rpdns() noexcept { return rpdns_; }
  const RpDnsDataset& rpdns() const noexcept { return rpdns_; }
  FpDnsDataset& fpdns() noexcept { return fpdns_; }
  const FpDnsDataset& fpdns() const noexcept { return fpdns_; }

  const HourlySeries& below_series() const noexcept { return below_; }
  const HourlySeries& above_series() const noexcept { return above_; }

  /// Unique names queried below (successful or not) this day.
  std::size_t unique_queried() const noexcept { return queried_.size(); }
  /// Unique names successfully resolved this day: the tree's resolved
  /// nodes, counted at ingest (mining's decolor does not change it).
  std::size_t unique_resolved() const noexcept {
    return tree_.resolved_count();
  }

  /// The unique queried names, ids in first-query order (merged captures:
  /// shard order).  The resolved names are the tree nodes whose `resolved`
  /// bit is set.
  const NameTable& queried_names() const noexcept { return queried_; }

 private:
  DayCaptureConfig config_;
  DomainNameTree tree_;
  CacheHitRateTracker chr_;
  RpDnsDataset rpdns_;
  FpDnsDataset fpdns_;
  HourlySeries below_;
  HourlySeries above_;
  NameTable queried_;
  /// Per queried-name id: the name already went into tree_ as the owner of
  /// one of its own answers this day, so later answers skip the repeat
  /// insert (DomainNameTree::insert is idempotent while nothing decolors,
  /// which only mining does, after ingest).  Other owners always insert.
  std::vector<bool> qname_in_tree_;

  /// merge_from for one part.
  void union_part(Part part, const DayCapture& other);
  /// Moves `shard`'s part into this capture when this part is empty;
  /// false (nothing moved) otherwise.
  bool adopt_part(Part part, DayCapture& shard);

  static void bump(HourlySeries& series, SimTime ts, std::uint64_t units,
                   bool nx, const DomainName& qname);
};

}  // namespace dnsnoise
