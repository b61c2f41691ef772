#include "miner/day_capture.h"

#include <utility>

#include "workload/scenario.h"

namespace dnsnoise {

DayCapture::DayCapture(const DayCaptureConfig& config) : config_(config) {}

void DayCapture::attach(RdnsCluster& cluster) { cluster.add_tap_observer(this); }

void DayCapture::detach(RdnsCluster& cluster) {
  cluster.remove_tap_observer(this);
}

void DayCapture::on_tap_batch(const TapBatch& batch) {
  for (const TapEvent& event : batch) {
    if (event.direction == TapDirection::kBelow) {
      on_below(event.ts, event.client_id, event.question, event.rcode,
               batch.answers(event));
    } else {
      on_above(event.ts, event.question, event.rcode, batch.answers(event));
    }
  }
}

void DayCapture::start_day(std::int64_t day_index) {
  config_.day_index = day_index;
  tree_ = DomainNameTree();
  chr_ = CacheHitRateTracker();
  below_ = HourlySeries();
  above_ = HourlySeries();
  queried_ = NameTable();
  qname_in_tree_.clear();
  fpdns_.clear();
}

void DayCapture::merge_from(const DayCapture& other) {
  for (std::size_t part = 0; part < kPartCount; ++part) {
    union_part(static_cast<Part>(part), other);
  }
}

void DayCapture::merge_part(Part part, std::span<DayCapture* const> shards) {
  for (std::size_t i = 0; i < shards.size(); ++i) {
    if (i == 0 && adopt_part(part, *shards[0])) continue;
    union_part(part, *shards[i]);
  }
}

void DayCapture::union_part(Part part, const DayCapture& other) {
  switch (part) {
    case Part::kTree:
      tree_.merge_from(other.tree_);
      break;
    case Part::kChr:
      chr_.merge_from(other.chr_);
      break;
    case Part::kRest:
      below_ += other.below_;
      above_ += other.above_;
      for (NameId id = 0; id < other.queried_.size(); ++id) {
        queried_.intern(other.queried_.name(id));
      }
      fpdns_.append(other.fpdns_);
      rpdns_.merge_from(other.rpdns_);
      break;
  }
}

bool DayCapture::adopt_part(Part part, DayCapture& shard) {
  // Each move stands for a union into an empty member; the exchange leaves
  // the shard's member empty but valid.
  switch (part) {
    case Part::kTree:
      if (tree_.node_count() != 1) return false;
      tree_ = std::exchange(shard.tree_, DomainNameTree());
      return true;
    case Part::kChr:
      if (chr_.unique_rrs() != 0) return false;
      chr_ = std::exchange(shard.chr_, CacheHitRateTracker());
      return true;
    case Part::kRest:
      if (queried_.size() != 0 || !fpdns_.empty()) return false;
      queried_ = std::exchange(shard.queried_, NameTable());
      fpdns_ = std::exchange(shard.fpdns_, FpDnsDataset());
      union_part(Part::kRest, shard);  // the series and the rpDNS store
      return true;
  }
  return false;
}

void DayCapture::bump(HourlySeries& series, SimTime ts, std::uint64_t units,
                      bool nx, const DomainName& qname) {
  const auto hour = static_cast<std::size_t>(hour_of_day(ts));
  series.total[hour] += units;
  if (nx) series.nxdomain[hour] += units;
  if (Scenario::is_google_name(qname)) series.google[hour] += units;
  if (Scenario::is_akamai_name(qname)) series.akamai[hour] += units;
}

void DayCapture::on_below(SimTime ts, std::uint64_t client_id,
                          const Question& question, RCode rcode,
                          std::span<const ResourceRecord> answers) {
  const bool nx = rcode != RCode::NoError;
  const std::uint64_t units = nx || answers.empty()
                                  ? 1
                                  : static_cast<std::uint64_t>(answers.size());
  bump(below_, ts, units, nx, question.name);
  const NameId qname_id = queried_.intern(question.name.text());
  if (config_.keep_fpdns) {
    fpdns_.add_response(ts, client_id, FpDirection::kBelow, question, rcode,
                        answers);
  }
  if (nx) return;
  if (qname_id >= qname_in_tree_.size()) qname_in_tree_.resize(qname_id + 1);
  for (const ResourceRecord& rr : answers) {
    chr_.record_below(rr.name.text(), rr.type, rr.rdata, rr.ttl);
    if (rr.name.text() != question.name.text()) {
      tree_.insert(rr.name);
    } else if (!qname_in_tree_[qname_id]) {
      tree_.insert(rr.name);
      qname_in_tree_[qname_id] = true;
    }
    if (config_.feed_rpdns) {
      rpdns_.add(RRKey(rr), config_.day_index);
    }
  }
}

void DayCapture::on_above(SimTime ts, const Question& question, RCode rcode,
                          std::span<const ResourceRecord> answers) {
  const bool nx = rcode != RCode::NoError;
  const std::uint64_t units = nx || answers.empty()
                                  ? 1
                                  : static_cast<std::uint64_t>(answers.size());
  bump(above_, ts, units, nx, question.name);
  if (config_.keep_fpdns) {
    fpdns_.add_response(ts, 0, FpDirection::kAbove, question, rcode, answers);
  }
  if (nx) return;
  for (const ResourceRecord& rr : answers) {
    chr_.record_above(rr.name.text(), rr.type, rr.rdata, rr.ttl);
  }
}

}  // namespace dnsnoise
