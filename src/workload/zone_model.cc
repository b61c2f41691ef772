#include "workload/zone_model.h"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <string_view>

namespace dnsnoise {

namespace {

/// Deterministic pooled rdata value `idx` for a zone: disposable operators
/// answer from a small set of signal values (e.g. McAfee's 127.0.0.0/16
/// classification codes), so rdata cardinality is far below name
/// cardinality.
std::string pooled_rdata(const std::string& apex, std::size_t idx,
                         RRType type) {
  const std::string key = apex + "#" + std::to_string(idx);
  return type == RRType::AAAA ? synthetic_aaaa_rdata(key)
                              : synthetic_a_rdata(key);
}

std::size_t pool_index(std::string_view qname, std::size_t pool) {
  return static_cast<std::size_t>(mix64(fnv1a64(qname)) % pool);
}

/// Appends the 2LD of OtherSites site `i`.
void append_site_domain(const OtherSitesConfig& config, std::size_t i,
                        std::string& out) {
  pseudo_word_into(mix64(config.seed ^ i) % (1u << 30), out);
  out.push_back('.');
  out += config.tlds[i % config.tlds.size()];
}

}  // namespace

// --------------------------------------------------------------------------
// DisposableZoneModel

struct DisposableZoneModel::Zone {
  DisposableZoneConfig config;
  NamePattern pattern;
  DomainName apex_name;
  /// The pooled A rdata, rendered once; AAAA answers render theirs per
  /// answer.
  std::vector<std::string> pooled_a;
};

DisposableZoneModel::DisposableZoneModel(DisposableZoneConfig config,
                                         NamePattern pattern) {
  if (config.rdata_pool == 0) {
    throw std::invalid_argument("DisposableZoneModel: rdata_pool must be > 0");
  }
  auto zone = std::make_shared<Zone>();
  zone->apex_name = DomainName(config.apex);
  zone->pooled_a.reserve(config.rdata_pool);
  for (std::size_t i = 0; i < config.rdata_pool; ++i) {
    zone->pooled_a.push_back(pooled_rdata(config.apex, i, RRType::A));
  }
  zone->config = std::move(config);
  zone->pattern = std::move(pattern);
  zone_ = std::move(zone);
}

DisposableZoneModel::DisposableZoneModel(std::shared_ptr<const Zone> zone)
    : zone_(std::move(zone)) {}

std::shared_ptr<ZoneModel> DisposableZoneModel::new_stream() const {
  return std::shared_ptr<ZoneModel>(new DisposableZoneModel(zone_));
}

const std::string& DisposableZoneModel::name() const noexcept {
  return zone_->config.apex;
}

const DisposableZoneConfig& DisposableZoneModel::config() const noexcept {
  return zone_->config;
}

std::size_t DisposableZoneModel::name_depth() const noexcept {
  return zone_->apex_name.label_count() + zone_->pattern.depth();
}

QuerySpec DisposableZoneModel::sample_query(Rng& rng) {
  QuerySpec out;
  sample_query_into(out, rng);
  return out;
}

void DisposableZoneModel::sample_query_into(QuerySpec& out, Rng& rng) {
  const DisposableZoneConfig& config = zone_->config;
  out.qtype = config.qtype;
  // Occasionally the generating software re-emits a recent name — the
  // paper notes disposable names are "not strictly looked up once".
  if (!recent_.empty() && rng.chance(config.repeat_probability)) {
    out.qname = recent_[rng.below(recent_.size())];
    return;
  }
  out.qname.clear();
  zone_->pattern.generate_into(out.qname, rng);
  out.qname.push_back('.');
  out.qname += config.apex;
  if (config.recent_window > 0) {
    if (recent_.size() < config.recent_window) {
      recent_.push_back(out.qname);
    } else {
      recent_[recent_next_] = out.qname;  // copy-assign reuses ring capacity
      recent_next_ = (recent_next_ + 1) % config.recent_window;
    }
  }
}

void DisposableZoneModel::install(SyntheticAuthority& authority) const {
  authority.register_zone(
      zone_->apex_name, [zone = zone_](const Question& q, SimTime) {
        const DisposableZoneConfig& cfg = zone->config;
        AuthorityAnswer answer;
        answer.rcode = RCode::NoError;
        answer.disposable_zone = true;
        answer.dnssec_signed = cfg.dnssec_signed;
        const std::size_t idx = pool_index(q.name.text(), cfg.rdata_pool);
        // A round-robin set: rr_per_answer distinct records from the rdata
        // pool.  Pooled rdata keeps zone-level rdata cardinality low (the
        // property §VI-C's wildcard folding exploits) while every record
        // is still a distinct (name, rdata) RR because the name is
        // one-time.
        const std::size_t records = std::max<std::size_t>(
            1, std::min(cfg.rr_per_answer, cfg.rdata_pool));
        const RRType type = q.type == RRType::AAAA ? RRType::AAAA : RRType::A;
        answer.answers.resize(records);
        for (std::size_t j = 0; j < records; ++j) {
          ResourceRecord& rr = answer.answers[j];
          rr.name = q.name;
          rr.type = type;
          rr.ttl = cfg.ttl;
          const std::size_t slot = (idx + j) % cfg.rdata_pool;
          rr.rdata = type == RRType::A ? zone->pooled_a[slot]
                                       : pooled_rdata(cfg.apex, slot, type);
        }
        return answer;
      });
}

// --------------------------------------------------------------------------
// PopularZoneModel

PopularZoneModel::PopularZoneModel(PopularZoneConfig config)
    : config_(std::move(config)),
      popularity_(std::max<std::size_t>(config_.hostnames, 1), config_.zipf_s) {
  hosts_.reserve(config_.hostnames);
  // Rank 0 is the bare apex (users hit "google.com" itself most).
  hosts_.push_back(config_.apex);
  for (std::size_t i = 1; i < config_.hostnames; ++i) {
    hosts_.push_back(human_hostname(i - 1) + "." + config_.apex);
  }
}

QuerySpec PopularZoneModel::sample_query(Rng& rng) {
  QuerySpec out;
  sample_query_into(out, rng);
  return out;
}

void PopularZoneModel::sample_query_into(QuerySpec& out, Rng& rng) {
  const std::size_t rank = popularity_.sample(rng);
  out.qtype = rng.chance(config_.aaaa_fraction) ? RRType::AAAA : RRType::A;
  out.qname = hosts_[std::min(rank, hosts_.size() - 1)];
}

void PopularZoneModel::install(SyntheticAuthority& authority) const {
  authority.register_zone(
      DomainName(config_.apex),
      SyntheticAuthority::make_flat_a_zone(config_.ttl,
                                           config_.dnssec_signed));
}

// --------------------------------------------------------------------------
// CdnZoneModel

CdnZoneModel::CdnZoneModel(CdnZoneConfig config)
    : config_(std::move(config)),
      popularity_(std::max<std::size_t>(config_.shards, 1), config_.zipf_s) {}

QuerySpec CdnZoneModel::sample_query(Rng& rng) {
  QuerySpec out;
  sample_query_into(out, rng);
  return out;
}

void CdnZoneModel::sample_query_into(QuerySpec& out, Rng& rng) {
  const std::size_t shard = popularity_.sample(rng);
  out.qtype = RRType::A;
  out.qname.clear();
  out.qname.push_back('e');
  detail::append_decimal(out.qname, shard);
  out.qname.push_back('.');
  out.qname += config_.apex;
}

void CdnZoneModel::install(SyntheticAuthority& authority) const {
  authority.register_zone(DomainName(config_.apex),
                          SyntheticAuthority::make_flat_a_zone(config_.ttl));
}

// --------------------------------------------------------------------------
// OtherSitesModel

/// The site population as a flat open-addressed set: every site domain's
/// bytes in one buffer, and a power-of-two slot table whose slots hold the
/// domain's hash tag and site number.  Built once; read-only afterwards.
class OtherSitesModel::SiteIndex {
 public:
  /// Indexes sites [0, config.sites); with no sites, site 0's domain is
  /// still rendered (the sampler's single rank) but never resolves.
  explicit SiteIndex(const OtherSitesConfig& config) {
    const std::size_t sites = config.sites;
    std::size_t capacity = 16;
    while (capacity < sites + sites / 2) capacity *= 2;  // load <= 2/3
    slots_.assign(capacity, 0);
    const std::size_t names = std::max<std::size_t>(sites, 1);
    ends_.reserve(names);
    bytes_.reserve(names * 16);
    for (std::size_t i = 0; i < names; ++i) {
      append_site_domain(config, i, bytes_);
      ends_.push_back(static_cast<std::uint32_t>(bytes_.size()));
      if (i == sites) break;  // the unindexed site 0 of an empty population
      const std::uint64_t hash = hash_of(site(i));
      std::size_t slot = hash & (capacity - 1);
      while (slots_[slot] != 0) slot = (slot + 1) & (capacity - 1);
      slots_[slot] = (hash & kTagMask) | (i + 1);
    }
  }

  /// Domain of site `i`.
  std::string_view site(std::size_t i) const noexcept {
    const std::size_t begin = i == 0 ? 0 : ends_[i - 1];
    return std::string_view(bytes_).substr(begin, ends_[i] - begin);
  }

  bool contains(std::string_view domain) const noexcept {
    const std::uint64_t hash = hash_of(domain);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t slot = hash & mask; slots_[slot] != 0;
         slot = (slot + 1) & mask) {
      const std::uint64_t entry = slots_[slot];
      if ((entry & kTagMask) == (hash & kTagMask) &&
          site((entry & ~kTagMask) - 1) == domain) {
        return true;
      }
    }
    return false;
  }

 private:
  /// A slot is (hash high 32 bits | site + 1); 0 marks an empty slot.
  static constexpr std::uint64_t kTagMask = 0xffffffff00000000ULL;

  static std::uint64_t hash_of(std::string_view domain) noexcept {
    return std::hash<std::string_view>{}(domain);
  }

  std::string bytes_;
  std::vector<std::uint32_t> ends_;  // site i ends at ends_[i]
  std::vector<std::uint64_t> slots_;
};

OtherSitesModel::OtherSitesModel(OtherSitesConfig config)
    : config_(std::move(config)),
      popularity_(std::max<std::size_t>(config_.sites, 1), config_.zipf_s),
      sites_(std::make_shared<const SiteIndex>(config_)) {}

std::string OtherSitesModel::site_domain(std::size_t i) const {
  std::string out;
  append_site_domain(config_, i, out);
  return out;
}

QuerySpec OtherSitesModel::sample_query(Rng& rng) {
  QuerySpec out;
  sample_query_into(out, rng);
  return out;
}

void OtherSitesModel::sample_query_into(QuerySpec& out, Rng& rng) {
  const std::size_t site = popularity_.sample(rng);
  // Host index skews hard toward the site front page / www.
  const auto host = static_cast<std::size_t>(
      std::min<std::uint64_t>(rng.geometric(0.65),
                              config_.max_hosts_per_site - 1));
  out.qtype = RRType::A;
  out.qname.clear();
  if (host == 0) {
    if (!rng.chance(0.5)) out.qname += "www.";
  } else {
    human_hostname_into(host, out.qname);
    out.qname.push_back('.');
  }
  out.qname += sites_->site(site);
}

void OtherSitesModel::install(SyntheticAuthority& authority) const {
  for (const std::string& tld : config_.tlds) {
    const DomainName tld_name(tld);
    const std::size_t site_labels = tld_name.label_count() + 1;
    const std::uint32_t ttl = config_.ttl;
    authority.register_zone(
        tld_name, [sites = sites_, site_labels, ttl](const Question& q,
                                                     SimTime) {
          AuthorityAnswer answer;  // defaults to NXDOMAIN
          if (q.name.label_count() < site_labels) return answer;
          if (!sites->contains(q.name.nld_view(site_labels))) return answer;
          answer.rcode = RCode::NoError;
          ResourceRecord rr;
          rr.name = q.name;
          rr.type = q.type == RRType::AAAA ? RRType::AAAA : RRType::A;
          rr.ttl = ttl;
          rr.rdata = rr.type == RRType::AAAA
                         ? synthetic_aaaa_rdata(q.name.text())
                         : synthetic_a_rdata(q.name.text());
          answer.answers.push_back(std::move(rr));
          return answer;
        });
  }
}

// --------------------------------------------------------------------------
// NxdomainModel

NxdomainModel::NxdomainModel(NxdomainConfig config)
    : config_(std::move(config)) {}

QuerySpec NxdomainModel::sample_query(Rng& rng) {
  QuerySpec out;
  sample_query_into(out, rng);
  return out;
}

void NxdomainModel::sample_query_into(QuerySpec& out, Rng& rng) {
  const std::size_t len =
      config_.min_len + rng.below(config_.max_len - config_.min_len + 1);
  out.qtype = RRType::A;
  std::string& qname = out.qname;
  qname.clear();
  // Same per-character draws as Rng::string_over.
  constexpr std::string_view kAlphabet =
      "abcdefghijklmnopqrstuvwxyz0123456789";
  for (std::size_t i = 0; i < len; ++i) {
    qname.push_back(kAlphabet[rng.below(kAlphabet.size())]);
  }
  // Junk 2LDs never collide with OtherSites' digit-free pseudo-words.
  // (Identical statement to the historical one: the RHS draw sequences
  // before the index draw.)
  qname[rng.below(qname.size())] = static_cast<char>('0' + rng.below(10));
  qname.push_back('.');
  qname += config_.tlds[rng.below(config_.tlds.size())];
  if (rng.chance(config_.www_fraction)) qname.insert(0, "www.");
}

}  // namespace dnsnoise
