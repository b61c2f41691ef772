#include "workload/zone_model.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <stdexcept>
#include <unordered_set>

namespace dnsnoise {
namespace {

DisposableZoneModel make_disposable(DisposableZoneConfig config) {
  NamePattern pattern;
  pattern.add(RandomStringLabel::hex(16));
  return DisposableZoneModel(std::move(config), std::move(pattern));
}

TEST(DisposableZoneTest, NamesFallUnderApexAndParse) {
  DisposableZoneConfig config;
  config.apex = "avqs.vendor.com";
  config.repeat_probability = 0.0;
  auto model = make_disposable(config);
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const QuerySpec query = model.sample_query(rng);
    const auto name = DomainName::parse(query.qname);
    ASSERT_TRUE(name) << query.qname;
    EXPECT_TRUE(name->is_within("avqs.vendor.com"));
    EXPECT_EQ(name->label_count(), model.name_depth());
  }
  EXPECT_TRUE(model.disposable());
}

TEST(DisposableZoneTest, MostNamesAreOneTime) {
  DisposableZoneConfig config;
  config.apex = "x.vendor.net";
  config.repeat_probability = 0.0;
  auto model = make_disposable(config);
  Rng rng(2);
  std::set<std::string> names;
  for (int i = 0; i < 1000; ++i) names.insert(model.sample_query(rng).qname);
  EXPECT_EQ(names.size(), 1000u);  // hex(16): collisions are negligible
}

TEST(DisposableZoneTest, RepeatProbabilityReusesRecentNames) {
  DisposableZoneConfig config;
  config.apex = "x.vendor.net";
  config.repeat_probability = 0.5;
  config.recent_window = 16;
  auto model = make_disposable(config);
  Rng rng(3);
  std::set<std::string> names;
  constexpr int kQueries = 2000;
  for (int i = 0; i < kQueries; ++i) {
    names.insert(model.sample_query(rng).qname);
  }
  // Roughly half the queries are repeats.
  EXPECT_LT(names.size(), kQueries * 6 / 10);
  EXPECT_GT(names.size(), kQueries * 4 / 10);
}

TEST(DisposableZoneTest, AuthorityAnswersAreDeterministicAndPooled) {
  DisposableZoneConfig config;
  config.apex = "avqs.vendor.com";
  config.rdata_pool = 4;
  auto model = make_disposable(config);
  SyntheticAuthority authority;
  model.install(authority);

  Rng rng(4);
  std::unordered_set<std::string> rdatas;
  for (int i = 0; i < 300; ++i) {
    const QuerySpec query = model.sample_query(rng);
    const Question question{DomainName(query.qname), query.qtype};
    const auto a1 = authority.resolve(question, 0);
    const auto a2 = authority.resolve(question, 999);
    ASSERT_EQ(a1.answers.size(), 1u);
    EXPECT_EQ(a1.answers[0].rdata, a2.answers[0].rdata);  // deterministic
    EXPECT_TRUE(a1.disposable_zone);
    rdatas.insert(a1.answers[0].rdata);
  }
  // One-time names, but only rdata_pool distinct answers.
  EXPECT_LE(rdatas.size(), 4u);
}

TEST(DisposableZoneTest, RoundRobinAnswerSets) {
  DisposableZoneConfig config;
  config.apex = "exp.l.vendor.com";
  config.rdata_pool = 8;
  config.rr_per_answer = 4;
  auto model = make_disposable(config);
  SyntheticAuthority authority;
  model.install(authority);
  Rng rng(5);
  const QuerySpec query = model.sample_query(rng);
  const auto answer =
      authority.resolve({DomainName(query.qname), query.qtype}, 0);
  ASSERT_EQ(answer.answers.size(), 4u);
  std::set<std::string> distinct;
  for (const auto& rr : answer.answers) {
    EXPECT_EQ(rr.name.text(), query.qname);
    distinct.insert(rr.rdata);
  }
  EXPECT_EQ(distinct.size(), 4u);
}

TEST(DisposableZoneTest, RrPerAnswerClampedToPool) {
  DisposableZoneConfig config;
  config.apex = "t.vendor.com";
  config.rdata_pool = 2;
  config.rr_per_answer = 10;
  auto model = make_disposable(config);
  SyntheticAuthority authority;
  model.install(authority);
  Rng rng(6);
  const QuerySpec query = model.sample_query(rng);
  const auto answer =
      authority.resolve({DomainName(query.qname), query.qtype}, 0);
  EXPECT_EQ(answer.answers.size(), 2u);
}

TEST(DisposableZoneTest, EmptyRdataPoolIsRejected) {
  // Every answer draws its records from the pool, so a zone without one
  // cannot answer (it used to die dividing by zero on its first answer).
  DisposableZoneConfig config;
  config.apex = "t.vendor.com";
  config.rdata_pool = 0;
  EXPECT_THROW(make_disposable(config), std::invalid_argument);
}

TEST(DisposableZoneTest, NewStreamSharesTheZoneWithAFreshRecentRing) {
  DisposableZoneConfig config;
  config.apex = "x.vendor.net";
  config.repeat_probability = 0.5;
  auto original = make_disposable(config);
  Rng warm(12);
  for (int i = 0; i < 100; ++i) original.sample_query(warm);
  // A fresh stream draws exactly what a fresh model draws, whatever the
  // original's ring holds.
  const std::shared_ptr<ZoneModel> stream = original.new_stream();
  ASSERT_NE(stream, nullptr);
  auto fresh = make_disposable(config);
  Rng a(13);
  Rng b(13);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(stream->sample_query(a).qname, fresh.sample_query(b).qname);
  }
  SyntheticAuthority from_stream;
  SyntheticAuthority from_fresh;
  stream->install(from_stream);
  fresh.install(from_fresh);
  for (const RRType type : {RRType::A, RRType::AAAA}) {
    const Question q{DomainName("abc.x.vendor.net"), type};
    EXPECT_EQ(from_stream.resolve(q, 0).answers,
              from_fresh.resolve(q, 0).answers);
  }
  EXPECT_EQ(PopularZoneModel(PopularZoneConfig{"p.com"}).new_stream(), nullptr);
}

TEST(PopularZoneTest, FixedHostSetWithZipfPopularity) {
  PopularZoneConfig config;
  config.apex = "popular.com";
  config.hostnames = 10;
  config.aaaa_fraction = 0.0;
  PopularZoneModel model(config);
  EXPECT_FALSE(model.disposable());
  Rng rng(7);
  std::map<std::string, int> counts;
  for (int i = 0; i < 5000; ++i) ++counts[model.sample_query(rng).qname];
  EXPECT_LE(counts.size(), 10u);
  // The bare apex is rank 0 and must dominate.
  EXPECT_GT(counts["popular.com"], counts["www.popular.com"]);
  for (const auto& [name, count] : counts) {
    EXPECT_TRUE(DomainName(name).is_within("popular.com")) << name;
  }
}

TEST(PopularZoneTest, AaaaFraction) {
  PopularZoneConfig config;
  config.apex = "popular.com";
  config.aaaa_fraction = 1.0;
  PopularZoneModel model(config);
  Rng rng(8);
  EXPECT_EQ(model.sample_query(rng).qtype, RRType::AAAA);
}

TEST(CdnZoneTest, ShardNames) {
  CdnZoneConfig config;
  config.apex = "g.akamai.net";
  config.shards = 100;
  CdnZoneModel model(config);
  EXPECT_FALSE(model.disposable());
  Rng rng(9);
  for (int i = 0; i < 200; ++i) {
    const QuerySpec query = model.sample_query(rng);
    const auto name = DomainName::parse(query.qname);
    ASSERT_TRUE(name);
    EXPECT_TRUE(name->is_within("g.akamai.net"));
    EXPECT_EQ(name->label(0).front(), 'e');
  }
}

TEST(OtherSitesTest, OwnSitesResolveOthersDoNot) {
  OtherSitesConfig config;
  config.sites = 500;
  OtherSitesModel model(config);
  SyntheticAuthority authority;
  model.install(authority);

  Rng rng(10);
  for (int i = 0; i < 100; ++i) {
    const QuerySpec query = model.sample_query(rng);
    const auto answer =
        authority.resolve({DomainName(query.qname), query.qtype}, 0);
    EXPECT_EQ(answer.rcode, RCode::NoError) << query.qname;
    EXPECT_FALSE(answer.disposable_zone);
  }
  // Junk under a covered TLD gets NXDOMAIN from the TLD handler.
  EXPECT_EQ(authority.resolve({DomainName("n0such5ite.com"), RRType::A}, 0)
                .rcode,
            RCode::NXDomain);
}

TEST(OtherSitesTest, SiteDomainsAreStable) {
  OtherSitesConfig config;
  config.sites = 100;
  const OtherSitesModel a(config);
  const OtherSitesModel b(config);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(a.site_domain(i), b.site_domain(i));
  }
}

TEST(OtherSitesTest, AnswersExactlyTheSiteSet) {
  // Oracle: a plain string set of the site domains.  Candidates are the
  // sites, domains of indices past the population (same word shape, maybe
  // the same TLD), and near-miss variants of each.
  OtherSitesConfig config;
  config.sites = 3000;
  const OtherSitesModel model(config);
  std::set<std::string> sites;
  for (std::size_t i = 0; i < config.sites; ++i) {
    sites.insert(model.site_domain(i));
  }
  SyntheticAuthority authority;
  model.install(authority);
  std::size_t resolved = 0;
  for (std::size_t i = 0; i < 2 * config.sites; ++i) {
    const std::string domain = model.site_domain(i);
    for (const std::string& name :
         {domain, "www." + domain, "x" + domain, domain.substr(1)}) {
      const bool expected =
          sites.contains(name) ||
          (name.starts_with("www.") && sites.contains(name.substr(4)));
      const auto answer =
          authority.resolve({DomainName(name), RRType::A}, 0);
      ASSERT_EQ(answer.rcode == RCode::NoError, expected) << name;
      resolved += expected ? 1 : 0;
    }
  }
  EXPECT_GE(resolved, 2 * config.sites);  // sites and their www. hosts

  // An empty population still samples (site 0's name) but resolves nothing.
  config.sites = 0;
  OtherSitesModel empty(config);
  SyntheticAuthority none;
  empty.install(none);
  Rng rng(14);
  for (int i = 0; i < 20; ++i) {
    const QuerySpec query = empty.sample_query(rng);
    EXPECT_EQ(none.resolve({DomainName(query.qname), query.qtype}, 0).rcode,
              RCode::NXDomain)
        << query.qname;
  }
}

TEST(NxdomainTest, NamesNeverResolve) {
  NxdomainModel model(NxdomainConfig{});
  OtherSitesConfig sites_config;
  sites_config.sites = 1000;
  OtherSitesModel sites(sites_config);
  SyntheticAuthority authority;
  sites.install(authority);
  model.install(authority);  // no-op

  Rng rng(11);
  int resolved = 0;
  for (int i = 0; i < 500; ++i) {
    const QuerySpec query = model.sample_query(rng);
    ASSERT_TRUE(DomainName::parse(query.qname)) << query.qname;
    if (authority.resolve({DomainName(query.qname), query.qtype}, 0).rcode ==
        RCode::NoError) {
      ++resolved;
    }
  }
  EXPECT_EQ(resolved, 0);
}

}  // namespace
}  // namespace dnsnoise
