// Scenario presets: one per measurement date in the paper's 2011 campaign.
//
// Each scenario wires an authority + traffic generator that reproduce the
// *distributional* properties the paper measured on that date — disposable
// traffic share, zone population, TTL policy mix, NXDOMAIN load — scaled
// down from Comcast volumes to laptop volumes (see DESIGN.md §2).  Later
// dates strictly extend earlier ones: the disposable-zone master list is
// fixed, and date t activates a growing prefix of it, so "new zones appear
// over the year" holds by construction.
//
// A ScenarioNamespace is the immutable part — zone models, Zipf tables,
// site index, ground truth — built once per (date, scale); Scenarios over
// it add only the per-stream state (generator, recent-name rings,
// authority counters), so a run builds the namespace once and every
// shard's day and warm-up streams draw from it (DESIGN.md §9.1, §11.6).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "resolver/authority.h"
#include "workload/traffic_gen.h"
#include "workload/zone_model.h"

namespace dnsnoise {

/// The six fpDNS measurement dates the paper's growth series uses (§V-C).
enum class ScenarioDate : std::uint8_t {
  kFeb01 = 0,
  kSep02,
  kSep13,
  kNov14,
  kNov29,
  kDec30,
};

inline constexpr std::array<ScenarioDate, 6> kAllScenarioDates = {
    ScenarioDate::kFeb01,  ScenarioDate::kSep02, ScenarioDate::kSep13,
    ScenarioDate::kNov14, ScenarioDate::kNov29, ScenarioDate::kDec30,
};

std::string_view scenario_date_name(ScenarioDate date) noexcept;

/// Day offset since 02/01/2011.
std::int64_t scenario_day_index(ScenarioDate date) noexcept;

/// Position of the date within the measurement year, in [0, 1].
double scenario_progress(ScenarioDate date) noexcept;

/// Samples a disposable-zone TTL from the date-dependent policy mix
/// (Fig. 14: February skews to TTL 0/1s; December's mode is 300s).
std::uint32_t sample_disposable_ttl(Rng& rng, double progress);

/// Scale knobs: shrink/grow the synthetic ISP.
struct ScenarioScale {
  std::uint64_t queries_per_day = 400'000;
  std::size_t client_count = 20'000;
  /// Multiplies the disposable-zone population and site population.
  double population_scale = 1.0;
  std::uint64_t seed = 2011;
  /// Varies the query stream without changing the zone population (used by
  /// cache-warmup days and multi-day runs).
  std::uint64_t traffic_stream = 0;
  /// Scales the disposable traffic share (0 disables disposable tenants
  /// entirely); the slack is absorbed by ordinary popular traffic.  Drives
  /// the Section VI-A/VI-B ablations.
  double disposable_traffic_multiplier = 1.0;
  /// Scales only the flagship (Google-style) experiment zone's traffic,
  /// with the delta absorbed by Google's ordinary traffic.  Models the
  /// experiment ramping up *within* a multi-day window (Figs. 5/15).
  double flagship_boost = 1.0;
};

/// Ground truth about the synthetic namespace (never shown to the
/// classifier; used for labeling, evaluation, and figure series).
struct GroundTruth {
  struct ZoneInfo {
    std::string apex;        // zone under which names are generated
    std::size_t name_depth;  // label count of generated names
    std::string archetype;   // "reputation", "telemetry", ...
  };

  std::vector<ZoneInfo> disposable_zones;
  std::unordered_set<std::string> disposable_apexes;

  /// True if `name` falls under any disposable zone apex.
  bool is_disposable_name(const DomainName& name) const;
};

/// The immutable part of a scenario for one (date, scale): the tenant
/// models with their Zipf tables, the OtherSites site index, the popular
/// host lists, the disposable zone configs, patterns and pooled rdata, and
/// the ground truth.  Nothing in it is written after construction, so any
/// number of Scenarios — on any threads — can draw from one instance.
class ScenarioNamespace {
 public:
  ScenarioNamespace(ScenarioDate date, const ScenarioScale& scale);

  ScenarioDate date() const noexcept { return date_; }
  const ScenarioScale& scale() const noexcept { return scale_; }
  const GroundTruth& truth() const noexcept { return truth_; }
  const std::vector<std::string>& popular_apexes() const noexcept {
    return popular_apexes_;
  }
  /// The tenants with their traffic weights, in registration order, as a
  /// generator over scale()'s own stream.  It is never run: Scenarios draw
  /// from TrafficGenerator::for_stream copies of it.
  const TrafficGenerator& tenants() const noexcept { return tenants_; }

  /// True if a Scenario at `scale` may draw from this namespace: `scale`
  /// differs from scale() at most in queries_per_day and traffic_stream.
  bool serves(const ScenarioScale& scale) const noexcept;

 private:
  ScenarioDate date_;
  ScenarioScale scale_;
  TrafficGenerator tenants_;
  GroundTruth truth_;
  std::vector<std::string> popular_apexes_;
};

class Scenario {
 public:
  /// A scenario with a namespace of its own.
  Scenario(ScenarioDate date, const ScenarioScale& scale = {});
  /// A scenario drawing from a shared namespace; `scale` must be one the
  /// namespace serves() (else std::invalid_argument).  Builds only the
  /// per-stream state: the traffic generator, with fresh recent-name rings,
  /// and an authority with its own counters whose handlers read the shared
  /// tables.  Same draws and answers as Scenario(ns->date(), scale).
  Scenario(std::shared_ptr<const ScenarioNamespace> ns,
           const ScenarioScale& scale);

  ScenarioDate date() const noexcept { return namespace_->date(); }
  const ScenarioScale& scale() const noexcept { return scale_; }
  /// The namespace this scenario draws from, for further streams over it
  /// (warm-up days, engine shards).
  const std::shared_ptr<const ScenarioNamespace>& shared_namespace()
      const noexcept {
    return namespace_;
  }

  TrafficGenerator& traffic() noexcept { return traffic_; }
  const SyntheticAuthority& authority() const noexcept { return authority_; }
  /// Mutable authority access for callers that extend the namespace before
  /// serving it (engine/serve.h authority hooks, CI smoke zones).  Zones
  /// must be registered before any cluster starts resolving — the cluster
  /// reads the authority concurrently and lock-free.
  SyntheticAuthority& authority_mut() noexcept { return authority_; }
  const GroundTruth& truth() const noexcept { return namespace_->truth(); }

  /// Apexes of the Alexa-style popular zones (the non-disposable labeled
  /// class).
  const std::vector<std::string>& popular_apexes() const noexcept {
    return namespace_->popular_apexes();
  }

  /// Tenant attribution for the per-tenant figure series (Figs. 2, 5).
  static bool is_google_name(const DomainName& name);
  static bool is_akamai_name(const DomainName& name);

 private:
  std::shared_ptr<const ScenarioNamespace> namespace_;
  ScenarioScale scale_;
  SyntheticAuthority authority_;
  TrafficGenerator traffic_;
};

}  // namespace dnsnoise
