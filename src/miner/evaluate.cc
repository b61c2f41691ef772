#include "miner/evaluate.h"

#include <algorithm>

namespace dnsnoise {

namespace {

std::size_t label_count(std::string_view name) {
  return name.empty() ? 0
                      : 1 + static_cast<std::size_t>(
                                std::count(name.begin(), name.end(), '.'));
}

}  // namespace

FindingIndex::FindingIndex(std::span<const DisposableZoneFinding> findings) {
  for (const DisposableZoneFinding& finding : findings) {
    const std::size_t zone_labels = label_count(finding.zone);
    if (finding.depth < name_depths_.size() &&
        zone_labels < zone_labels_.size()) {
      rules_[finding.zone].set(finding.depth);
      name_depths_.set(finding.depth);
      zone_labels_.set(zone_labels);
    }
    ++count_;
  }
}

bool FindingIndex::is_disposable(std::string_view name) const {
  const std::size_t depth = label_count(name);
  if (depth >= name_depths_.size() || !name_depths_.test(depth)) return false;
  // The proper suffixes, longest first: the text after each dot.  Only
  // suffixes as long as some finding zone are probed.
  std::size_t suffix_labels = depth;
  for (std::size_t dot = name.find('.'); dot != std::string_view::npos;
       dot = name.find('.', dot + 1)) {
    if (!zone_labels_.test(--suffix_labels)) continue;
    const auto it = rules_.find(name.substr(dot + 1));
    if (it != rules_.end() && it->second.test(depth)) return true;
  }
  return false;
}

MiningEvaluation evaluate_findings(
    std::span<const DisposableZoneFinding> findings, const GroundTruth& truth,
    const PublicSuffixList& psl) {
  MiningEvaluation eval;
  eval.findings = findings.size();

  std::unordered_set<std::string> unique_2lds;
  std::unordered_set<std::string> discovered;
  std::unordered_map<std::string, std::string> archetype_of;
  for (const DisposableZoneFinding& finding : findings) {
    const auto zone = DomainName::parse(finding.zone);
    if (zone) {
      const DomainName registrable = psl.registrable_domain(*zone);
      unique_2lds.insert(registrable.empty() ? finding.zone
                                             : registrable.text());
    }
    bool matched = false;
    for (const GroundTruth::ZoneInfo& info : truth.disposable_zones) {
      if (info.name_depth != finding.depth) continue;
      const auto apex = DomainName::parse(info.apex);
      if (!apex || !zone) continue;
      if (apex->is_within(*zone) || zone->is_within(*apex)) {
        matched = true;
        discovered.insert(info.apex);
        archetype_of[info.apex] = info.archetype;
      }
    }
    matched ? ++eval.true_positive_findings : ++eval.false_positive_findings;
  }
  eval.unique_2lds = unique_2lds.size();
  eval.truth_zones_discovered = discovered.size();
  for (const std::string& apex : discovered) {
    ++eval.discovered_by_archetype[archetype_of[apex]];
  }
  return eval;
}

}  // namespace dnsnoise
