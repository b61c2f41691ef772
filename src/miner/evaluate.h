// Mining-quality evaluation against the scenario's ground truth, plus the
// finding index used to attribute traffic to mined disposable zones.
#pragma once

#include <bitset>
#include <cstddef>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "dns/public_suffix.h"
#include "miner/algorithm1.h"
#include "workload/scenario.h"

namespace dnsnoise {

/// Fast "is this name covered by a mined (zone, depth) pair?" lookup.
class FindingIndex {
 public:
  explicit FindingIndex(std::span<const DisposableZoneFinding> findings);

  /// True when the name's depth and a proper enclosing zone match some
  /// finding.  `name` is normalized text (DomainName::text()); each proper
  /// suffix is probed as a view, so the lookup neither parses nor
  /// allocates.
  bool is_disposable(std::string_view name) const;
  bool is_disposable(const DomainName& name) const {
    return is_disposable(std::string_view(name.text()));
  }

  std::size_t size() const noexcept { return count_; }

 private:
  struct TextHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view text) const noexcept {
      return std::hash<std::string_view>{}(text);
    }
  };

  // A name has at most 127 labels, so label counts index 128-bit sets.
  using DepthSet = std::bitset<128>;

  // zone text -> group depths.
  std::unordered_map<std::string, DepthSet, TextHash, std::equal_to<>> rules_;
  DepthSet name_depths_;  // every finding's group depth
  DepthSet zone_labels_;  // every finding zone's label count
  std::size_t count_ = 0;
};

struct MiningEvaluation {
  std::size_t findings = 0;
  std::size_t true_positive_findings = 0;
  std::size_t false_positive_findings = 0;
  std::size_t unique_2lds = 0;           // distinct 2LDs among findings
  std::size_t truth_zones_discovered = 0;
  /// Discovered truth zones per archetype — the paper's "industries that
  /// use disposable domains" row (Fig. 11).
  std::unordered_map<std::string, std::size_t> discovered_by_archetype;

  double finding_precision() const noexcept {
    return findings == 0 ? 0.0
                         : static_cast<double>(true_positive_findings) /
                               static_cast<double>(findings);
  }
};

/// A finding (z, k) is a true positive when some truth zone generates names
/// of depth k and its apex is in an ancestor/descendant relation with z.
MiningEvaluation evaluate_findings(
    std::span<const DisposableZoneFinding> findings, const GroundTruth& truth,
    const PublicSuffixList& psl = PublicSuffixList::builtin());

}  // namespace dnsnoise
