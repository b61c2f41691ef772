// Zipf (discrete power-law) sampler over ranks {0, ..., n-1}.
//
// Popularity of non-disposable hostnames follows a heavy-tailed rank
// distribution; the paper's "long tail" of lookup volume (Fig. 3a) emerges
// from exactly this shape.  We precompute the CDF once (O(n)) plus a guide
// index over it, so a draw costs O(1) expected and returns exactly the rank
// a binary search (std::lower_bound) over the CDF would.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/rng.h"

namespace dnsnoise {

/// Guide index over a non-decreasing table v (a CDF or cumulative
/// weights): one bucket per entry, u falling in bucket
/// floor(u * size / v.back()), and per bucket the number of values in the
/// buckets before it.  A search starts there and scans forward — or
/// answers at once when no value falls inside u's bucket — so both
/// searches return exactly what std::lower_bound / std::upper_bound over v
/// return, in O(1) expected steps.  The table is not stored: every call
/// passes the same v the index was built over.
class GuideIndex {
 public:
  GuideIndex() = default;
  /// v must be non-empty, non-decreasing, non-negative and finite, with
  /// v.back() > 0.
  explicit GuideIndex(std::span<const double> v);

  /// Number of buckets (== the table size it was built over).
  std::size_t size() const noexcept {
    return start_.empty() ? 0 : start_.size() - 1;
  }

  /// std::lower_bound(v, u) - v.begin(), for any u in [0, v.back()].
  std::size_t lower_bound(std::span<const double> v, double u) const noexcept;
  /// std::upper_bound(v, u) - v.begin(), for any u in [0, v.back()].
  std::size_t upper_bound(std::span<const double> v, double u) const noexcept;

 private:
  std::vector<std::uint32_t> start_;  // size() + 1 entries
  double scale_ = 0.0;                // buckets per unit of value

  std::size_t bucket(double u) const noexcept {
    const auto j = static_cast<std::size_t>(u * scale_);
    return j < size() ? j : size() - 1;
  }
};

class ZipfSampler {
 public:
  /// Builds a sampler over n ranks with exponent s (s >= 0; s == 0 is
  /// uniform).  Probability of rank r is proportional to 1 / (r+1)^s.
  ZipfSampler(std::size_t n, double s);

  /// Number of ranks.
  std::size_t size() const noexcept { return cdf_.size(); }

  /// Zipf exponent used to build the sampler.
  double exponent() const noexcept { return exponent_; }

  /// Samples a rank in [0, size()): the first rank whose CDF reaches one
  /// uniform draw.
  std::size_t sample(Rng& rng) const noexcept;

  /// Probability mass of the given rank.
  double pmf(std::size_t rank) const noexcept;

  /// The cumulative distribution, cdf()[r] = P(rank <= r).
  std::span<const double> cdf() const noexcept { return cdf_; }

 private:
  std::vector<double> cdf_;
  GuideIndex guide_;
  double exponent_ = 1.0;
};

}  // namespace dnsnoise
