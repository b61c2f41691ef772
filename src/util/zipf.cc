#include "util/zipf.h"

#include <cmath>
#include <stdexcept>

namespace dnsnoise {

GuideIndex::GuideIndex(std::span<const double> v)
    : start_(v.size() + 1),
      scale_(static_cast<double>(v.size()) / v.back()) {
  // start_[j] = #{i : bucket of v[i] < j}, with buckets computed exactly as
  // a search computes them, in one merge walk.  The multiplication is
  // monotone, so every value in an earlier bucket is below every u in
  // bucket j: start_[j] <= lower_bound(u) <= upper_bound(u).  The last
  // bucket also takes every u past it, so its end counts every value.
  std::size_t i = 0;
  for (std::size_t j = 0; j < v.size(); ++j) {
    while (i < v.size() && v[i] * scale_ < static_cast<double>(j)) ++i;
    start_[j] = static_cast<std::uint32_t>(i);
  }
  start_.back() = static_cast<std::uint32_t>(v.size());
}

std::size_t GuideIndex::lower_bound(std::span<const double> v,
                                    double u) const noexcept {
  const std::size_t j = bucket(u);
  std::size_t r = start_[j];
  if (start_[j + 1] == r) return r;  // no value inside the bucket
  while (r < v.size() && v[r] < u) ++r;
  return r;
}

std::size_t GuideIndex::upper_bound(std::span<const double> v,
                                    double u) const noexcept {
  const std::size_t j = bucket(u);
  std::size_t r = start_[j];
  if (start_[j + 1] == r) return r;
  while (r < v.size() && v[r] <= u) ++r;
  return r;
}

ZipfSampler::ZipfSampler(std::size_t n, double s) : exponent_(s) {
  if (n == 0) throw std::invalid_argument("ZipfSampler: n must be > 0");
  if (s < 0.0) throw std::invalid_argument("ZipfSampler: exponent must be >= 0");
  cdf_.resize(n);
  double total = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = total;
  }
  for (auto& value : cdf_) value /= total;
  cdf_.back() = 1.0;  // guard against accumulated floating point error
  guide_ = GuideIndex(cdf_);
}

std::size_t ZipfSampler::sample(Rng& rng) const noexcept {
  return guide_.lower_bound(cdf_, rng.uniform());
}

double ZipfSampler::pmf(std::size_t rank) const noexcept {
  if (rank >= cdf_.size()) return 0.0;
  return rank == 0 ? cdf_[0] : cdf_[rank] - cdf_[rank - 1];
}

}  // namespace dnsnoise
