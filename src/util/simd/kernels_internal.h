// Internal plumbing shared by the kernel dispatch layer (kernels.cc) and
// the per-ISA translation units (kernels_sse2.cc, kernels_avx2.cc).
//
// Everything here is integer bookkeeping: character class tables, the
// label-offset walk over dot bitmasks, and the scalar reference scan.
// Keeping the shared pieces integer-only is what makes cross-level
// bit-exactness automatic (see the determinism contract in kernels.h).
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "util/simd/kernels.h"

namespace dnsnoise::kernels::detail {

// --- character classes (the LDH+underscore superset DomainName accepts) ----

inline constexpr std::uint8_t kClassAllowed = 1;  // alnum, '-', '_'
inline constexpr std::uint8_t kClassDot = 2;

inline constexpr std::array<std::uint8_t, 256> kCharClass = [] {
  std::array<std::uint8_t, 256> t{};
  for (int c = '0'; c <= '9'; ++c) t[static_cast<std::size_t>(c)] = kClassAllowed;
  for (int c = 'a'; c <= 'z'; ++c) t[static_cast<std::size_t>(c)] = kClassAllowed;
  for (int c = 'A'; c <= 'Z'; ++c) t[static_cast<std::size_t>(c)] = kClassAllowed;
  t[static_cast<std::size_t>('-')] = kClassAllowed;
  t[static_cast<std::size_t>('_')] = kClassAllowed;
  t[static_cast<std::size_t>('.')] = kClassDot;
  return t;
}();

inline constexpr std::array<char, 256> kLowerTable = [] {
  std::array<char, 256> t{};
  for (int c = 0; c < 256; ++c) t[static_cast<std::size_t>(c)] = static_cast<char>(c);
  for (int c = 'A'; c <= 'Z'; ++c) {
    t[static_cast<std::size_t>(c)] = static_cast<char>(c + 32);
  }
  return t;
}();

// --- label bookkeeping shared by the scalar and vector dot-scans ----------

struct ScanState {
  std::size_t label_start = 0;
  std::uint32_t label_count = 1;  // offsets[0] = 0 is written by the caller
};

/// Emits one label-start offset per set bit of `dots` (bit b = a dot at
/// byte base + b), validating that every finished label is 1..63 bytes.
/// Returns false on an empty or oversized label.
inline bool consume_dots(std::uint32_t dots, std::size_t base,
                         std::uint16_t* offsets, ScanState& st) noexcept {
  while (dots != 0) {
    const auto bit = static_cast<unsigned>(std::countr_zero(dots));
    dots &= dots - 1;
    const std::size_t pos = base + bit;
    const std::size_t len = pos - st.label_start;
    if (len == 0 || len > 63) return false;
    st.label_start = pos + 1;
    offsets[st.label_count++] = static_cast<std::uint16_t>(pos + 1);
  }
  return true;
}

/// Validates the final label of an `n`-byte name and closes the scan.
inline NameScan finish_scan(std::size_t n, const ScanState& st) noexcept {
  const std::size_t len = n - st.label_start;
  if (len == 0 || len > 63) return {false, 0};
  return {true, static_cast<std::uint16_t>(st.label_count)};
}

// --- per-level scan kernels ----------------------------------------------

NameScan normalize_name_scalar(std::string_view in, char* out,
                               std::uint16_t* offsets) noexcept;

#if defined(DNSNOISE_KERNELS_X86)
NameScan normalize_name_sse2(std::string_view in, char* out,
                             std::uint16_t* offsets) noexcept;
NameScan normalize_name_avx2(std::string_view in, char* out,
                             std::uint16_t* offsets) noexcept;
#endif

}  // namespace dnsnoise::kernels::detail
