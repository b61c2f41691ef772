// AVX2 kernel: 32-byte character classification for the name dot-scan.
//
// Integer outputs only — bit-identical to the scalar kernel by
// construction; the parity tests assert it.
#include "util/simd/kernels_internal.h"

#if defined(DNSNOISE_KERNELS_X86)

#include <immintrin.h>

#include <algorithm>
#include <cstring>

namespace dnsnoise::kernels::detail {

NameScan normalize_name_avx2(std::string_view in, char* out,
                             std::uint16_t* offsets) noexcept {
  const std::size_t n = in.size();
  offsets[0] = 0;
  ScanState st;
  const __m256i low_bit = _mm256_set1_epi8(0x20);
  const __m256i ch_a = _mm256_set1_epi8('a');
  const __m256i ch_z = _mm256_set1_epi8('z');
  const __m256i ch_0 = _mm256_set1_epi8('0');
  const __m256i ch_9 = _mm256_set1_epi8('9');
  const __m256i ch_dash = _mm256_set1_epi8('-');
  const __m256i ch_under = _mm256_set1_epi8('_');
  const __m256i ch_dot = _mm256_set1_epi8('.');
  for (std::size_t i = 0; i < n; i += 32) {
    const std::size_t take = std::min<std::size_t>(32, n - i);
    alignas(32) char buf[32];
    __m256i v;
    if (take == 32) {
      v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in.data() + i));
    } else {
      std::memset(buf, 'a', sizeof(buf));  // pad lanes classify as benign
      std::memcpy(buf, in.data() + i, take);
      v = _mm256_load_si256(reinterpret_cast<const __m256i*>(buf));
    }
    const __m256i folded = _mm256_or_si256(v, low_bit);
    const __m256i alpha = _mm256_and_si256(
        _mm256_cmpeq_epi8(_mm256_max_epu8(folded, ch_a), folded),
        _mm256_cmpeq_epi8(_mm256_min_epu8(folded, ch_z), folded));
    const __m256i digit =
        _mm256_and_si256(_mm256_cmpeq_epi8(_mm256_max_epu8(v, ch_0), v),
                         _mm256_cmpeq_epi8(_mm256_min_epu8(v, ch_9), v));
    const __m256i punct = _mm256_or_si256(_mm256_cmpeq_epi8(v, ch_dash),
                                          _mm256_cmpeq_epi8(v, ch_under));
    const __m256i dot = _mm256_cmpeq_epi8(v, ch_dot);
    const __m256i good = _mm256_or_si256(_mm256_or_si256(alpha, digit),
                                         _mm256_or_si256(punct, dot));
    const std::uint32_t valid =
        take == 32 ? 0xffffffffu : ((1u << take) - 1);
    const auto good_mask =
        static_cast<std::uint32_t>(_mm256_movemask_epi8(good));
    if ((good_mask & valid) != valid) return {false, 0};
    const __m256i lowered =
        _mm256_or_si256(v, _mm256_and_si256(alpha, low_bit));
    if (take == 32) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), lowered);
    } else {
      _mm256_store_si256(reinterpret_cast<__m256i*>(buf), lowered);
      std::memcpy(out + i, buf, take);
    }
    const std::uint32_t dots =
        static_cast<std::uint32_t>(_mm256_movemask_epi8(dot)) & valid;
    if (!consume_dots(dots, i, offsets, st)) return {false, 0};
  }
  return finish_scan(n, st);
}

}  // namespace dnsnoise::kernels::detail

#endif  // DNSNOISE_KERNELS_X86
