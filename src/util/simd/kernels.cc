#include "util/simd/kernels.h"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "util/simd/kernels_internal.h"

namespace dnsnoise::kernels {

namespace {

DispatchLevel best_supported() noexcept {
#if defined(DNSNOISE_KERNELS_X86)
  if (__builtin_cpu_supports("avx2")) return DispatchLevel::kAvx2;
  if (__builtin_cpu_supports("sse2")) return DispatchLevel::kSse2;
#endif
  return DispatchLevel::kScalar;
}

/// Initial level: best the CPU supports, optionally clamped by the
/// DNSNOISE_KERNEL_LEVEL env var (scalar|sse2|avx2).  An env request for
/// an unavailable level is ignored rather than crashing the process.
DispatchLevel initial_level() noexcept {
  const DispatchLevel best = best_supported();
  if (const char* env = std::getenv("DNSNOISE_KERNEL_LEVEL")) {
    DispatchLevel wanted = best;
    if (std::strcmp(env, "scalar") == 0) wanted = DispatchLevel::kScalar;
    if (std::strcmp(env, "sse2") == 0) wanted = DispatchLevel::kSse2;
    if (std::strcmp(env, "avx2") == 0) wanted = DispatchLevel::kAvx2;
    if (wanted <= best) return wanted;
  }
  return best;
}

std::atomic<DispatchLevel>& active_slot() noexcept {
  static std::atomic<DispatchLevel> slot{initial_level()};
  return slot;
}

/// Count-indexed k*log2(k) and log2(k) lookups.  Counts and lengths above
/// 255 (longer than any DNS name) fall back to direct std::log2.
struct EntropyTables {
  double xlogx[256];
  double log2n[256];
};

const EntropyTables& entropy_tables() noexcept {
  static const EntropyTables tables = [] {
    EntropyTables t{};
    t.xlogx[0] = 0.0;
    t.log2n[0] = 0.0;
    for (int k = 1; k < 256; ++k) {
      const double lg = std::log2(static_cast<double>(k));
      t.log2n[k] = lg;
      t.xlogx[k] = static_cast<double>(k) * lg;
    }
    return t;
  }();
  return tables;
}

/// Per-thread histogram workspace for the one-shot and batched entropy
/// entry points.  Zero-initialized (== hist_init) and returned to the
/// clean state by hist_reset after every use.
CharHist& scratch_hist() noexcept {
  thread_local CharHist hist{};
  return hist;
}

}  // namespace

const char* level_name(DispatchLevel level) noexcept {
  switch (level) {
    case DispatchLevel::kSse2:
      return "sse2";
    case DispatchLevel::kAvx2:
      return "avx2";
    case DispatchLevel::kScalar:
      break;
  }
  return "scalar";
}

DispatchLevel active_level() noexcept {
  return active_slot().load(std::memory_order_relaxed);
}

bool level_available(DispatchLevel level) noexcept {
  return level <= best_supported();
}

bool set_active_level(DispatchLevel level) noexcept {
  if (!level_available(level)) return false;
  active_slot().store(level, std::memory_order_relaxed);
  return true;
}

void hist_init(CharHist& hist) noexcept {
  std::memset(&hist, 0, sizeof(hist));
}

void hist_build(CharHist& hist, std::string_view s) noexcept {
  for (const char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    ++hist.counts[c];
    hist.present[c >> 6] |= std::uint64_t{1} << (c & 63);
  }
}

void hist_reset(CharHist& hist) noexcept {
  for (int w = 0; w < 4; ++w) {
    std::uint64_t bits = hist.present[w];
    while (bits != 0) {
      const int k = std::countr_zero(bits);
      bits &= bits - 1;
      hist.counts[w * 64 + k] = 0;
    }
    hist.present[w] = 0;
  }
}

double entropy_from_hist(const CharHist& hist, std::uint64_t total) noexcept {
  if (total == 0) return 0.0;
  const EntropyTables& t = entropy_tables();
  double sum = 0.0;
  std::uint32_t distinct = 0;
  for (int w = 0; w < 4; ++w) {
    std::uint64_t bits = hist.present[w];
    while (bits != 0) {
      const int k = std::countr_zero(bits);
      bits &= bits - 1;
      const std::uint32_t count = hist.counts[w * 64 + k];
      sum += count < 256
                 ? t.xlogx[count]
                 : static_cast<double>(count) *
                       std::log2(static_cast<double>(count));
      ++distinct;
    }
  }
  // A single repeated symbol has exactly zero entropy; computing it via
  // log2(n) - n*log2(n)/n could round to a tiny nonzero residual.
  if (distinct <= 1) return 0.0;
  const double log2_total = total < 256
                                ? t.log2n[total]
                                : std::log2(static_cast<double>(total));
  const double h = log2_total - sum / static_cast<double>(total);
  return h > 0.0 ? h : 0.0;
}

double shannon_entropy(std::string_view s) noexcept {
  CharHist& hist = scratch_hist();
  hist_build(hist, s);
  const double h = entropy_from_hist(hist, s.size());
  hist_reset(hist);
  return h;
}

void entropy_many(std::span<const std::string_view> strings,
                  std::span<double> out) noexcept {
  CharHist& hist = scratch_hist();
  for (std::size_t i = 0; i < strings.size(); ++i) {
    hist_build(hist, strings[i]);
    out[i] = entropy_from_hist(hist, strings[i].size());
    hist_reset(hist);
  }
}

NameScan normalize_name_at(DispatchLevel level, std::string_view in, char* out,
                           std::uint16_t* offsets) noexcept {
#if defined(DNSNOISE_KERNELS_X86)
  switch (level) {
    case DispatchLevel::kAvx2:
      return detail::normalize_name_avx2(in, out, offsets);
    case DispatchLevel::kSse2:
      return detail::normalize_name_sse2(in, out, offsets);
    case DispatchLevel::kScalar:
      break;
  }
#else
  (void)level;
#endif
  return detail::normalize_name_scalar(in, out, offsets);
}

NameScan normalize_name(std::string_view in, char* out,
                        std::uint16_t* offsets) noexcept {
  return normalize_name_at(active_level(), in, out, offsets);
}

namespace detail {

NameScan normalize_name_scalar(std::string_view in, char* out,
                               std::uint16_t* offsets) noexcept {
  offsets[0] = 0;
  ScanState st;
  for (std::size_t i = 0; i < in.size(); ++i) {
    const auto c = static_cast<unsigned char>(in[i]);
    if (kCharClass[c] == kClassDot) {
      const std::size_t len = i - st.label_start;
      if (len == 0 || len > 63) return {false, 0};
      out[i] = '.';
      st.label_start = i + 1;
      offsets[st.label_count++] = static_cast<std::uint16_t>(i + 1);
      continue;
    }
    if ((kCharClass[c] & kClassAllowed) == 0) return {false, 0};
    out[i] = kLowerTable[c];
  }
  return finish_scan(in.size(), st);
}

}  // namespace detail

}  // namespace dnsnoise::kernels
