#include "workload/label_gen.h"

#include <string_view>

namespace dnsnoise {

void MetricsLabel::append_to(std::string& out, Rng& rng) const {
  out += tag_;
  for (int i = 0; i < fields_; ++i) {
    out.push_back('-');
    detail::append_decimal(out, rng.below(1'000'000'000));
  }
  if (percent_) {
    out += "-0-p-";
    const std::uint64_t pct = rng.below(100);
    if (pct < 10) out.push_back('0');
    detail::append_decimal(out, pct);
  }
}

std::string MetricsLabel::generate(Rng& rng) const {
  std::string out;
  append_to(out, rng);
  return out;
}

namespace {

// Service-name dictionary used to synthesize human-chosen hostnames.
constexpr const char* kHostWords[] = {
    "www",    "mail",   "smtp",  "imap",   "pop",    "webmail", "blog",
    "shop",   "store",  "news",  "media",  "static", "assets",  "img",
    "images", "video",  "cdn",   "api",    "app",    "apps",    "dev",
    "test",   "stage",  "beta",  "admin",  "portal", "login",   "auth",
    "secure", "vpn",    "remote", "docs",  "wiki",   "forum",   "support",
    "help",   "status", "search", "m",     "mobile", "ftp",     "ns1",
    "ns2",    "mx",     "chat",  "files",  "download", "update", "play",
    "music",  "photos", "maps",  "drive",  "cloud",  "calendar", "events",
};

}  // namespace

void human_hostname_into(std::size_t i, std::string& out) {
  const std::size_t word_count = std::size(kHostWords);
  out += kHostWords[i % word_count];
  if (i >= word_count) {
    // Overflow variants get a small numeric suffix ("api3", "www12").
    detail::append_decimal(out, i / word_count + 1);
  }
}

std::string human_hostname(std::size_t i) {
  std::string out;
  human_hostname_into(i, out);
  return out;
}

void pseudo_word_into(std::uint64_t i, std::string& out, std::size_t min_len) {
  // 60 two-letter syllables, back to back.
  static constexpr std::string_view kSyllables =
      "babebibobudadedidodufafefifokakekikokulalelilolumamemimomuna"
      "neninonurarerirorusasesisosutatetitotuvavevivozazezizozupapo";
  static_assert(kSyllables.size() == 120);
  constexpr std::uint64_t kBase = kSyllables.size() / 2;
  const auto syllable = [&out](std::uint64_t k) {
    out.append(kSyllables.substr(2 * k, 2));
  };
  const std::size_t start = out.size();
  // Base-syllable positional encoding: distinct i => distinct word.
  std::uint64_t rest = i;
  do {
    syllable(rest % kBase);
    rest /= kBase;
  } while (rest != 0);
  while (out.size() - start < min_len) syllable((i / 7) % kBase);
}

std::string pseudo_word(std::uint64_t i, std::size_t min_len) {
  std::string word;
  pseudo_word_into(i, word, min_len);
  return word;
}

HumanLabel::HumanLabel(std::size_t variants) {
  pool_.reserve(variants);
  for (std::size_t i = 0; i < variants; ++i) {
    pool_.push_back(human_hostname(i));
  }
}

std::string HumanLabel::generate(Rng& rng) const {
  return pool_[rng.below(pool_.size())];
}

void NamePattern::generate_into(std::string& out, Rng& rng) const {
  const std::size_t start = out.size();
  for (const auto& level : levels_) {
    if (out.size() > start) out.push_back('.');
    level->append_to(out, rng);
  }
}

std::string NamePattern::generate(Rng& rng) const {
  std::string out;
  generate_into(out, rng);
  return out;
}

}  // namespace dnsnoise
