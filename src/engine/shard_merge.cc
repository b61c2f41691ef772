#include "engine/shard_merge.h"

#include "engine/thread_pool.h"

namespace dnsnoise {

ShardCounters merge_shards(std::vector<ShardResult>& shards, DayCapture& into,
                           std::string& error_out, ThreadPool* pool) {
  ShardCounters total;
  std::vector<DayCapture*> captures;
  captures.reserve(shards.size());
  for (std::size_t i = 0; i < shards.size(); ++i) {
    ShardResult& shard = shards[i];
    if (!shard.error.empty()) {
      error_out = "shard " + std::to_string(i) + ": " + shard.error;
      return total;
    }
    total += shard.counters;
    captures.push_back(&shard.capture);
  }
  const auto merge_part = [&](std::size_t index) {
    const auto part = static_cast<DayCapture::Part>(index);
    into.merge_part(part, captures);
    if (part == DayCapture::Part::kRest) into.fpdns().stable_sort_by_time();
  };
  if (pool == nullptr) {
    for (std::size_t i = 0; i < DayCapture::kPartCount; ++i) merge_part(i);
    return total;
  }
  pool->parallel_for(DayCapture::kPartCount, merge_part);
  pool->parallel_for(shards.size(),
                     [&](std::size_t i) { shards[i].capture = DayCapture(); });
  return total;
}

}  // namespace dnsnoise
