#include "cache/cache.h"

namespace ptstore {

Cache::Cache(const CacheConfig& cfg, telemetry::CounterBank& bank)
    : cfg_(cfg),
      hits_(bank.counter(cfg.name + ".hits", "cache hits")),
      misses_(bank.counter(cfg.name + ".misses", "cache misses")),
      writebacks_(bank.counter(cfg.name + ".writebacks", "dirty-line writebacks")),
      flushes_(bank.counter(cfg.name + ".flushes", "full invalidations")) {
  assert(is_pow2(cfg.size_bytes) && is_pow2(cfg.line_bytes));
  assert(cfg.ways >= 1);
  const u64 num_lines = cfg.size_bytes / cfg.line_bytes;
  assert(num_lines % cfg.ways == 0);
  num_sets_ = static_cast<unsigned>(num_lines / cfg.ways);
  assert(is_pow2(num_sets_));
  line_shift_ = log2_exact(cfg.line_bytes);
  lines_.resize(num_lines);
}

CacheAccessResult Cache::access_scan(u64 block, bool is_write) {
  const unsigned set = static_cast<unsigned>(block & (num_sets_ - 1));
  const u64 tag = block >> log2_exact(num_sets_);
  Line* row = &lines_[static_cast<size_t>(set) * cfg_.ways];
  ++tick_;

  for (unsigned w = 0; w < cfg_.ways; ++w) {
    Line& ln = row[w];
    if (ln.valid && ln.tag == tag) {
      ln.lru_tick = tick_;
      ln.dirty = ln.dirty || is_write;
      hits_.add();
      last_block_ = block;
      last_line_ = &ln;
      return {true, cfg_.hit_latency};
    }
  }

  // Miss: pick the LRU victim (preferring an invalid way).
  Line* victim = &row[0];
  for (unsigned w = 0; w < cfg_.ways; ++w) {
    Line& ln = row[w];
    if (!ln.valid) {
      victim = &ln;
      break;
    }
    if (ln.lru_tick < victim->lru_tick) victim = &ln;
  }

  Cycles cycles = cfg_.hit_latency + cfg_.miss_penalty;
  if (victim->valid && victim->dirty) {
    cycles += cfg_.dirty_evict_penalty;
    writebacks_.add();
  }
  victim->valid = true;
  victim->dirty = is_write;
  victim->tag = tag;
  victim->lru_tick = tick_;
  misses_.add();
  last_block_ = block;
  last_line_ = victim;
  return {false, cycles};
}

Cycles Cache::l2_fallback(Cache& l1, Cache& l2, PhysAddr pa, bool is_write,
                          Cycles l1_cycles) {
  // L1 missed: replace its DRAM penalty with the L2 lookup (which itself
  // pays DRAM only on an L2 miss). Writebacks keep their cost.
  const Cycles l1_extra = l1_cycles - l1.cfg_.hit_latency - l1.cfg_.miss_penalty;
  return l1_extra + l2.access(pa, is_write).cycles;
}

void Cache::invalidate_all() {
  for (auto& ln : lines_) ln = Line{};
  last_block_ = ~u64{0};
  last_line_ = nullptr;
  flushes_.add();
}

}  // namespace ptstore
