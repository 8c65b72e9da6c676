// Branch prediction model: a gshare-style table of 2-bit saturating
// counters plus a direct-mapped BTB for indirect targets. BOOM's front end
// predicts; the interpreter charges the misprediction penalty only when
// this model is wrong, replacing the flat taken-branch penalty.
//
// Only interpreted guest code reaches this model; the kernel-model cost
// constants are calibrated independently (see DESIGN.md §2).
#pragma once

#include <vector>

#include "common/bits.h"
#include "common/types.h"
#include "telemetry/metrics.h"

namespace ptstore {

struct BranchPredictorConfig {
  bool enabled = true;
  unsigned table_bits = 9;    ///< 512 2-bit counters.
  unsigned history_bits = 6;  ///< Global history length (gshare).
  unsigned btb_bits = 6;      ///< 64-entry BTB for jump targets.
  Cycles mispredict_penalty = 7;  ///< BOOM-small front-end refill.
};

class BranchPredictor {
 public:
  /// Registers bp.{hits,misses,btb_hits,btb_misses} in `bank`.
  BranchPredictor(const BranchPredictorConfig& cfg, telemetry::CounterBank& bank)
      : cfg_(cfg),
        counters_(size_t{1} << cfg.table_bits, 1),  // Weakly not-taken.
        btb_(size_t{1} << cfg.btb_bits),
        hits_(bank.counter("bp.hits", "correct branch predictions")),
        misses_(bank.counter("bp.misses", "branch mispredictions")),
        btb_hits_(bank.counter("bp.btb_hits", "BTB target hits")),
        btb_misses_(bank.counter("bp.btb_misses", "BTB target misses")) {}

  /// Predict the direction of a conditional branch at `pc`.
  bool predict_taken(u64 pc) const {
    return counters_[index(pc)] >= 2;
  }

  /// Update with the resolved direction; returns the cycles to charge
  /// (0 on a correct prediction, the refill penalty otherwise).
  Cycles resolve_branch(u64 pc, bool taken) {
    const bool predicted = predict_taken(pc);
    u8& ctr = counters_[index(pc)];
    if (taken && ctr < 3) ++ctr;
    if (!taken && ctr > 0) --ctr;
    history_ = ((history_ << 1) | (taken ? 1 : 0)) & mask_lo(cfg_.history_bits);
    if (predicted == taken) {
      hits_.add();
      return 0;
    }
    misses_.add();
    return cfg_.mispredict_penalty;
  }

  /// Resolve an unconditional jump/call/return through the BTB: the first
  /// encounter (or a target change) pays the penalty, repeats are free.
  Cycles resolve_jump(u64 pc, u64 target) {
    BtbEntry& e = btb_[btb_index(pc)];
    const bool hit = e.valid && e.pc == pc && e.target == target;
    e = BtbEntry{true, pc, target};
    if (hit) {
      btb_hits_.add();
      return 0;
    }
    btb_misses_.add();
    return cfg_.mispredict_penalty;
  }

  const BranchPredictorConfig& config() const { return cfg_; }

  /// Prediction accuracy over everything resolved so far.
  double accuracy() const {
    const u64 n = hits_.value();
    const u64 d = misses_.value();
    return (n + d) == 0 ? 0.0 : static_cast<double>(n) / static_cast<double>(n + d);
  }

 private:
  struct BtbEntry {
    bool valid = false;
    u64 pc = 0;
    u64 target = 0;
  };

  size_t index(u64 pc) const {
    return static_cast<size_t>(((pc >> 1) ^ history_) & mask_lo(cfg_.table_bits));
  }
  size_t btb_index(u64 pc) const {
    return static_cast<size_t>((pc >> 1) & mask_lo(cfg_.btb_bits));
  }

  BranchPredictorConfig cfg_;
  std::vector<u8> counters_;
  std::vector<BtbEntry> btb_;
  u64 history_ = 0;
  telemetry::Counter hits_;
  telemetry::Counter misses_;
  telemetry::Counter btb_hits_;
  telemetry::Counter btb_misses_;
};

}  // namespace ptstore
