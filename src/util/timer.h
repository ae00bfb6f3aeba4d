#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string_view>

namespace lmp::util {

/// Monotonic wall-clock stopwatch.
class WallTimer {
 public:
  WallTimer() : start_(clock::now()) {}

  void reset() { start_ = clock::now(); }

  /// Seconds elapsed since construction or last reset().
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// The five LAMMPS timing stages reported in the paper's Table 3.
///
/// Pair    — pair-force evaluation (incl. mid-pair EAM communication)
/// Neigh   — neighbor-list construction
/// Comm    — ghost exchange: forward, reverse, border, exchange stages
/// Modify  — fixes: NVE position/velocity update
/// Other   — everything else (output, allreduce neighbor checks, ...)
enum class Stage : int { kPair = 0, kNeigh, kComm, kModify, kOther, kCount };

constexpr int kStageCount = static_cast<int>(Stage::kCount);

/// All stages in report order, for range-for iteration — replaces the
/// hand-rolled `static_cast<int>` index loops in sim/bench/examples.
constexpr std::array<Stage, kStageCount> all_stages() {
  return {Stage::kPair, Stage::kNeigh, Stage::kComm, Stage::kModify,
          Stage::kOther};
}

/// Static-storage key for a stage ("stage:Pair", ...): the one name the
/// stage timer's span and alloc-attribution scope both carry
/// (obs::ScopedStage). TraceSpan stores name pointers, so keys must
/// outlive every span.
const char* stage_trace_name(Stage s);

/// Report label for a stage ("Pair", ...): its trace key without the
/// "stage:" prefix.
std::string_view stage_name(Stage s);

/// Accumulates wall (or modeled) seconds per LAMMPS stage.
///
/// The functional track feeds it measured wall time; the performance track
/// feeds it modeled seconds. Both produce the same breakdown report, which
/// is what `bench/table3_breakdown` prints.
class StageTimer {
 public:
  void add(Stage s, double seconds) { acc_[static_cast<int>(s)] += seconds; }
  double get(Stage s) const { return acc_[static_cast<int>(s)]; }
  double total() const {
    double t = 0.0;
    for (double v : acc_) t += v;
    return t;
  }
  /// Percentage of total time spent in stage `s` (0 if nothing recorded).
  /// Recomputes total() per call — when printing a full breakdown, hoist
  /// the denominator once and use the two-argument overload instead.
  double percent(Stage s) const { return percent(s, total()); }

  /// Percentage of `total` spent in stage `s`, with the denominator
  /// supplied by the caller (compute `total()` once per report).
  double percent(Stage s, double total) const {
    return total > 0.0 ? 100.0 * get(s) / total : 0.0;
  }
  void reset() { acc_.fill(0.0); }

  StageTimer& operator+=(const StageTimer& o) {
    for (int i = 0; i < kStageCount; ++i) acc_[i] += o.acc_[i];
    return *this;
  }

 private:
  std::array<double, kStageCount> acc_{};
};

}  // namespace lmp::util
