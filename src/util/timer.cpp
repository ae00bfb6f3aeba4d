#include "util/timer.h"

namespace lmp::util {

namespace {

constexpr std::string_view kStagePrefix = "stage:";

/// The one stage-name table, in Stage order.
constexpr const char* kStageKeys[kStageCount] = {
    "stage:Pair", "stage:Neigh", "stage:Comm", "stage:Modify", "stage:Other"};

}  // namespace

const char* stage_trace_name(Stage s) {
  const int i = static_cast<int>(s);
  return i >= 0 && i < kStageCount ? kStageKeys[i] : "stage:?";
}

std::string_view stage_name(Stage s) {
  return std::string_view(stage_trace_name(s)).substr(kStagePrefix.size());
}

}  // namespace lmp::util
