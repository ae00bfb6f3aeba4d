// Perf-regression gate: diff a freshly generated BENCH_*.json against a
// committed baseline and fail (exit 1) when any shared metric moved past
// its tolerance in the bad direction.
//
//   ./bench_compare <baseline.json> <fresh.json> [--tol <percent>]
//
// Direction is inferred from the metric-key suffix (the shared rules in
// util/compare_rules.h — unit-tested there so every consumer agrees):
//   *us_step   lower is better  — regression when fresh > base * (1+tol)
//   *_bytes    lower is better  — memory footprints
//   *_allocs   lower is better  — allocation counts (a zero baseline is
//                                 the steady-state zero-alloc ratchet)
//   *speedup   higher is better — regression when fresh < base * (1-tol)
//   otherwise  two-sided        — regression when |fresh-base| > tol*|base|
//
// Only the intersection of keys is compared, so adding a sweep point (or
// trimming one with LMP_BENCH_QUICK) never breaks the gate; keys present
// on one side only are listed as informational. A missing *baseline* is a
// warning, not a failure (exit 0) — that is how the first run of a new
// bench seeds CI before its baseline is committed. A missing or
// unparsable *fresh* record is a hard error (exit 2), like a bad flag.
// Records (obs::BenchRecord::to_json) are read with util::parse_json.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>

#include "util/compare_rules.h"
#include "util/json_mini.h"
#include "util/table_printer.h"

namespace {

struct Record {
  std::string name;
  std::map<std::string, double> metrics;  // sorted -> stable report order
};

/// Keep "name" and the flat numeric "metrics" object of one record;
/// everything else (labels, registry) is ignored. Throws on malformed
/// input or a non-numeric metric.
Record parse_record(const std::string& text) {
  const lmp::util::JsonValue doc = lmp::util::parse_json(text);
  if (!doc.is_object()) throw std::runtime_error("record is not an object");
  Record rec;
  rec.name = doc.get_str("name");
  if (const lmp::util::JsonValue* metrics = doc.find("metrics")) {
    if (!metrics->is_object()) {
      throw std::runtime_error("\"metrics\" is not an object");
    }
    for (const auto& [key, value] : metrics->members) {
      if (value.kind != lmp::util::JsonValue::Kind::kNumber) {
        throw std::runtime_error("metric '" + key + "' is not a number");
      }
      rec.metrics[key] = value.number;
    }
  }
  return rec;
}

using lmp::util::MetricDirection;

int usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s <baseline.json> <fresh.json> [--tol <percent>]\n"
               "exit 0 = within tolerance (or baseline missing: warn only),\n"
               "     1 = regression, 2 = usage / unreadable fresh record\n",
               prog);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage(argv[0]);
  const char* baseline_path = argv[1];
  const char* fresh_path = argv[2];
  double tol = 0.02;
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tol") == 0 && i + 1 < argc) {
      tol = std::strtod(argv[++i], nullptr) / 100.0;
      if (!(tol >= 0.0)) {
        std::fprintf(stderr, "error: --tol must be a percentage >= 0\n");
        return 2;
      }
    } else {
      return usage(argv[0]);
    }
  }

  const auto slurp = [](const char* path, std::string& out) {
    std::ifstream in(path);
    if (!in) return false;
    std::stringstream buf;
    buf << in.rdbuf();
    out = buf.str();
    return true;
  };

  std::string baseline_text;
  if (!slurp(baseline_path, baseline_text)) {
    std::printf("bench_compare: no baseline at %s — nothing to gate "
                "(commit the fresh record to seed one)\n",
                baseline_path);
    return 0;
  }
  std::string fresh_text;
  if (!slurp(fresh_path, fresh_text)) {
    std::fprintf(stderr, "error: cannot read fresh record %s\n", fresh_path);
    return 2;
  }

  Record base;
  Record fresh;
  try {
    base = parse_record(baseline_text);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: baseline %s: %s\n", baseline_path, e.what());
    return 2;
  }
  try {
    fresh = parse_record(fresh_text);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: fresh record %s: %s\n", fresh_path, e.what());
    return 2;
  }
  if (!base.name.empty() && !fresh.name.empty() && base.name != fresh.name) {
    std::fprintf(stderr, "error: record mismatch: baseline '%s' vs fresh '%s'\n",
                 base.name.c_str(), fresh.name.c_str());
    return 2;
  }

  lmp::util::TablePrinter t(
      {"metric", "baseline", "fresh", "delta(%)", "status"});
  int regressions = 0;
  int improvements = 0;
  int compared = 0;
  int only_one_side = 0;
  for (const auto& [key, bv] : base.metrics) {
    const auto it = fresh.metrics.find(key);
    if (it == fresh.metrics.end()) {
      ++only_one_side;
      continue;
    }
    ++compared;
    const double fv = it->second;
    const double scale = std::max(std::fabs(bv), 1e-300);
    const double rel = (fv - bv) / scale;  // signed: + means fresh larger
    const MetricDirection dir = lmp::util::metric_direction(key);
    bool regress = false;
    bool improve = false;
    switch (dir) {
      case MetricDirection::kLowerBetter:
        regress = rel > tol;
        improve = rel < -tol;
        break;
      case MetricDirection::kHigherBetter:
        regress = rel < -tol;
        improve = rel > tol;
        break;
      case MetricDirection::kTwoSided:
        regress = std::fabs(rel) > tol;
        break;
    }
    regressions += regress ? 1 : 0;
    improvements += improve ? 1 : 0;
    t.add_row({key, lmp::util::TablePrinter::fmt(bv, 3),
               lmp::util::TablePrinter::fmt(fv, 3),
               lmp::util::TablePrinter::fmt(rel * 100.0, 2),
               regress ? "REGRESSED" : (improve ? "improved" : "ok")});
  }
  for (const auto& [key, fv] : fresh.metrics) {
    if (base.metrics.find(key) == base.metrics.end()) ++only_one_side;
  }

  std::printf("bench_compare: %s vs %s (tolerance %.2f%%)\n", baseline_path,
              fresh_path, tol * 100.0);
  t.print();
  std::printf("%d metric(s) compared: %d regressed, %d improved beyond "
              "tolerance, %d present on one side only\n",
              compared, regressions, improvements, only_one_side);
  if (compared == 0) {
    // An empty intersection gates nothing — treat like a schema break.
    std::fprintf(stderr, "error: no shared metrics between the records\n");
    return 2;
  }
  return regressions > 0 ? 1 : 0;
}
