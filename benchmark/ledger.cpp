// Metric catalog, result assembly, the span ledger of the traced run and
// its artifacts (spans.json, trace.json, layers.txt).

#include <algorithm>
#include <cstdio>
#include <map>
#include <mutex>
#include <stdexcept>

#include "bench.h"
#include "obs/report.h"
#include "obs/tracer.h"

namespace lmp::bench {

namespace {

struct MetricInfo {
  const char* name;
  const char* unit;
  /// End-to-end metrics: empty. Per-layer metrics: the end-to-end metric
  /// and workload a change to this layer should move.
  const char* moves;
};

/// Every metric the benchmark can report, end-to-end first. BENCHMARK.json
/// lists the same names (checked by selftest.py).
const std::vector<MetricInfo>& catalog() {
  static const std::vector<MetricInfo> kAll = {
      {"step_us", "us", ""},
      {"setup_s", "s", ""},
      {"job_s_p50", "s", ""},
      {"jobs_per_s", "1/s", ""},
      {"peak_heap_mb", "MB", ""},

      {"sim.pair_us_step", "us", "step_us @ eam-overlap"},
      {"sim.neigh_us_step", "us", "step_us @ eam-overlap, job_s_p50 @ serve-ckpt"},
      {"sim.comm_us_step", "us", "step_us @ lj-strong"},
      {"sim.modify_us_step", "us", "job_s_p50 @ serve-ckpt"},
      {"sim.other_us_step", "us", "job_s_p50 @ serve-ckpt"},
      {"sim.allocs_per_step", "count", "step_us @ lj-strong"},
      {"sim.checkpoint_write_ms", "ms", "job_s_p50 @ serve-ckpt"},
      {"sim.checkpoint_bytes", "count", "job_s_p50 @ serve-ckpt"},
      {"sim.integrity_scan_us", "us", "job_s_p50 @ serve-ckpt"},
      {"comm.msgs_per_step", "count", "step_us @ lj-strong"},
      {"comm.bytes_per_step", "count", "step_us @ lj-strong"},
      {"comm.forward_us", "us", "step_us @ lj-strong"},
      {"comm.reverse_us", "us", "step_us @ lj-strong"},
      {"comm.borders_us", "us", "step_us @ eam-overlap"},
      {"comm.exchange_us", "us", "step_us @ eam-overlap"},
      {"comm.pack_us_step", "us", "step_us @ lj-strong"},
      {"comm.notice_wait_us_step", "us", "step_us @ lj-strong"},
      {"comm.wire_us_step", "us", "step_us @ lj-strong"},
      {"comm.imbalance_us_step", "us", "step_us @ lj-strong"},
      {"tofu.put_528b_ns", "ns", "comm.forward_us -> step_us @ lj-strong"},
      {"tofu.packets_per_step", "count", "step_us @ lj-strong"},
      {"md.neigh_us", "us", "step_us @ eam-overlap (half), job_s_p50 @ serve-ckpt (full)"},
      {"md.neigh_pairs", "count", "md.neigh_us, md.force_us"},
      {"md.force_us", "us", "step_us @ lj-strong (LJ), step_us @ eam-overlap (EAM)"},
      {"md.force_ns_per_pair", "ns", "step_us @ lj-strong (LJ), step_us @ eam-overlap (EAM)"},
      {"pool.dispatch_us", "us", "step_us @ eam-overlap"},
      {"pool.dag_run_us", "us", "step_us @ eam-overlap"},
      {"mpi.allreduce_us", "us", "step_us @ eam-overlap"},
      {"serve.submit_us", "us", "job_s_p50 @ serve-ckpt"},
      {"serve.queue_wait_ms", "ms", "job_s_p50 @ serve-ckpt"},
      {"serve.overhead_ratio", "ratio", "jobs_per_s @ serve-ckpt"},
      {"serve.journal_bytes_per_job", "count", "job_s_p50 @ serve-ckpt"},
      {"obs.trace_overhead_ratio", "ratio", "none: shows the traced run is representative"},
  };
  return kAll;
}

const MetricInfo& info_of(const std::string& name) {
  for (const MetricInfo& m : catalog()) {
    if (name == m.name) return m;
  }
  throw std::logic_error("metric '" + name + "' is not in the catalog");
}

std::mutex g_ledger_mu;
std::vector<Ledger::Span> g_spans;
std::uint64_t g_next_op = 0;
int g_next_thread = 0;

/// Index of the innermost open span on this thread (-1: none).
thread_local int t_open = -1;
thread_local int t_thread = -1;

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

}  // namespace

std::vector<std::pair<std::string, bool>> metric_names() {
  std::vector<std::pair<std::string, bool>> out;
  for (const MetricInfo& m : catalog()) out.emplace_back(m.name, m.moves[0] != 0);
  return out;
}

std::string metric_unit(const std::string& name) { return info_of(name).unit; }

void Outcome::operation(const std::string& error) {
  ++attempted;
  if (error.empty()) return;
  ++failed;
  if (failures.size() < 8) failures.push_back(error);
}

bool Outcome::has(const std::string& name) const {
  for (const Metric& m : metrics) {
    if (m.name == name) return true;
  }
  return false;
}

void Outcome::add(const std::string& name, double value,
                  const std::string& source) {
  if (has(name)) throw std::logic_error("metric '" + name + "' added twice");
  metrics.push_back({name, value, info_of(name).unit, source});
}

// --- ledger -------------------------------------------------------------

Ledger& Ledger::instance() {
  static Ledger l;
  return l;
}

std::uint64_t Ledger::new_op() {
  std::lock_guard lock(g_ledger_mu);
  return ++g_next_op;
}

int Ledger::open(std::uint64_t op, const char* layer, const char* name) {
  std::lock_guard lock(g_ledger_mu);
  if (t_thread < 0) t_thread = g_next_thread++;
  Span s;
  s.op = op;
  s.parent = t_open;
  s.thread = t_thread;
  s.layer = layer;
  s.name = name;
  s.start_ns = obs::now_ns();
  g_spans.push_back(s);
  t_open = static_cast<int>(g_spans.size()) - 1;
  return t_open;
}

void Ledger::close(int index) {
  const std::int64_t end = obs::now_ns();
  std::lock_guard lock(g_ledger_mu);
  Span& s = g_spans[static_cast<std::size_t>(index)];
  s.dur_ns = end - s.start_ns;
  t_open = s.parent;
}

std::vector<Ledger::Span> Ledger::spans() const {
  std::lock_guard lock(g_ledger_mu);
  return g_spans;
}

LayerSpan::LayerSpan(std::uint64_t op, const char* layer, const char* name) {
  Ledger& l = Ledger::instance();
  if (l.enabled()) index_ = l.open(op, layer, name);
}

LayerSpan::~LayerSpan() {
  if (index_ >= 0) Ledger::instance().close(index_);
}

// --- artifacts ----------------------------------------------------------

std::string write_trace_artifacts(const std::string& dir,
                                  const std::string& workload,
                                  const Outcome& out,
                                  std::string trace) {
  const std::vector<Ledger::Span> spans = Ledger::instance().spans();

  // Self time: a span's duration minus what its child spans cover.
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].dur_ns;
  for (const Ledger::Span& s : spans) {
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.dur_ns;
  }

  struct Row {
    long count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Row> by_span;
  std::map<std::string, Row> by_layer;
  std::string json = "{\"workload\":\"" + workload + "\",\"spans\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Ledger::Span& s = spans[i];
    Row& r = by_span[std::string(s.layer) + " " + s.name];
    Row& l = by_layer[s.layer];
    r.count += 1;
    l.count += 1;
    r.total_ms += static_cast<double>(s.dur_ns) * 1e-6;
    l.total_ms += static_cast<double>(s.dur_ns) * 1e-6;
    r.self_ms += static_cast<double>(self[i]) * 1e-6;
    l.self_ms += static_cast<double>(self[i]) * 1e-6;
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"op\":%llu,\"parent\":%d,\"thread\":%d,\"layer\":\"%s\","
                  "\"name\":\"%s\",\"start_ns\":%lld,\"dur_ns\":%lld,"
                  "\"self_ns\":%lld}",
                  i == 0 ? "" : ",", static_cast<unsigned long long>(s.op),
                  s.parent, s.thread, s.layer, s.name,
                  static_cast<long long>(s.start_ns),
                  static_cast<long long>(s.dur_ns),
                  static_cast<long long>(self[i]));
    json += buf;
  }
  json += "\n]}\n";
  obs::write_text_file(dir + "/spans.json", json);

  // Perfetto: the program's own trace with the ledger appended as a
  // separate "bench" process (pid -2), one track per benchmark thread.
  const std::size_t close = trace.rfind(']');
  if (close != std::string::npos) {
    std::string extra =
        ",\n{\"ph\":\"M\",\"pid\":-2,\"name\":\"process_name\","
        "\"args\":{\"name\":\"bench ledger\"}}";
    for (const Ledger::Span& s : spans) {
      char buf[320];
      std::snprintf(buf, sizeof buf,
                    ",\n{\"ph\":\"X\",\"pid\":-2,\"tid\":%d,\"cat\":\"%s\","
                    "\"name\":\"%s\",\"ts\":%.3f,\"dur\":%.3f,"
                    "\"args\":{\"op\":%llu}}",
                    s.thread, s.layer, s.name,
                    static_cast<double>(s.start_ns) * 1e-3,
                    static_cast<double>(s.dur_ns) * 1e-3,
                    static_cast<unsigned long long>(s.op));
      extra += buf;
    }
    // An empty program trace has nothing before the bracket to follow.
    if (trace.find('{', trace.find('[')) > close) extra.erase(0, 1);
    trace.insert(close, extra);
  }
  obs::write_text_file(dir + "/trace.json", trace);

  std::string txt = "per-layer ledger, workload " + workload + "\n\n";
  txt += "layer self time (benchmark spans; self = span - child spans)\n";
  char line[512];
  std::snprintf(line, sizeof line, "  %-12s %8s %12s %12s\n", "layer", "spans",
                "total_ms", "self_ms");
  txt += line;
  for (const auto& [layer, r] : by_layer) {
    std::snprintf(line, sizeof line, "  %-12s %8ld %12.3f %12.3f\n",
                  layer.c_str(), r.count, r.total_ms, r.self_ms);
    txt += line;
  }
  txt += "\nspans\n";
  for (const auto& [name, r] : by_span) {
    std::snprintf(line, sizeof line, "  %-34s %8ld %12.3f %12.3f\n",
                  name.c_str(), r.count, r.total_ms, r.self_ms);
    txt += line;
  }
  txt += "\nper-layer metrics (source run = the workload's own traced run, "
         "probe = direct calls on its decomposition)\n";
  std::snprintf(line, sizeof line, "  %-28s %14s %-6s %-6s %s\n", "metric",
                "value", "unit", "source", "should move");
  txt += line;
  for (const Metric& m : out.metrics) {
    const MetricInfo& info = info_of(m.name);
    if (info.moves[0] == 0) continue;
    std::snprintf(line, sizeof line, "  %-28s %14s %-6s %-6s %s\n",
                  m.name.c_str(), fmt(m.value).c_str(), m.unit.c_str(),
                  m.source.c_str(), info.moves);
    txt += line;
  }
  obs::write_text_file(dir + "/layers.txt", txt);
  return txt;
}

}  // namespace lmp::bench
