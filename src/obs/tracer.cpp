#include "obs/tracer.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

namespace lmp::obs {

namespace detail {
std::atomic<std::uint32_t> g_trace_cats{0};
std::atomic<bool> g_metrics_on{false};
}  // namespace detail

void set_trace_categories(std::uint32_t mask) {
  detail::g_trace_cats.store(mask & kAllTraceCats, std::memory_order_relaxed);
}

void set_metrics_enabled(bool on) {
  detail::g_metrics_on.store(on, std::memory_order_relaxed);
}

const char* trace_cat_name(TraceCat c) {
  switch (c) {
    case TraceCat::kSim:
      return "sim";
    case TraceCat::kComm:
      return "comm";
    case TraceCat::kTofu:
      return "tofu";
    case TraceCat::kPool:
      return "pool";
    case TraceCat::kCkpt:
      return "ckpt";
    case TraceCat::kServe:
      return "serve";
    case TraceCat::kAlloc:
      return "alloc";
  }
  return "?";
}

namespace {

std::chrono::steady_clock::time_point trace_epoch() {
  static const auto epoch = std::chrono::steady_clock::now();
  return epoch;
}

/// One thread's private ring. The owning thread is the only writer;
/// the exporter reads after writers have joined.
struct ThreadBuffer {
  int pid = -1;
  int tid = 0;
  const char* label = "thread";
  std::uint64_t gen = 0;       ///< tracer generation this buffer belongs to
  std::size_t capacity = 0;
  std::vector<TraceEvent> ring;  ///< allocated lazily on first event
  std::size_t head = 0;          ///< next write index
  std::uint64_t count = 0;       ///< total events ever written

  void write(const TraceEvent& e) {
    if (ring.empty()) ring.resize(capacity);
    ring[head] = e;
    head = (head + 1) % ring.size();
    ++count;
  }
};

struct TracerState {
  mutable std::mutex mu;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  std::atomic<std::uint64_t> generation{1};
  /// Holds every event of a traced 100-step golden melt on a rank
  /// thread (~20k: the step DAG's task spans plus comm spans and flows).
  std::atomic<std::size_t> capacity{32768};
  std::atomic<int> anon_tid{1000};  ///< tids for unidentified threads
};

TracerState& state() {
  static TracerState* s = new TracerState;  // immortal: threads may outlive main
  return *s;
}

struct Tls {
  std::shared_ptr<ThreadBuffer> buf;
};

thread_local Tls tls;

/// The calling thread's buffer for the current tracer generation,
/// registering (or re-registering after a reset) as needed.
ThreadBuffer& current_buffer() {
  TracerState& s = state();
  const std::uint64_t gen = s.generation.load(std::memory_order_acquire);
  if (tls.buf == nullptr || tls.buf->gen != gen) {
    auto buf = std::make_shared<ThreadBuffer>();
    // Carry identity across a reset so long-lived threads keep their
    // track; brand-new threads start unidentified.
    if (tls.buf != nullptr) {
      buf->pid = tls.buf->pid;
      buf->tid = tls.buf->tid;
      buf->label = tls.buf->label;
    } else {
      buf->tid = s.anon_tid.fetch_add(1, std::memory_order_relaxed);
    }
    buf->gen = gen;
    buf->capacity = s.capacity.load(std::memory_order_relaxed);
    {
      std::lock_guard lock(s.mu);
      s.buffers.push_back(buf);
    }
    tls.buf = std::move(buf);
  }
  return *tls.buf;
}

void json_escape_into(std::string& out, const char* text) {
  for (const char* p = text; *p != '\0'; ++p) {
    const char c = *p;
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - trace_epoch())
      .count();
}

Tracer& Tracer::instance() {
  static Tracer t;
  return t;
}

void Tracer::set_thread_identity(int pid, int tid, const char* label) {
  ThreadBuffer& b = current_buffer();
  b.pid = pid;
  b.tid = tid;
  b.label = label;
}

int Tracer::current_pid() { return current_buffer().pid; }

void Tracer::record_span(TraceCat c, const char* name, std::int64_t ts_ns,
                         std::int64_t dur_ns) {
  TraceEvent e;
  e.ts_ns = ts_ns;
  e.dur_ns = dur_ns;
  e.name = name;
  e.cat = c;
  e.kind = TraceEvent::kSpan;
  current_buffer().write(e);
}

void Tracer::record_instant(TraceCat c, const char* name) {
  TraceEvent e;
  e.ts_ns = now_ns();
  e.name = name;
  e.cat = c;
  e.kind = TraceEvent::kInstant;
  current_buffer().write(e);
}

void Tracer::record_counter(TraceCat c, const char* name, std::int64_t value) {
  TraceEvent e;
  e.ts_ns = now_ns();
  e.name = name;
  e.cat = c;
  e.value = value;
  e.kind = TraceEvent::kCounter;
  current_buffer().write(e);
}

void Tracer::record_flow(TraceCat c, const char* name, std::uint64_t flow_id,
                         TraceEvent::Kind phase) {
  TraceEvent e;
  e.ts_ns = now_ns();
  e.name = name;
  e.cat = c;
  e.value = static_cast<std::int64_t>(flow_id);
  e.kind = phase;
  current_buffer().write(e);
}

void Tracer::set_buffer_capacity(std::size_t events) {
  state().capacity.store(events > 0 ? events : 1, std::memory_order_relaxed);
}

void Tracer::reset() {
  TracerState& s = state();
  std::lock_guard lock(s.mu);
  s.buffers.clear();
  s.generation.fetch_add(1, std::memory_order_release);
}

std::uint64_t Tracer::events_recorded() const {
  TracerState& s = state();
  std::lock_guard lock(s.mu);
  std::uint64_t n = 0;
  for (const auto& b : s.buffers) n += b->count;
  return n;
}

std::uint64_t Tracer::events_dropped() const {
  TracerState& s = state();
  std::lock_guard lock(s.mu);
  std::uint64_t n = 0;
  for (const auto& b : s.buffers) {
    if (!b->ring.empty() && b->count > b->ring.size()) {
      n += b->count - b->ring.size();
    }
  }
  return n;
}

std::vector<CollectedEvent> Tracer::snapshot_events() const {
  TracerState& s = state();
  std::lock_guard lock(s.mu);
  std::vector<CollectedEvent> events;
  for (const auto& b : s.buffers) {
    const std::size_t n = std::min<std::uint64_t>(b->count, b->ring.size());
    // Oldest surviving event first: when the ring wrapped, that is the
    // slot the next write would overwrite.
    const std::size_t start = b->count > b->ring.size() ? b->head : 0;
    for (std::size_t i = 0; i < n; ++i) {
      events.push_back({b->pid, b->tid, b->ring[(start + i) % b->ring.size()]});
    }
  }
  // Deterministic export order: registration order of the thread buffers
  // depends on thread scheduling, so sort globally. Stable keeps one
  // thread's equal-timestamp events (e.g. back-to-back instants) in
  // their recorded order.
  std::stable_sort(events.begin(), events.end(),
                   [](const CollectedEvent& a, const CollectedEvent& b) {
                     if (a.event.ts_ns != b.event.ts_ns) {
                       return a.event.ts_ns < b.event.ts_ns;
                     }
                     if (a.pid != b.pid) return a.pid < b.pid;
                     return a.tid < b.tid;
                   });
  return events;
}

std::string Tracer::export_chrome_json() const {
  const std::vector<CollectedEvent> events = snapshot_events();

  std::string out;
  out.reserve(1 << 16);
  out += "{\"traceEvents\":[";
  bool first = true;
  const auto emit = [&out, &first](const std::string& obj) {
    if (!first) out += ",";
    out += "\n";
    out += obj;
    first = false;
  };
  char buf[256];

  // Metadata: one process per rank, one named track per thread. Sorted
  // by (pid, tid) — like the events — so the whole file is diffable.
  struct TrackId {
    int pid;
    int tid;
    const char* label;
  };
  std::vector<TrackId> tracks;
  {
    TracerState& s = state();
    std::lock_guard lock(s.mu);
    for (const auto& b : s.buffers) {
      if (b->count == 0) continue;
      tracks.push_back({b->pid, b->tid, b->label});
    }
  }
  std::sort(tracks.begin(), tracks.end(), [](const TrackId& a, const TrackId& b) {
    return a.pid != b.pid ? a.pid < b.pid : a.tid < b.tid;
  });
  std::vector<int> pids_seen;
  for (const TrackId& t : tracks) {
    if (std::find(pids_seen.begin(), pids_seen.end(), t.pid) ==
        pids_seen.end()) {
      pids_seen.push_back(t.pid);
      std::string name = t.pid >= 0 ? "rank " + std::to_string(t.pid) : "driver";
      std::snprintf(buf, sizeof buf,
                    "{\"ph\":\"M\",\"pid\":%d,\"name\":\"process_name\","
                    "\"args\":{\"name\":\"%s\"}}",
                    t.pid, name.c_str());
      emit(buf);
      // Ranks in rank order first, the driver process (server/telemetry
      // threads, pid -1) pinned to the bottom of the Perfetto timeline.
      std::snprintf(buf, sizeof buf,
                    "{\"ph\":\"M\",\"pid\":%d,\"name\":\"process_sort_index\","
                    "\"args\":{\"sort_index\":%d}}",
                    t.pid, t.pid >= 0 ? t.pid : 1000000);
      emit(buf);
    }
    std::string label;
    json_escape_into(label, t.label);
    std::snprintf(buf, sizeof buf,
                  "{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"name\":"
                  "\"thread_name\",\"args\":{\"name\":\"%s %d\"}}",
                  t.pid, t.tid, label.c_str(), t.tid);
    emit(buf);
    std::snprintf(buf, sizeof buf,
                  "{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"name\":"
                  "\"thread_sort_index\",\"args\":{\"sort_index\":%d}}",
                  t.pid, t.tid, t.tid);
    emit(buf);
  }

  for (const CollectedEvent& ce : events) {
    const TraceEvent& e = ce.event;
    std::string name;
    json_escape_into(name, e.name);
    const double ts_us = static_cast<double>(e.ts_ns) / 1000.0;
    switch (e.kind) {
      case TraceEvent::kSpan: {
        const double dur_us = static_cast<double>(e.dur_ns) / 1000.0;
        std::snprintf(buf, sizeof buf,
                      "{\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,"
                      "\"dur\":%.3f,\"name\":\"%s\",\"cat\":\"%s\"}",
                      ce.pid, ce.tid, ts_us, dur_us, name.c_str(),
                      trace_cat_name(e.cat));
        break;
      }
      case TraceEvent::kInstant:
        std::snprintf(buf, sizeof buf,
                      "{\"ph\":\"i\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,"
                      "\"name\":\"%s\",\"cat\":\"%s\",\"s\":\"t\"}",
                      ce.pid, ce.tid, ts_us, name.c_str(),
                      trace_cat_name(e.cat));
        break;
      case TraceEvent::kCounter:
        std::snprintf(buf, sizeof buf,
                      "{\"ph\":\"C\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,"
                      "\"name\":\"%s\",\"cat\":\"%s\",\"args\":{\"value\":"
                      "%" PRId64 "}}",
                      ce.pid, ce.tid, ts_us, name.c_str(),
                      trace_cat_name(e.cat), e.value);
        break;
      case TraceEvent::kFlowStart:
      case TraceEvent::kFlowStep:
      case TraceEvent::kFlowFinish: {
        const char* ph = e.kind == TraceEvent::kFlowStart
                             ? "s"
                             : e.kind == TraceEvent::kFlowStep ? "t" : "f";
        // bp:e on the finish binds it to the enclosing slice (the
        // receiver's notice-wait span) instead of the next slice.
        const char* bind = e.kind == TraceEvent::kFlowFinish ? ",\"bp\":\"e\"" : "";
        std::snprintf(buf, sizeof buf,
                      "{\"ph\":\"%s\"%s,\"pid\":%d,\"tid\":%d,\"ts\":%.3f,"
                      "\"name\":\"%s\",\"cat\":\"%s\",\"id\":\"0x%" PRIx64 "\"}",
                      ph, bind, ce.pid, ce.tid, ts_us, name.c_str(),
                      trace_cat_name(e.cat),
                      static_cast<std::uint64_t>(e.value));
        break;
      }
    }
    emit(buf);
  }
  out += "\n]}\n";
  return out;
}

bool Tracer::export_chrome_json_file(const std::string& path) const {
  const std::string json = export_chrome_json();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::size_t n = std::fwrite(json.data(), 1, json.size(), f);
  const int rc = std::fclose(f);
  return n == json.size() && rc == 0;
}

}  // namespace lmp::obs
