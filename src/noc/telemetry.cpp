#include "noc/telemetry.hpp"

#include <cinttypes>
#include <cstdio>

namespace noc {

const char* stall_class_name(StallClass c) {
  switch (c) {
    case StallClass::BufferEmpty: return "buffer_empty";
    case StallClass::NoFreeVc: return "no_free_vc";
    case StallClass::NoCredit: return "no_credit";
    case StallClass::LostSa: return "lost_sa";
    case StallClass::LostVa: return "lost_va";
  }
  return "?";
}

Telemetry::Telemetry(int num_nodes, const TelemetryConfig& cfg)
    : cfg_(cfg),
      num_nodes_(num_nodes),
      trace_on_(cfg.trace_sample_every > 0) {
  NOC_EXPECTS(num_nodes > 0);
  rows_.resize(static_cast<size_t>(num_nodes));
  samples_.reserve(kMaxTelemetrySamples);
  if (trace_on_) events_.reserve(kMaxTraceEvents);
  // Fault schedules are short (tens of events); one page of markers is
  // plenty and keeps record_fault allocation-free mid-run.
  markers_.reserve(256);
}

int64_t Telemetry::total_stalls(StallClass c) const {
  int64_t sum = 0;
  for (const StallRow& r : rows_) sum += r.counts[static_cast<size_t>(c)];
  return sum;
}

void Telemetry::reset_stalls() {
  for (StallRow& r : rows_) r = StallRow{};
}

void Telemetry::record_fault(Cycle now, FaultKind kind, NodeId a, NodeId b) {
  if (markers_.size() < markers_.capacity())
    markers_.push_back(FaultMarker{now, kind, a, b});
  if (trace_on_ && events_.size() < events_.capacity())
    events_.push_back(TraceEvent{now, 0, 0, TraceEventType::Fault,
                                 static_cast<uint8_t>(kind),
                                 static_cast<int16_t>(a),
                                 static_cast<int16_t>(b)});
}

namespace {

/// Comma-separated emission: JSON forbids trailing commas, so the writer
/// prefixes every element after the first.
struct JsonList {
  std::FILE* f;
  bool first = true;
  void sep() {
    if (!first) std::fputs(",\n", f);
    first = false;
  }
};

}  // namespace

bool Telemetry::write_perfetto_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
  JsonList out{f};

  out.sep();
  std::fputs(
      "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\","
      "\"args\":{\"name\":\"noc\"}}",
      f);
  for (int n = 0; n < num_nodes_; ++n) {
    out.sep();
    std::fprintf(f,
                 "{\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"name\":\"thread_name\","
                 "\"args\":{\"name\":\"router %d\"}}",
                 n, n);
  }

  for (const TraceEvent& e : events_) {
    out.sep();
    const auto ts = static_cast<unsigned long long>(e.ts);
    const auto id = static_cast<unsigned long long>(e.id);
    switch (e.type) {
      case TraceEventType::PacketBegin:
      case TraceEventType::PacketEnd:
        std::fprintf(f,
                     "{\"ph\":\"%s\",\"cat\":\"pkt\",\"id\":\"0x%llx\","
                     "\"name\":\"pkt %llu\",\"pid\":0,\"tid\":%d,"
                     "\"ts\":%llu}",
                     e.type == TraceEventType::PacketBegin ? "b" : "e", id,
                     id, e.node, ts);
        break;
      case TraceEventType::HopBegin:
      case TraceEventType::HopEnd:
        std::fprintf(f,
                     "{\"ph\":\"%s\",\"cat\":\"hop\",\"id\":\"0x%llx.%d\","
                     "\"name\":\"pkt %llu @ r%d\",\"pid\":0,\"tid\":%d,"
                     "\"ts\":%llu}",
                     e.type == TraceEventType::HopBegin ? "b" : "e", id,
                     e.node, id, e.node, e.node, ts);
        break;
      case TraceEventType::VaGrant:
      case TraceEventType::SaGrant:
      case TraceEventType::Eject: {
        const char* name = e.type == TraceEventType::VaGrant ? "VA"
                           : e.type == TraceEventType::SaGrant ? "SA"
                                                               : "eject";
        std::fprintf(f,
                     "{\"ph\":\"i\",\"cat\":\"pkt\",\"s\":\"t\","
                     "\"name\":\"%s\",\"pid\":0,\"tid\":%d,\"ts\":%llu,"
                     "\"args\":{\"pkt\":\"0x%llx\"}}",
                     name, e.node, ts, id);
        break;
      }
      case TraceEventType::Fault:
        std::fprintf(f,
                     "{\"ph\":\"i\",\"cat\":\"fault\",\"s\":\"g\","
                     "\"name\":\"%s %d-%d\",\"pid\":0,\"tid\":0,"
                     "\"ts\":%llu,\"args\":{\"a\":%d,\"b\":%d}}",
                     fault_kind_name(static_cast<FaultKind>(e.aux)), e.a,
                     e.b, ts, e.a, e.b);
        break;
    }
  }
  std::fputs("\n]}\n", f);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

bool Telemetry::write_timeseries_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs(
      "cycle,injected_flits,delivered_flits,open_packets,awake_routers,"
      "fault_epoch\n",
      f);
  for (const TimeSample& s : samples_)
    std::fprintf(f, "%" PRIu64 ",%" PRId64 ",%" PRId64 ",%" PRId64 ",%d,%"
                 PRIu64 "\n",
                 static_cast<uint64_t>(s.cycle), s.injected_flits,
                 s.delivered_flits, s.open_packets, s.awake_routers,
                 s.fault_epoch);
  for (const FaultMarker& m : markers_)
    std::fprintf(f, "# fault,%" PRIu64 ",%s,%d,%d\n",
                 static_cast<uint64_t>(m.cycle), fault_kind_name(m.kind),
                 m.a, m.b);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

bool Telemetry::write_timeseries_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"samples\":[\n", f);
  JsonList rows{f};
  for (const TimeSample& s : samples_) {
    rows.sep();
    std::fprintf(f,
                 "{\"cycle\":%" PRIu64 ",\"injected_flits\":%" PRId64
                 ",\"delivered_flits\":%" PRId64 ",\"open_packets\":%" PRId64
                 ",\"awake_routers\":%d,\"fault_epoch\":%" PRIu64 "}",
                 static_cast<uint64_t>(s.cycle), s.injected_flits,
                 s.delivered_flits, s.open_packets, s.awake_routers,
                 s.fault_epoch);
  }
  std::fputs("\n],\"faults\":[\n", f);
  JsonList faults{f};
  for (const FaultMarker& m : markers_) {
    faults.sep();
    std::fprintf(f,
                 "{\"cycle\":%" PRIu64 ",\"kind\":\"%s\",\"a\":%d,\"b\":%d}",
                 static_cast<uint64_t>(m.cycle), fault_kind_name(m.kind),
                 m.a, m.b);
  }
  std::fputs("\n]}\n", f);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

bool Telemetry::write_stalls_csv(const std::string& path, int kx) const {
  NOC_EXPECTS(kx > 0);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("node,x,y", f);
  for (int c = 0; c < kNumStallClasses; ++c)
    std::fprintf(f, ",%s", stall_class_name(static_cast<StallClass>(c)));
  std::fputs("\n", f);
  for (int n = 0; n < num_nodes_; ++n) {
    std::fprintf(f, "%d,%d,%d", n, n % kx, n / kx);
    for (int c = 0; c < kNumStallClasses; ++c)
      std::fprintf(f, ",%" PRId64,
                   stalls(static_cast<NodeId>(n),
                          static_cast<StallClass>(c)));
    std::fputs("\n", f);
  }
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

}  // namespace noc
