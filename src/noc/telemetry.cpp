#include "noc/telemetry.hpp"

#include <charconv>

#include "common/json.hpp"

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

// Trace-event ids are hex strings ("0x1f"; hop slices "0x1f.<router>").
std::string hex_id(PacketId id) {
  char buf[2 + 16] = {'0', 'x'};
  const auto r = std::to_chars(buf + 2, buf + sizeof buf, id, 16);
  return std::string(buf, r.ptr);
}

}  // namespace

bool Telemetry::write_perfetto_json(const std::string& path) const {
  json::Writer w;
  w.begin_object().field("displayTimeUnit", "ns");
  w.key("traceEvents").begin_array();
  // Track names: the process, then one thread per router.
  const auto name_track = [&w](const char* what, int tid,
                               const std::string& name) {
    w.begin_object().field("ph", "M").field("pid", 0).field("tid", tid);
    w.field("name", what).key("args").begin_object().field("name", name);
    w.end_object().end_object();
  };
  name_track("process_name", 0, "noc");
  for (int n = 0; n < num_nodes_; ++n)
    name_track("thread_name", n, std::string("router ") + std::to_string(n));

  for (const TraceEvent& e : events_) {
    const bool begin = e.type == TraceEventType::PacketBegin ||
                       e.type == TraceEventType::HopBegin;
    w.begin_object();
    switch (e.type) {
      case TraceEventType::PacketBegin:
      case TraceEventType::PacketEnd:
        w.field("ph", begin ? "b" : "e").field("cat", "pkt");
        w.field("id", hex_id(e.id));
        w.field("name", std::string("pkt ") + std::to_string(e.id));
        break;
      case TraceEventType::HopBegin:
      case TraceEventType::HopEnd: {
        const std::string router = std::to_string(e.node);
        w.field("ph", begin ? "b" : "e").field("cat", "hop");
        w.field("id", hex_id(e.id) + "." + router);
        w.field("name",
                std::string("pkt ") + std::to_string(e.id) + " @ r" + router);
        break;
      }
      case TraceEventType::VaGrant:
      case TraceEventType::SaGrant:
      case TraceEventType::Eject:
        w.field("ph", "i").field("cat", "pkt").field("s", "t");
        w.field("name", e.type == TraceEventType::VaGrant   ? "VA"
                        : e.type == TraceEventType::SaGrant ? "SA"
                                                            : "eject");
        w.key("args").begin_object().field("pkt", hex_id(e.id)).end_object();
        break;
      case TraceEventType::Fault:
        w.field("ph", "i").field("cat", "fault").field("s", "g");
        w.field("name",
                std::string(fault_kind_name(static_cast<FaultKind>(e.aux))) +
                    " " + std::to_string(e.a) + "-" + std::to_string(e.b));
        w.key("args").begin_object().field("a", e.a).field("b", e.b);
        w.end_object();
        break;
    }
    // Fault events sit on track 0 (record_fault stores node 0).
    w.field("pid", 0).field("tid", e.node).field("ts", e.ts).end_object();
  }
  w.end_array().end_object();
  return json::write_file(path, w.str());
}

bool Telemetry::write_timeseries_json(const std::string& path) const {
  json::Writer w;
  w.begin_object().key("samples").begin_array();
  for (const TimeSample& s : samples_) {
    w.begin_object().field("cycle", s.cycle);
    w.field("injected_flits", s.injected_flits);
    w.field("delivered_flits", s.delivered_flits);
    w.field("open_packets", s.open_packets);
    w.field("awake_routers", s.awake_routers);
    w.field("fault_epoch", s.fault_epoch).end_object();
  }
  w.end_array().key("faults").begin_array();
  for (const FaultMarker& m : markers_) {
    w.begin_object().field("cycle", m.cycle);
    w.field("kind", fault_kind_name(m.kind)).field("a", m.a).field("b", m.b);
    w.end_object();
  }
  w.end_array().end_object();
  return json::write_file(path, w.str());
}

bool Telemetry::write_stalls_csv(const std::string& path, int kx) const {
  NOC_EXPECTS(kx > 0);
  std::string csv = "node,x,y";
  for (int c = 0; c < kNumStallClasses; ++c)
    csv.append(",").append(stall_class_name(static_cast<StallClass>(c)));
  csv += '\n';
  for (int n = 0; n < num_nodes_; ++n) {
    csv += std::to_string(n) + ',' + std::to_string(n % kx) + ',' +
           std::to_string(n / kx);
    for (int c = 0; c < kNumStallClasses; ++c)
      csv += ',' + std::to_string(stalls(static_cast<NodeId>(n),
                                         static_cast<StallClass>(c)));
    csv += '\n';
  }
  return json::write_file(path, csv);
}

}  // namespace noc
