#include "perfbench/workloads.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>

#include "src/base/rng.h"
#include "src/base/trace.h"
#include "src/flipc/flipc.h"
#include "src/shm/telemetry_audit.h"

namespace perfbench {
namespace {

using flipc::Address;
using flipc::Cluster;
using flipc::Endpoint;
using flipc::MessageBuffer;
using flipc::NodeId;
using flipc::TraceEvent;
using flipc::TraceRing;

struct WorkloadSpec {
  const char* name;
  std::uint32_t message_size;  // bytes, including FLIPC's 8-byte header
  std::uint32_t sources;       // send endpoints
  // Two sources, one per node, each aimed at a sink on the other node.
  // Otherwise every source is on node 0 and aims at one sink on node 1.
  bool pingpong;
  std::uint32_t window;        // closed loop: messages in flight per source; 0 = open loop
  double rate_per_s;           // open loop: aggregate offered rate
  std::uint32_t tx_buffers;    // buffers owned by each send endpoint (= its queue depth)
  std::uint32_t sink_buffers;  // buffers each sink keeps posted (= its queue depth)
};

constexpr WorkloadSpec kWorkloads[] = {
    {"pingpong", 64, 2, true, 1, 0, 4, 8},
    {"stream", 64, 16, false, 4, 0, 4, 256},
    {"fanin", 1024, 64, false, 0, 100'000, 256, 16384},
};

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) {
      return &spec;
    }
  }
  return nullptr;
}

constexpr std::uint32_t kShortSinkBuffers = 4;
// Set-ups repeat for a fixed time budget (teardowns included), at least
// kSetupMinRepeats times: a pingpong set-up takes tens of µs, a fanin one
// milliseconds, and both medians need many samples.
constexpr std::size_t kSetupMinRepeats = 21;
constexpr std::size_t kSetupMaxRepeats = 4001;
constexpr TimeNs kSetupBudgetNs = 1'000'000'000;
// Traced runs record every message, so they stop after this many sends;
// each trace ring then holds at most two records per message.
constexpr std::uint64_t kTracedMessages = 200'000;
constexpr TimeNs kStallNs = 2'000'000'000;
constexpr TimeNs kDrainNs = 3'000'000'000;
constexpr std::uint32_t kNoBuffer = 0xffffffffu;
constexpr double kStageSumFloorUs = 0.05;
constexpr double kSliceS = 0.5;

std::uint32_t PowerOfTwoAtLeast(std::uint32_t n) {
  std::uint32_t p = 1;
  while (p < n) {
    p <<= 1;
  }
  return p;
}

struct Source {
  NodeId node = 0;
  Endpoint tx;
  Address dst;
  std::uint32_t sink = 0;  // index into Rig::sinks
  std::vector<MessageBuffer> free;
  std::uint32_t next_seq = 0;      // sender side
  std::uint32_t credits = 0;       // closed loop: sends allowed before a receipt
  std::uint32_t expected_seq = 0;  // receiver side: the next in-order seq
};

struct Sink {
  NodeId node = 0;
  Endpoint rx;
};

// One assembled, started cluster with its endpoints and buffers.
struct Rig {
  // Declared before the cluster: the engines write into these rings until
  // the cluster (destroyed first) has stopped them.
  std::vector<std::unique_ptr<TraceRing>> rings;  // [node] domain, [2 + node] engine
  std::unique_ptr<Cluster> cluster;
  std::vector<Source> sources;
  std::vector<Sink> sinks;
};

bool BuildRig(const WorkloadSpec& spec, std::uint32_t posted, std::size_t ring_capacity,
              Rig* rig, std::string* error) {
  const std::uint32_t sink_depth = PowerOfTwoAtLeast(spec.sink_buffers);
  const std::uint32_t tx_depth = PowerOfTwoAtLeast(spec.tx_buffers);
  std::uint32_t per_node[2] = {0, 0};
  for (std::uint32_t i = 0; i < spec.sources; ++i) {
    per_node[spec.pingpong ? i : 0] += spec.tx_buffers;
  }
  per_node[1] += spec.sink_buffers;
  if (spec.pingpong) {
    per_node[0] += spec.sink_buffers;
  }

  Cluster::Options options;
  options.node_count = 2;
  options.comm.message_size = spec.message_size;
  options.comm.buffer_count = std::max(per_node[0], per_node[1]) + 64;
  options.comm.max_endpoints = 64;
  auto cluster = Cluster::Create(options);
  if (!cluster.ok()) {
    *error = "Cluster::Create failed";
    return false;
  }
  rig->cluster = std::move(cluster).value();
  Cluster& c = *rig->cluster;

  if (ring_capacity > 0) {
    for (int i = 0; i < 4; ++i) {
      rig->rings.push_back(std::make_unique<TraceRing>(ring_capacity));
    }
    for (NodeId n = 0; n < 2; ++n) {
      c.domain(n).SetTrace(rig->rings[n].get(), &flipc::RealClock::Instance());
      c.engine(n).SetTrace(rig->rings[2 + n].get());
    }
  }

  const NodeId sink_nodes[2] = {1, 0};
  for (std::size_t k = 0; k < (spec.pingpong ? 2u : 1u); ++k) {
    Sink sink;
    sink.node = sink_nodes[k];
    auto rx = c.domain(sink.node).CreateEndpoint(
        {.type = flipc::shm::EndpointType::kReceive, .queue_depth = sink_depth});
    if (!rx.ok()) {
      *error = "sink CreateEndpoint failed";
      return false;
    }
    sink.rx = *rx;
    for (std::uint32_t b = 0; b < posted; ++b) {
      auto buffer = c.domain(sink.node).AllocateBuffer();
      if (!buffer.ok() || !sink.rx.PostBufferUnlocked(*buffer).ok()) {
        *error = "sink buffer posting failed";
        return false;
      }
    }
    rig->sinks.push_back(sink);
  }

  for (std::uint32_t i = 0; i < spec.sources; ++i) {
    Source source;
    source.node = spec.pingpong ? static_cast<NodeId>(i) : 0;
    source.sink = spec.pingpong ? 1 - i : 0;
    source.dst = rig->sinks[source.sink].rx.address();
    source.credits = spec.window;
    auto tx = c.domain(source.node).CreateEndpoint(
        {.type = flipc::shm::EndpointType::kSend, .queue_depth = tx_depth});
    if (!tx.ok()) {
      *error = "source CreateEndpoint failed";
      return false;
    }
    source.tx = *tx;
    for (std::uint32_t b = 0; b < spec.tx_buffers; ++b) {
      auto buffer = c.domain(source.node).AllocateBuffer();
      if (!buffer.ok()) {
        *error = "source AllocateBuffer failed";
        return false;
      }
      source.free.push_back(*buffer);
    }
    rig->sources.push_back(std::move(source));
  }
  c.Start();
  return true;
}

// What one phase (one rig, one warm-up, one timed window, one drain)
// observed.
struct PhaseStats {
  // Whole phase, warm-up and drain included.
  std::uint64_t attempted = 0;
  std::uint64_t refused = 0;
  std::uint64_t received = 0;
  std::uint64_t dropped = 0;  // sum of the sinks' DropCount()
  std::uint64_t bad_checksum = 0;
  std::uint64_t bad_order = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t bad_source = 0;
  std::uint64_t repost_failures = 0;
  std::uint64_t stalls = 0;
  bool drained = false;

  // Timed window.
  double window_s = 0;
  std::uint64_t window_received = 0;
  std::uint64_t empty_polls = 0;
  std::uint64_t kicks = 0;  // both runners
  std::uint64_t parks = 0;
  OsCounters os;
  // The window is cut into slices so that a stall on the shared host (a
  // descheduled vCPU) moves a few slices, not the run (see SliceFigures).
  struct Slice {
    double seconds = 0;
    std::uint64_t received = 0;
    OsCounters os;
    LatencyHistogram oneway;  // messages sent and received inside the window
  };
  std::vector<Slice> slices;
  LatencyHistogram gen_late;  // open loop: send time minus due time

  // Read after the engines stopped (lifetime totals).
  flipc::engine::EngineStats engine;  // both nodes
  std::uint64_t doorbell_rings = 0;
  std::uint64_t doorbell_full = 0;
  std::uint64_t rx_high_water = 0;
  int audit_mismatches = 0;

  // Traced phase only.
  std::vector<std::int64_t> send_ns, receive_ns, post_ns, reclaim_ns, wire_depth;
  std::vector<std::int64_t> release_to_transmit_ns, transmit_to_deliver_ns,
      deliver_to_acquire_ns, traced_oneway_ns;
  std::uint64_t trace_unmatched = 0;    // messages missing a record
  std::uint64_t trace_disordered = 0;   // joins that break a guaranteed order
  std::uint64_t trace_left = 0;         // records joined to no message
  bool trace_wrapped = false;

  std::uint64_t IntegrityFailures() const {
    return bad_checksum + bad_order + duplicates + bad_source;
  }
};

// Per-node, per-buffer queues of trace stamps, popped in message order:
// a buffer carries one message at a time, so the k-th record naming a
// buffer belongs to the k-th message that used it.
class BufferStamps {
 public:
  void Add(std::uint32_t buffer, TimeNs t) {
    if (buffer >= times_.size()) {
      times_.resize(buffer + 1);
      next_.resize(buffer + 1, 0);
    }
    times_[buffer].push_back(t);
  }
  bool Pop(std::uint32_t buffer, TimeNs* t) {
    if (buffer >= times_.size() || next_[buffer] >= times_[buffer].size()) {
      return false;
    }
    *t = times_[buffer][next_[buffer]++];
    return true;
  }
  // The stamp popped before the latest Pop of `buffer`: the previous
  // message's. False for the buffer's first message.
  bool Previous(std::uint32_t buffer, TimeNs* t) const {
    if (buffer >= times_.size() || next_[buffer] < 2) {
      return false;
    }
    *t = times_[buffer][next_[buffer] - 2];
    return true;
  }
  // Records never popped: each one had no message to belong to.
  std::uint64_t Left() const {
    std::uint64_t left = 0;
    for (std::size_t b = 0; b < times_.size(); ++b) {
      left += times_[b].size() - next_[b];
    }
    return left;
  }

 private:
  std::vector<std::vector<TimeNs>> times_;
  std::vector<std::size_t> next_;
};

class Phase {
 public:
  Phase(const WorkloadSpec& spec, const RunConfig& config, const PayloadPool& payloads,
        Rig& rig, bool traced)
      : spec_(spec),
        config_(config),
        payloads_(payloads),
        rig_(rig),
        traced_(traced),
        rng_(config.seed ^ 0x9e3779b97f4a7c15ull) {
    Prefault(seen_, std::size_t{1} << 24);
    if (traced_) {
      for (auto* samples : {&stats_.send_ns, &stats_.receive_ns, &stats_.post_ns,
                            &stats_.reclaim_ns}) {
        Prefault(*samples, kTracedMessages);
      }
      Prefault(stats_.wire_depth, std::size_t{1} << 20);
      Prefault(send_buffer_, kTracedMessages);
      Prefault(send_node_, kTracedMessages);
      Prefault(send_stamp_, kTracedMessages);
      Prefault(send_start_, kTracedMessages);
      Prefault(arrivals_, kTracedMessages);
    }
  }

  PhaseStats Run(double warmup_s, double window_s) {
    const double slices = std::max(1.0, std::round(window_s / kSliceS));
    slice_ns_ = static_cast<TimeNs>(window_s * 1e9 / slices);
    // Every slice's histogram exists before the window opens (one spare:
    // a slow loop iteration may cut the last slice just short of the end).
    stats_.slices.resize(static_cast<std::size_t>(slices) + 1);
    const TimeNs start = NowNs();
    window_start_ = start + static_cast<TimeNs>(warmup_s * 1e9);
    window_end_ = window_start_ + static_cast<TimeNs>(window_s * 1e9);
    send_limit_ = traced_ ? kTracedMessages : 0;
    now_ = start;
    if (spec_.pingpong) {
      RunPingPong();
    } else if (spec_.window > 0) {
      RunStream();
    } else {
      RunFanin(start);
    }
    CloseWindow();
    Drain();
    Finish();
    return std::move(stats_);
  }

 private:
  bool Sending() const {
    return now_ < window_end_ && stats_.stalls == 0 &&
           (send_limit_ == 0 || next_id_ < send_limit_);
  }

  void Tick() {
    now_ = NowNs();
    if (!window_open_ && !window_closed_ && now_ >= window_start_) {
      OpenWindow();
    } else if (window_open_ && now_ >= slice_end_) {
      CutSlice();
    }
  }

  void OpenWindow() {
    window_open_ = true;
    window_open_at_ = NowNs();
    os_at_open_ = OsCounters::Now();
    kicks_at_open_ = Kicks();
    parks_at_open_ = Parks();
    slice_ = 0;
    slice_start_ = window_open_at_;
    slice_os_ = os_at_open_;
    slice_received_ = 0;
    slice_end_ = slice_start_ + slice_ns_;
  }

  void CutSlice() {
    const TimeNs t = NowNs();
    const OsCounters os = OsCounters::Now();
    PhaseStats::Slice& slice = stats_.slices[slice_];
    slice.seconds = static_cast<double>(t - slice_start_) * 1e-9;
    slice.received = stats_.window_received - slice_received_;
    slice.os = os - slice_os_;
    slices_done_ = slice_ + 1;
    if (slice_ + 1 < stats_.slices.size()) {
      ++slice_;
    }
    slice_received_ = stats_.window_received;
    slice_start_ = t;
    slice_os_ = os;
    slice_end_ += slice_ns_;
  }

  void CloseWindow() {
    if (!window_open_) {
      OpenWindow();  // a capped traced run may end inside its warm-up
    }
    if (slices_done_ == 0 || NowNs() - slice_start_ >= slice_ns_ / 2) {
      CutSlice();  // a sliver left after the last full slice is dropped
    }
    const TimeNs close = NowNs();
    stats_.os = OsCounters::Now() - os_at_open_;
    stats_.kicks = Kicks() - kicks_at_open_;
    stats_.parks = Parks() - parks_at_open_;
    stats_.window_s = static_cast<double>(close - window_open_at_) * 1e-9;
    stats_.slices.resize(slices_done_);
    window_open_ = false;
    window_closed_ = true;
  }

  std::uint64_t Kicks() const {
    return rig_.cluster->runner(0).kicks() + rig_.cluster->runner(1).kicks();
  }
  std::uint64_t Parks() const {
    return rig_.cluster->runner(0).idle_parks() + rig_.cluster->runner(1).idle_parks();
  }

  void Reclaim(Source& source) {
    for (;;) {
      const TimeNs t0 = traced_ ? NowNs() : 0;
      auto buffer = source.tx.ReclaimUnlocked();
      if (!buffer.ok()) {
        return;
      }
      if (traced_) {
        stats_.reclaim_ns.push_back(NowNs() - t0);
      }
      source.free.push_back(*buffer);
    }
  }

  // Sends the next message of `index`. `due` is the open-loop schedule
  // time; 0 stamps the message with the send time itself. `wait` spins
  // until the engine hands a buffer back (closed loops); without it an
  // exhausted endpoint refuses the message (open loop).
  bool Send(std::uint32_t index, TimeNs due, bool wait) {
    Source& source = rig_.sources[index];
    if (source.free.empty()) {
      Reclaim(source);
      const TimeNs waited_from = NowNs();
      while (wait && source.free.empty()) {
        Reclaim(source);
        if (NowNs() - waited_from > kStallNs) {
          ++stats_.stalls;
          return false;
        }
      }
    }
    ++stats_.attempted;
    if (source.free.empty()) {
      ++stats_.refused;
      return false;
    }
    MessageBuffer buffer = source.free.back();
    source.free.pop_back();

    MessageHeader header;
    header.source = index;
    header.seq = NextSeq(source);
    header.id = next_id_++;
    std::byte* body = buffer.data() + sizeof(MessageHeader);
    payloads_.Fill(&header, body);
    if (config_.inject == Inject::kFlipByte && header.id == kInjectAt) {
      body[0] ^= std::byte{0x5a};
    }

    const TimeNs t0 = NowNs();
    header.stamp_ns = due != 0 ? due : t0;
    std::memcpy(buffer.data(), &header, sizeof(header));
    const bool ok = source.tx.SendUnlocked(buffer, source.dst).ok();
    if (traced_) {
      stats_.send_ns.push_back(NowNs() - t0);
      send_buffer_.push_back(ok ? buffer.index() : kNoBuffer);
      send_node_.push_back(source.node);
      send_stamp_.push_back(header.stamp_ns);
      send_start_.push_back(t0);
    }
    if (due != 0 && window_open_) {
      stats_.gen_late.Add(t0 - due);
    }
    if (!ok) {
      source.free.push_back(buffer);
      ++stats_.refused;
      return false;
    }
    return true;
  }

  std::uint32_t NextSeq(Source& source) {
    std::uint32_t seq = source.next_seq++;
    if (config_.inject == Inject::kSwapSeq && &source == &rig_.sources[0] &&
        (seq == kInjectAt || seq == kInjectAt + 1)) {
      seq = seq == kInjectAt ? kInjectAt + 1 : kInjectAt;
    }
    return seq;
  }

  // One ReceiveUnlocked attempt on `sink`; verifies and re-posts what
  // arrives. Returns whether a message was received.
  bool Poll(Sink& sink) {
    const TimeNs t0 = traced_ ? NowNs() : 0;
    auto message = sink.rx.ReceiveUnlocked();
    if (!message.ok()) {
      if (window_open_) {
        ++stats_.empty_polls;
      }
      if (traced_ && t0 - last_wire_sample_ >= kWireSampleNs &&
          stats_.wire_depth.size() < stats_.wire_depth.capacity()) {
        last_wire_sample_ = t0;
        stats_.wire_depth.push_back(static_cast<std::int64_t>(
            rig_.cluster->engine(sink.node).wire_for_protocols().PendingCount()));
      }
      return false;
    }
    const TimeNs t = NowNs();
    MessageBuffer buffer = *message;
    if (traced_) {
      stats_.receive_ns.push_back(t - t0);
    }
    ++stats_.received;
    if (window_open_) {
      ++stats_.window_received;
    }

    MessageHeader header;
    std::memcpy(&header, buffer.data(), sizeof(header));
    const std::byte* body = buffer.data() + sizeof(MessageHeader);
    if (header.source >= rig_.sources.size() || header.id >= next_id_) {
      ++stats_.bad_source;
    } else {
      Source& source = rig_.sources[header.source];
      if (!(buffer.peer() == source.tx.address()) ||
          &rig_.sinks[source.sink] != &sink) {
        ++stats_.bad_source;
      }
      if (!payloads_.Verify(header, body)) {
        ++stats_.bad_checksum;
      }
      if (seen_.size() <= header.id) {
        seen_.resize(std::max<std::size_t>(header.id + 1, seen_.size() * 2));
      }
      if (seen_[header.id]) {
        ++stats_.duplicates;
      } else if (header.seq < source.expected_seq) {
        ++stats_.bad_order;
      } else {
        source.expected_seq = header.seq + 1;  // a gap is a drop, counted by the sink
      }
      seen_[header.id] = true;
      if (spec_.window > 0) {
        ++source.credits;
      }
      if (window_open_ && header.stamp_ns >= window_start_) {
        stats_.slices[slice_].oneway.Add(t - header.stamp_ns);
      }
      if (traced_) {
        arrivals_.push_back({header.id, sink.node, buffer.index(), t});
      }
    }

    const TimeNs p0 = traced_ ? NowNs() : 0;
    if (!sink.rx.PostBufferUnlocked(buffer).ok()) {
      ++stats_.repost_failures;
    } else if (traced_) {
      stats_.post_ns.push_back(NowNs() - p0);
    }
    return true;
  }

  bool AwaitOne(Sink& sink) {
    const TimeNs from = NowNs();
    for (std::uint32_t polls = 1;; ++polls) {
      if (Poll(sink)) {
        return true;
      }
      if ((polls & 4095) == 0 && NowNs() - from > kStallNs) {
        ++stats_.stalls;
        return false;
      }
    }
  }

  void RunPingPong() {
    while (Sending()) {
      for (std::uint32_t s = 0; s < 2; ++s) {
        if (!Send(s, 0, /*wait=*/true) || !AwaitOne(rig_.sinks[rig_.sources[s].sink])) {
          return;
        }
      }
      for (Source& source : rig_.sources) {
        Reclaim(source);
      }
      Tick();
    }
  }

  void RunStream() {
    Sink& sink = rig_.sinks[0];
    while (Sending()) {
      for (int n = 0; n < 64 && Poll(sink); ++n) {
      }
      for (std::uint32_t s = 0; s < rig_.sources.size() && Sending(); ++s) {
        Source& source = rig_.sources[s];
        while (source.credits > 0 && (send_limit_ == 0 || next_id_ < send_limit_)) {
          if (source.free.empty()) {
            Reclaim(source);
            if (source.free.empty()) {
              break;  // the engine has not completed the send yet
            }
          }
          --source.credits;
          Send(s, 0, /*wait=*/false);
        }
      }
      Tick();
    }
  }

  void RunFanin(TimeNs start) {
    const auto period = static_cast<TimeNs>(1e9 / spec_.rate_per_s);
    const auto sources = static_cast<std::uint64_t>(rig_.sources.size());
    Sink& sink = rig_.sinks[0];
    TimeNs next_due = start;
    while (Sending()) {
      while (next_due <= now_ && Sending()) {
        Send(static_cast<std::uint32_t>(rng_.Below(sources)), next_due, /*wait=*/false);
        next_due += period;
      }
      for (int n = 0; n < 32 && Poll(sink); ++n) {
      }
      Tick();
    }
  }

  std::uint64_t SinkDrops() const {
    std::uint64_t drops = 0;
    for (const Sink& sink : rig_.sinks) {
      drops += sink.rx.DropCount();
    }
    return drops;
  }

  // Receives until every attempted message is accounted for as received,
  // dropped or refused.
  void Drain() {
    const TimeNs deadline = NowNs() + kDrainNs;
    for (;;) {
      bool any = false;
      for (Sink& sink : rig_.sinks) {
        any = Poll(sink) || any;
      }
      stats_.dropped = SinkDrops();
      if (stats_.received + stats_.dropped + stats_.refused == stats_.attempted) {
        stats_.drained = true;
        return;
      }
      if (!any && NowNs() > deadline) {
        return;
      }
    }
  }

  void Finish() {
    Cluster& c = *rig_.cluster;
    c.Stop();
    stats_.dropped = SinkDrops();
    for (NodeId n = 0; n < 2; ++n) {
      stats_.engine.Add(c.aggregate_stats(n));
      stats_.audit_mismatches += flipc::shm::AuditTelemetryIdentities(c.domain(n).comm());
    }
    for (const Source& source : rig_.sources) {
      const auto& t = c.domain(source.node).comm().telemetry(source.tx.index());
      stats_.doorbell_rings += t.doorbell_rings.Read();
      stats_.doorbell_full += t.doorbell_full.Read();
    }
    for (const Sink& sink : rig_.sinks) {
      stats_.rx_high_water = std::max<std::uint64_t>(
          stats_.rx_high_water,
          c.domain(sink.node).comm().telemetry(sink.rx.index()).queue_depth_high_water.Read());
    }
    if (traced_) {
      ReduceTrace();
    }
  }

  // Builds the Figure 2 stage table. The stage edges are the app's send
  // start, kEngineSend on the sending node, kEngineDeliver on the receiving
  // node and the app's successful receive, so a message's stages add up to
  // its one-way time. Records are joined by buffer index: kApiSend and
  // kEngineSend name the send buffer, kEngineDeliver and kApiReceive the
  // posted buffer; every message must have all four.
  //
  // A record joined to the wrong message must break an order the code
  // guarantees, so each join is checked against those orders. Every
  // stamp comes after the action that hands the message on (the engine
  // may transmit before the app stamps kApiSend, and deliver before the
  // sending engine stamps kEngineSend), so adjacent stamps are not
  // ordered; these are:
  //  - app thread, program order: send start <= kApiSend <= kApiReceive
  //    <= receive (the message is received after its send returned);
  //  - the engines act only after the release: send start <= kEngineSend,
  //    send start <= kEngineDeliver;
  //  - an engine stamps a message before it hands the buffer back, so a
  //    buffer's kEngineSend precedes the next send start from that buffer
  //    and its kEngineDeliver precedes the next kApiReceive into it.
  // A missing or extra record shifts the later joins of its buffer by one
  // message and leaves a message unmatched or a record over; on a send
  // buffer each shifted join also breaks the lower or the buffer-reuse
  // bound.
  void ReduceTrace() {
    BufferStamps api_send[2], engine_send[2], engine_deliver[2], api_receive[2];
    bool skipped = false;
    for (NodeId n = 0; n < 2; ++n) {
      for (int ring : {static_cast<int>(n), static_cast<int>(2 + n)}) {
        if (rig_.rings[ring]->recorded() > rig_.rings[ring]->capacity()) {
          stats_.trace_wrapped = true;
        }
        for (const flipc::TraceRecord& r : rig_.rings[ring]->Snapshot()) {
          const auto buffer = static_cast<std::uint32_t>(r.b);
          switch (r.event) {
            case TraceEvent::kApiSend: api_send[n].Add(buffer, r.time_ns); break;
            case TraceEvent::kApiReceive: api_receive[n].Add(buffer, r.time_ns); break;
            case TraceEvent::kEngineSend:
              if (config_.inject == Inject::kSkipRecord && !skipped) {
                skipped = true;
                break;
              }
              engine_send[n].Add(buffer, r.time_ns);
              break;
            case TraceEvent::kEngineDeliver: engine_deliver[n].Add(buffer, r.time_ns); break;
            default: break;
          }
        }
      }
    }
    // Send side, in send order.
    std::vector<TimeNs> released(send_buffer_.size(), 0);
    std::vector<TimeNs> transmitted(send_buffer_.size(), 0);
    std::vector<char> matched(send_buffer_.size(), 0);
    for (std::size_t id = 0; id < send_buffer_.size(); ++id) {
      const NodeId node = send_node_[id];
      const std::uint32_t buffer = send_buffer_[id];
      TimeNs previous = 0;
      matched[id] = buffer != kNoBuffer && api_send[node].Pop(buffer, &released[id]) &&
                    engine_send[node].Pop(buffer, &transmitted[id]);
      if (matched[id] && engine_send[node].Previous(buffer, &previous) &&
          previous > send_start_[id]) {
        ++stats_.trace_disordered;
      }
    }
    // Receive side, in receive order.
    for (const Arrival& a : arrivals_) {
      TimeNs delivered = 0;
      TimeNs acquired = 0;
      TimeNs previous = 0;
      const bool ok = engine_deliver[a.node].Pop(a.buffer, &delivered) &&
                      api_receive[a.node].Pop(a.buffer, &acquired);
      if (!ok || !matched[a.id]) {
        ++stats_.trace_unmatched;
        continue;
      }
      const TimeNs start = send_start_[a.id];
      if (!(start <= released[a.id] && released[a.id] <= acquired && acquired <= a.time &&
            start <= transmitted[a.id] && start <= delivered) ||
          (engine_deliver[a.node].Previous(a.buffer, &previous) && previous > acquired)) {
        ++stats_.trace_disordered;
      }
      if (send_stamp_[a.id] < window_start_) {
        continue;
      }
      stats_.release_to_transmit_ns.push_back(transmitted[a.id] - send_start_[a.id]);
      stats_.transmit_to_deliver_ns.push_back(delivered - transmitted[a.id]);
      stats_.deliver_to_acquire_ns.push_back(a.time - delivered);
      stats_.traced_oneway_ns.push_back(a.time - send_stamp_[a.id]);
    }
    for (NodeId n = 0; n < 2; ++n) {
      stats_.trace_left += api_send[n].Left() + engine_send[n].Left() +
                           engine_deliver[n].Left() + api_receive[n].Left();
    }
  }

  struct Arrival {
    std::uint64_t id;
    NodeId node;
    std::uint32_t buffer;
    TimeNs time;
  };

  static constexpr std::uint32_t kInjectAt = 1000;
  // Wire depth is sampled at most this often (bounded memory on idle polls).
  static constexpr TimeNs kWireSampleNs = 5'000;

  const WorkloadSpec& spec_;
  const RunConfig& config_;
  const PayloadPool& payloads_;
  Rig& rig_;
  const bool traced_;
  flipc::Rng rng_;

  TimeNs now_ = 0;
  TimeNs window_start_ = 0;
  TimeNs window_end_ = 0;
  TimeNs window_open_at_ = 0;
  TimeNs slice_ns_ = 0;
  TimeNs slice_start_ = 0;
  TimeNs slice_end_ = 0;
  std::size_t slice_ = 0;  // the open slice
  std::size_t slices_done_ = 0;
  std::uint64_t slice_received_ = 0;
  OsCounters slice_os_;
  bool window_open_ = false;
  bool window_closed_ = false;
  OsCounters os_at_open_;
  std::uint64_t kicks_at_open_ = 0;
  std::uint64_t parks_at_open_ = 0;
  std::uint64_t send_limit_ = 0;
  std::uint64_t next_id_ = 0;
  TimeNs last_wire_sample_ = 0;
  std::vector<bool> seen_;

  // Traced phase: per message id, its send buffer, node, stamp (the due
  // time in the open loop) and send start; arrivals in receive order.
  std::vector<std::uint32_t> send_buffer_;
  std::vector<NodeId> send_node_;
  std::vector<TimeNs> send_stamp_;
  std::vector<TimeNs> send_start_;
  std::vector<Arrival> arrivals_;

  PhaseStats stats_;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// The q-quantile of `values`, interpolated between neighbours; 0 when empty.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

double UsAt(std::vector<std::int64_t>& ns, double q) { return Percentile(ns, q) * 1e-3; }
double UsAt(const LatencyHistogram& ns, double q) { return ns.Percentile(q) * 1e-3; }

// The end-to-end figures of a window, each its slices' value at the better
// quartile (the lower one for times and CPU, the upper one for the rate).
// Host noise, a vCPU descheduled or time-shared with another guest, only
// ever makes a slice worse. It came in episodes that covered most of a
// run, and a slice median followed it once more than half the slices were
// hit; the better quartile holds until three quarters are.
struct WindowFigures {
  double oneway_p50_us = 0;
  double oneway_p99_us = 0;
  double msgs_per_s = 0;
  double cpu_us_per_msg = 0;
};

WindowFigures SliceFigures(const PhaseStats& s) {
  std::vector<double> p50, p99, rate, cpu;
  for (const PhaseStats::Slice& slice : s.slices) {
    if (slice.received == 0) {
      continue;
    }
    p50.push_back(UsAt(slice.oneway, 0.50));
    p99.push_back(UsAt(slice.oneway, 0.99));
    rate.push_back(Ratio(static_cast<double>(slice.received), slice.seconds));
    cpu.push_back(Ratio((slice.os.user_s + slice.os.sys_s) * 1e6,
                        static_cast<double>(slice.received)));
  }
  return {Quantile(p50, 0.25), Quantile(p99, 0.25), Quantile(rate, 0.75), Quantile(cpu, 0.25)};
}

// `check_rate`: the open loop must deliver its offered rate over the
// window. Only the long untraced window is held to it; the traced window
// is a couple of seconds, where one host stall near its end could leave
// more than 1% in flight.
void AddChecks(const WorkloadSpec& spec, const PhaseStats& s, const std::string& phase,
               bool check_rate, std::vector<Check>* checks) {
  const auto add = [&](const std::string& name, bool ok, const std::string& detail) {
    checks->push_back({phase + "." + name, ok, detail});
  };
  const auto n = [](std::uint64_t v) { return std::to_string(v); };
  add("progress", s.stalls == 0 && s.repost_failures == 0,
      "stalls=" + n(s.stalls) + " repost_failures=" + n(s.repost_failures));
  add("order", s.bad_order == 0, "out-of-order=" + n(s.bad_order));
  add("duplicates", s.duplicates == 0, "duplicates=" + n(s.duplicates));
  add("checksum", s.bad_checksum == 0, "bad=" + n(s.bad_checksum));
  add("source", s.bad_source == 0, "misaddressed=" + n(s.bad_source));
  add("conservation", s.drained && s.received + s.dropped + s.refused == s.attempted,
      "received=" + n(s.received) + " dropped=" + n(s.dropped) + " refused=" + n(s.refused) +
          " attempted=" + n(s.attempted));
  add("drops_match_engine", s.dropped == s.engine.drops_no_buffer,
      "sink=" + n(s.dropped) + " engine=" + n(s.engine.drops_no_buffer));
  add("telemetry_audit", s.audit_mismatches == 0,
      "mismatched endpoints=" + std::to_string(s.audit_mismatches));
  if (spec.rate_per_s > 0 && check_rate) {
    const double delivered = Ratio(static_cast<double>(s.window_received), s.window_s);
    add("offered_rate", std::fabs(delivered / spec.rate_per_s - 1.0) <= 0.01,
        "delivered=" + std::to_string(delivered) + "/s");
  }
}

}  // namespace

bool KnownWorkload(const std::string& name) { return FindWorkload(name) != nullptr; }

Report RunBenchmark(const RunConfig& config) {
  Report report;
  const WorkloadSpec& spec = *FindWorkload(config.workload);
  const PayloadPool payloads(config.seed,
                             spec.message_size - flipc::shm::kMsgHeaderSize - sizeof(MessageHeader));
  const std::uint32_t posted =
      config.inject == Inject::kShortSink ? kShortSinkBuffers : spec.sink_buffers;
  const double untraced_s = config.trace ? config.seconds / 2 : config.seconds;
  const double warmup_s = std::min(0.5, untraced_s / 4);

  std::string error;
  const auto setup_failed = [&] {
    report.checks.push_back({"setup", false, error});
    return report;
  };

  // Each set-up is timed with the process held on one CPU, so the engine
  // threads Start() creates begin there too. Unpinned, each new thread
  // lands on an idle vCPU that the hypervisor must wake first, and that
  // wake cost, not FLIPC's, set the figure. The set-ups take turns over
  // the allowed CPUs: their costs differed by up to 40% from CPU to CPU,
  // so a run held on the CPU it started on carried that CPU's cost. The
  // measured run's rig is built afterwards, unpinned and untimed.
  std::vector<double> setup_s;
  if (!config.trace) {
    cpu_set_t allowed;
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &allowed)) {
          cpus.push_back(cpu);
        }
      }
    }
    const TimeNs budget_end = NowNs() + kSetupBudgetNs;
    while (setup_s.size() < kSetupMaxRepeats &&
           (setup_s.size() < kSetupMinRepeats || NowNs() < budget_end)) {
      if (!cpus.empty()) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus[setup_s.size() % cpus.size()], &one);
        (void)sched_setaffinity(0, sizeof(one), &one);
      }
      Rig timed;
      const TimeNs t0 = NowNs();
      if (!BuildRig(spec, posted, 0, &timed, &error)) {
        return setup_failed();
      }
      setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    }
    if (!cpus.empty()) {
      (void)sched_setaffinity(0, sizeof(allowed), &allowed);
    }
  }
  auto rig = std::make_unique<Rig>();
  if (!BuildRig(spec, posted, 0, rig.get(), &error)) {
    return setup_failed();
  }
  PhaseStats u = Phase(spec, config, payloads, *rig, false).Run(warmup_s, untraced_s);
  rig.reset();
  AddChecks(spec, u, "run", config.inject != Inject::kShortSink, &report.checks);
  report.attempted = u.attempted;
  report.failed = u.refused + u.dropped + u.IntegrityFailures();

  const WindowFigures e2e = SliceFigures(u);
  LatencyHistogram window;
  for (const PhaseStats::Slice& slice : u.slices) {
    window.Merge(slice.oneway);
  }
  const double oneway_p50_us = UsAt(window, 0.50);
  const double msgs = static_cast<double>(u.window_received);
  const double loss_ratio = Ratio(static_cast<double>(u.refused + u.dropped + u.IntegrityFailures()),
                                  static_cast<double>(u.attempted));
  report.detail = {
      {"oneway_samples", static_cast<double>(window.count()), "count"},
      {"window_s", u.window_s, "s"},
      {"window_slices", static_cast<double>(u.slices.size()), "count"},
      {"window_messages", msgs, "count"},
      {"window_oneway_p50_us", oneway_p50_us, "us"},
      {"window_oneway_p99_us", UsAt(window, 0.99), "us"},
      {"window_msgs_per_s", Ratio(msgs, u.window_s), "msgs/s"},
      {"setup_repeats", static_cast<double>(setup_s.size()), "count"},
      {"loss_ratio", loss_ratio, "ratio"},
  };

  if (!config.trace) {
    report.metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"oneway_p50_us", e2e.oneway_p50_us, "us"},
        {"oneway_p99_us", e2e.oneway_p99_us, "us"},
        {"msgs_per_s", e2e.msgs_per_s, "msgs/s"},
        {"cpu_us_per_msg", e2e.cpu_us_per_msg, "us/msg"},
    };
    return report;
  }

  // Traced phase: per-call timings, wire depth and the stage table.
  auto traced_rig = std::make_unique<Rig>();
  const std::size_t ring_capacity = 2 * kTracedMessages + 2 * posted + 1024;
  if (!BuildRig(spec, posted, ring_capacity, traced_rig.get(), &error)) {
    return setup_failed();
  }
  PhaseStats t =
      Phase(spec, config, payloads, *traced_rig, true).Run(std::min(0.05, warmup_s), untraced_s);
  traced_rig.reset();
  AddChecks(spec, t, "traced", /*check_rate=*/false, &report.checks);
  report.checks.push_back(
      {"traced.trace_complete",
       !t.trace_wrapped && t.trace_unmatched == 0 && t.trace_disordered == 0 && t.trace_left == 0,
       "wrapped=" + std::to_string(t.trace_wrapped) +
           " unmatched=" + std::to_string(t.trace_unmatched) +
           " disordered=" + std::to_string(t.trace_disordered) +
           " left=" + std::to_string(t.trace_left)});
  report.attempted += t.attempted;
  report.failed += t.refused + t.dropped + t.IntegrityFailures();

  const double traced_p50_us = UsAt(t.traced_oneway_ns, 0.50);
  const double trace_overhead_us = traced_p50_us - oneway_p50_us;
  const double r2t = UsAt(t.release_to_transmit_ns, 0.50);
  const double t2d = UsAt(t.transmit_to_deliver_ns, 0.50);
  const double d2a = UsAt(t.deliver_to_acquire_ns, 0.50);
  const double stage_sum_gap_us = r2t + t2d + d2a - traced_p50_us;
  report.detail.push_back({"traced_oneway_p50_us", traced_p50_us, "us"});
  report.detail.push_back({"traced_samples", static_cast<double>(t.traced_oneway_ns.size()), "count"});
  report.detail.push_back({"stage_sum_gap_us", stage_sum_gap_us, "us"});
  if (spec.pingpong) {
    // Closed loop with one message in flight: the stages of a message add
    // up to its one-way time, so their medians must add up to the traced
    // median within what tracing itself costs (floored at the clock's
    // read cost, so a near-zero overhead estimate cannot fail the run).
    const double tolerance_us = std::max(std::fabs(trace_overhead_us), kStageSumFloorUs);
    report.checks.push_back({"traced.stage_sum", std::fabs(stage_sum_gap_us) <= tolerance_us,
                             "gap=" + std::to_string(stage_sum_gap_us) +
                                 "us tolerance=" + std::to_string(tolerance_us) + "us"});
  }

  // Counters come from the untraced half, timings from the traced one.
  const double delivered = static_cast<double>(u.engine.messages_delivered);
  report.metrics = {
      {"flipc.send_ns_p50", Percentile(t.send_ns, 0.50), "ns"},
      {"flipc.send_ns_p99", Percentile(t.send_ns, 0.99), "ns"},
      {"flipc.receive_ns_p50", Percentile(t.receive_ns, 0.50), "ns"},
      {"flipc.post_ns_p50", Percentile(t.post_ns, 0.50), "ns"},
      {"flipc.reclaim_ns_p50", Percentile(t.reclaim_ns, 0.50), "ns"},
      {"flipc.empty_polls_per_msg", Ratio(static_cast<double>(u.empty_polls), msgs), "polls/msg"},
      {"flipc.send_refused_ratio",
       Ratio(static_cast<double>(u.refused), static_cast<double>(u.attempted)), "ratio"},
      {"shm.doorbell_full_ratio",
       Ratio(static_cast<double>(u.doorbell_full), static_cast<double>(u.doorbell_rings)), "ratio"},
      {"shm.rx_depth_high_water", static_cast<double>(u.rx_high_water), "count"},
      {"engine.visits_per_msg", Ratio(static_cast<double>(u.engine.endpoints_visited), delivered),
       "visits/msg"},
      {"engine.sweeps_no_candidate_per_msg",
       Ratio(static_cast<double>(u.engine.sweeps_no_candidate), delivered), "sweeps/msg"},
      {"engine.batch_mean",
       Ratio(static_cast<double>(u.engine.batched_messages),
             static_cast<double>(u.engine.transmit_batches)), "msgs/batch"},
      {"engine.work_units_per_msg", Ratio(static_cast<double>(u.engine.work_units), delivered),
       "units/msg"},
      {"engine.doorbell_dups_per_msg", Ratio(static_cast<double>(u.engine.doorbell_dups), delivered),
       "dups/msg"},
      {"engine.drops_no_buffer_ratio",
       Ratio(static_cast<double>(u.engine.drops_no_buffer),
             static_cast<double>(u.engine.messages_sent)), "ratio"},
      {"engine.kicks_per_msg", Ratio(static_cast<double>(u.kicks), msgs), "kicks/msg"},
      {"engine.parks_per_msg", Ratio(static_cast<double>(u.parks), msgs), "parks/msg"},
      {"simnet.wire_depth_p99", Percentile(t.wire_depth, 0.99), "packets"},
      {"stage.release_to_transmit_us_p50", r2t, "us"},
      {"stage.release_to_transmit_us_p99", UsAt(t.release_to_transmit_ns, 0.99), "us"},
      {"stage.transmit_to_deliver_us_p50", t2d, "us"},
      {"stage.transmit_to_deliver_us_p99", UsAt(t.transmit_to_deliver_ns, 0.99), "us"},
      {"stage.deliver_to_acquire_us_p50", d2a, "us"},
      {"stage.deliver_to_acquire_us_p99", UsAt(t.deliver_to_acquire_ns, 0.99), "us"},
      {"os.vcsw_per_msg", Ratio(u.os.vcsw, msgs), "switches/msg"},
      {"os.ivcsw_per_msg", Ratio(u.os.ivcsw, msgs), "switches/msg"},
      {"os.sys_share", Ratio(u.os.sys_s, u.os.user_s + u.os.sys_s), "ratio"},
      {"harness.gen_late_p99_us", UsAt(u.gen_late, 0.99), "us"},
      {"harness.trace_overhead_us", trace_overhead_us, "us"},
      {"loss_ratio", loss_ratio, "ratio"},
  };
  return report;
}

}  // namespace perfbench
