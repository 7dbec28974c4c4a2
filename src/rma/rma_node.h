// Remote memory access — the paper's second future-work item.
//
// "As part of this work, we are considering extensions that allow
// applications to indirectly access memory on other nodes [16]; some
// related ideas can be found in the SUNMOS, PAM, and Illinois Fast
// Messages systems."  Reference [16] is Thekkath et al.'s "Separating Data
// and Control Transfer in Distributed Operating Systems" — the data moves
// without involving the remote application.
//
// RmaNode implements that as a protocol in the messaging engine's
// framework (it coexists with FLIPC traffic on the same coprocessor, the
// way the paper's engine ran several protocols):
//
//   * the OWNER exports windows — spans of its memory a remote node may
//     read or write; the engine services requests directly, the owning
//     application is never scheduled;
//   * a CLIENT issues one-sided Read/Write operations and polls a token
//     for completion (no interrupts, matching FLIPC's real-time stance).
//
// Protection mirrors FLIPC's: window ids and bounds are validated by the
// engine on every request; out-of-range accesses are rejected and counted,
// never performed.
#ifndef SRC_RMA_RMA_NODE_H_
#define SRC_RMA_RMA_NODE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <vector>

#include "src/base/status.h"
#include "src/base/thread_annotations.h"
#include "src/engine/messaging_engine.h"

namespace flipc::rma {

// Packet.kind values for the RMA protocol.
inline constexpr std::uint32_t kRmaWrite = 1;
inline constexpr std::uint32_t kRmaWriteAck = 2;
inline constexpr std::uint32_t kRmaRead = 3;
inline constexpr std::uint32_t kRmaReadReply = 4;
inline constexpr std::uint32_t kRmaReject = 5;

// Request header carried at the front of the packet payload.
struct RmaHeader {
  std::uint32_t window;
  std::uint64_t offset;
  std::uint64_t length;
};
inline constexpr std::size_t kRmaHeaderSize = sizeof(RmaHeader);

struct RmaStats {
  std::uint64_t writes_served = 0;
  std::uint64_t reads_served = 0;
  std::uint64_t requests_rejected = 0;  // bad window / out-of-bounds
  std::uint64_t operations_completed = 0;
  std::uint64_t operations_failed = 0;
};

class RmaNode final : public engine::ProtocolHandler {
 public:
  // Registers itself with the engine's protocol framework; `engine` must
  // be a node's distributor (shard 0).
  explicit RmaNode(engine::MessagingEngine& engine);
  ~RmaNode() override;
  RmaNode(const RmaNode&) = delete;
  RmaNode& operator=(const RmaNode&) = delete;

  // ---- Owner side ----

  // Exports [base, base+size) for remote access; returns the window id the
  // owner hands to clients out of band. The memory must outlive the window.
  Result<std::uint32_t> ExportWindow(std::byte* base, std::size_t size);
  Status UnexportWindow(std::uint32_t window_id);

  // ---- Client side (one-sided operations) ----

  // An operation travels in one wire packet, so its size is bounded by
  // the engine wire's MaxPayload (the comm buffer's message_size on a
  // Cluster): a larger one fails with kInvalidArgument and is never sent.
  // A full wire ring only delays an operation; it stays queued here.

  // Copies `size` bytes (at most MaxPayload - kRmaHeaderSize) into the
  // remote window. Returns a completion token.
  Result<std::uint64_t> Write(NodeId node, std::uint32_t window, std::uint64_t offset,
                              const void* data, std::size_t size);

  // Fetches `size` bytes (at most MaxPayload) from the remote window into
  // `dst` (which must stay valid until completion).
  Result<std::uint64_t> Read(NodeId node, std::uint32_t window, std::uint64_t offset,
                             void* dst, std::size_t size);

  // Operation state: kOk once complete, kUnavailable while in flight,
  // kPermissionDenied if the owner rejected it, kNotFound for unknown
  // tokens.
  Status Poll(std::uint64_t token) const;

  const RmaStats& stats() const { return stats_; }

  // ---- ProtocolHandler (engine-facing) ----
  void HandlePacket(simnet::Packet packet, simnet::CostAccumulator& cost) override;
  bool PollWork(simnet::CostAccumulator& cost) override;
  bool HasWork() const override;
  DurationNs PlanCost(const simnet::Packet& packet) const override;

 private:
  struct Window {
    std::byte* base = nullptr;
    std::size_t size = 0;
  };

  enum class OpState { kInFlight, kDone, kRejected };

  struct Operation {
    OpState state = OpState::kInFlight;
    void* read_dst = nullptr;
    std::size_t read_size = 0;
  };

  engine::MessagingEngine& engine_;
  // The application thread issues operations while the engine thread
  // services them (under the DES both run on one thread and the lock is
  // uncontended).
  mutable std::mutex mutex_;
  std::map<std::uint32_t, Window> windows_ FLIPC_GUARDED_BY(mutex_);
  std::uint32_t next_window_ FLIPC_GUARDED_BY(mutex_) = 1;

  std::deque<simnet::Packet> outgoing_ FLIPC_GUARDED_BY(mutex_);
  std::map<std::uint64_t, Operation> operations_ FLIPC_GUARDED_BY(mutex_);
  std::uint64_t next_token_ FLIPC_GUARDED_BY(mutex_) = 1;
  RmaStats stats_ FLIPC_GUARDED_BY(mutex_);
};

}  // namespace flipc::rma

#endif  // SRC_RMA_RMA_NODE_H_
