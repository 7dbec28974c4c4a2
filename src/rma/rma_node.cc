#include "src/rma/rma_node.h"

#include <cstring>

#include "src/base/log.h"

namespace flipc::rma {

RmaNode::RmaNode(engine::MessagingEngine& engine) : engine_(engine) {
  const Status status = engine_.RegisterProtocol(simnet::kProtocolRma, this);
  if (!status.ok()) {
    FLIPC_LOG(kError) << "rma: protocol registration failed: " << status.ToString();
  }
}

RmaNode::~RmaNode() { (void)engine_.RegisterProtocol(simnet::kProtocolRma, nullptr); }

// ------------------------------- Owner side ---------------------------------

Result<std::uint32_t> RmaNode::ExportWindow(std::byte* base, std::size_t size) {
  if (base == nullptr || size == 0) {
    return InvalidArgumentStatus();
  }
  ScopedLock<std::mutex> guard(mutex_);
  const std::uint32_t id = next_window_++;
  windows_[id] = Window{base, size};
  return id;
}

Status RmaNode::UnexportWindow(std::uint32_t window_id) {
  ScopedLock<std::mutex> guard(mutex_);
  return windows_.erase(window_id) != 0 ? OkStatus() : NotFoundStatus();
}

// ------------------------------- Client side --------------------------------

Result<std::uint64_t> RmaNode::Write(NodeId node, std::uint32_t window, std::uint64_t offset,
                                     const void* data, std::size_t size) {
  if (data == nullptr || size == 0 ||
      size > engine_.wire_for_protocols().MaxPayload() - kRmaHeaderSize) {
    return InvalidArgumentStatus();
  }
  ScopedLock<std::mutex> lock(mutex_);
  const std::uint64_t token = next_token_++;
  operations_[token] = Operation{};
  lock.Release();

  simnet::Packet packet;
  packet.dst_node = node;
  packet.protocol = simnet::kProtocolRma;
  packet.kind = kRmaWrite;
  packet.seq = token;
  const RmaHeader header{window, offset, size};
  packet.payload.resize(kRmaHeaderSize + size);
  std::memcpy(packet.payload.data(), &header, kRmaHeaderSize);
  std::memcpy(packet.payload.data() + kRmaHeaderSize, data, size);
  {
    ScopedLock<std::mutex> guard(mutex_);
    outgoing_.push_back(std::move(packet));
  }
  return token;
}

Result<std::uint64_t> RmaNode::Read(NodeId node, std::uint32_t window, std::uint64_t offset,
                                    void* dst, std::size_t size) {
  if (dst == nullptr || size == 0 || size > engine_.wire_for_protocols().MaxPayload()) {
    return InvalidArgumentStatus();
  }
  ScopedLock<std::mutex> lock(mutex_);
  const std::uint64_t token = next_token_++;
  Operation op;
  op.read_dst = dst;
  op.read_size = size;
  operations_[token] = op;
  lock.Release();

  simnet::Packet packet;
  packet.dst_node = node;
  packet.protocol = simnet::kProtocolRma;
  packet.kind = kRmaRead;
  packet.seq = token;
  const RmaHeader header{window, offset, size};
  packet.payload.resize(kRmaHeaderSize);
  std::memcpy(packet.payload.data(), &header, kRmaHeaderSize);
  {
    ScopedLock<std::mutex> guard(mutex_);
    outgoing_.push_back(std::move(packet));
  }
  return token;
}

Status RmaNode::Poll(std::uint64_t token) const {
  ScopedLock<std::mutex> guard(mutex_);
  auto it = operations_.find(token);
  if (it == operations_.end()) {
    return NotFoundStatus();
  }
  switch (it->second.state) {
    case OpState::kInFlight:
      return UnavailableStatus();
    case OpState::kDone:
      return OkStatus();
    case OpState::kRejected:
      return PermissionDeniedStatus();
  }
  return InternalStatus();
}

// ----------------------------- Engine-facing --------------------------------

bool RmaNode::HasWork() const {
  ScopedLock<std::mutex> guard(mutex_);
  // A head packet whose wire ring is full is no work yet: reporting it
  // would spin the engine. The receiver's un-stall kick wakes it.
  return !outgoing_.empty() &&
         engine_.wire_for_protocols().FreeSlots(0, outgoing_.front().dst_node) != 0;
}

bool RmaNode::PollWork(simnet::CostAccumulator& cost) {
  ScopedLock<std::mutex> lock(mutex_);
  if (outgoing_.empty()) {
    return false;
  }
  simnet::Packet packet = std::move(outgoing_.front());
  outgoing_.pop_front();
  lock.Release();
  const std::uint64_t token = packet.seq;
  const std::size_t payload_size = packet.payload.size();
  // Transmit, not Send: a refused packet must survive the call.
  const Status status = engine_.wire_for_protocols().Transmit(
      /*lane=*/0, packet, packet.payload.data(), payload_size);
  if (status.code() == StatusCode::kUnavailable) {
    // Full wire ring: keep the packet at the head so requests and replies
    // leave in order.
    ScopedLock<std::mutex> guard(mutex_);
    outgoing_.push_front(std::move(packet));
    return false;
  }
  if (const auto* model = engine_.model_for_protocols(); model != nullptr) {
    cost.Charge(model->send_overhead_ns +
                static_cast<DurationNs>(payload_size) / 4);  // DMA setup + stream
  }
  if (!status.ok()) {
    ScopedLock<std::mutex> guard(mutex_);
    auto it = operations_.find(token);
    if (it != operations_.end()) {
      it->second.state = OpState::kRejected;
      ++stats_.operations_failed;
    }
  }
  return true;
}

DurationNs RmaNode::PlanCost(const simnet::Packet& packet) const {
  const auto* model = engine_.model_for_protocols();
  if (model == nullptr) {
    return 0;
  }
  // Inbound handling: request validation plus the memory copy the engine
  // performs on behalf of the remote node.
  return model->recv_overhead_ns + model->RecvCopyNs(packet.payload.size());
}

void RmaNode::HandlePacket(simnet::Packet packet, simnet::CostAccumulator& cost) {
  switch (packet.kind) {
    case kRmaWrite:
    case kRmaRead: {
      RmaHeader header;
      if (packet.payload.size() < kRmaHeaderSize) {
        ++stats_.requests_rejected;
        return;
      }
      std::memcpy(&header, packet.payload.data(), kRmaHeaderSize);

      simnet::Packet reply;
      reply.dst_node = packet.src_node;
      reply.protocol = simnet::kProtocolRma;
      reply.seq = packet.seq;

      ScopedLock<std::mutex> guard(mutex_);
      auto it = windows_.find(header.window);
      const bool in_bounds = it != windows_.end() &&
                             header.offset + header.length <= it->second.size &&
                             header.offset + header.length >= header.offset;
      if (!in_bounds) {
        ++stats_.requests_rejected;
        reply.kind = kRmaReject;
      } else if (packet.kind == kRmaWrite) {
        if (packet.payload.size() - kRmaHeaderSize < header.length) {
          ++stats_.requests_rejected;
          reply.kind = kRmaReject;
        } else {
          std::memcpy(it->second.base + header.offset,
                      packet.payload.data() + kRmaHeaderSize, header.length);
          ++stats_.writes_served;
          reply.kind = kRmaWriteAck;
        }
      } else if (header.length > engine_.wire_for_protocols().MaxPayload()) {
        // The reply would not fit the wire; a client on this fabric
        // cannot ask for it (Read checks), so the request is malformed.
        ++stats_.requests_rejected;
        reply.kind = kRmaReject;
      } else {
        ++stats_.reads_served;
        reply.kind = kRmaReadReply;
        reply.payload.assign(it->second.base + header.offset,
                             it->second.base + header.offset + header.length);
        if (const auto* model = engine_.model_for_protocols(); model != nullptr) {
          cost.Charge(model->RecvCopyNs(header.length));
        }
      }
      const Status status = engine_.wire_for_protocols().Transmit(
          /*lane=*/0, reply, reply.payload.data(), reply.payload.size());
      if (status.code() == StatusCode::kUnavailable) {
        // Full wire ring: the reply joins the outgoing queue, which
        // PollWork retries, instead of being lost with its operation.
        outgoing_.push_back(std::move(reply));
      } else if (!status.ok()) {
        FLIPC_LOG(kWarning) << "rma: failed to reply to node " << packet.src_node;
      }
      return;
    }

    case kRmaWriteAck:
    case kRmaReadReply:
    case kRmaReject: {
      ScopedLock<std::mutex> guard(mutex_);
      auto it = operations_.find(packet.seq);
      if (it == operations_.end()) {
        FLIPC_LOG(kWarning) << "rma: stray completion token " << packet.seq;
        return;
      }
      if (packet.kind == kRmaReject) {
        it->second.state = OpState::kRejected;
        ++stats_.operations_failed;
        return;
      }
      if (packet.kind == kRmaReadReply && it->second.read_dst != nullptr) {
        const std::size_t n = packet.payload.size() < it->second.read_size
                                  ? packet.payload.size()
                                  : it->second.read_size;
        std::memcpy(it->second.read_dst, packet.payload.data(), n);
      }
      it->second.state = OpState::kDone;
      ++stats_.operations_completed;
      return;
    }

    default:
      FLIPC_LOG(kWarning) << "rma: unknown packet kind " << packet.kind;
  }
}

}  // namespace flipc::rma
