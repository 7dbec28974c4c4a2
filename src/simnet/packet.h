// The inter-node packet carried by a fabric.
//
// FLIPC's optimistic transport sends each fixed-size message as exactly one
// packet with no acknowledgment or feedback; the packet header carries the
// protocol id (the Paragon message coprocessor ran several protocols in one
// framework — FLIPC coexisted with the OSF/1 AD protocols) plus source and
// destination endpoint addresses.
#ifndef SRC_SIMNET_PACKET_H_
#define SRC_SIMNET_PACKET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/base/types.h"

namespace flipc::simnet {

// Protocol ids multiplexed over one fabric (the engine's protocol framework
// dispatches on this).
inline constexpr std::uint32_t kProtocolFlipc = 1;
inline constexpr std::uint32_t kProtocolKkt = 2;
inline constexpr std::uint32_t kProtocolKernelIpc = 3;  // stand-in for OSF/1 AD traffic
inline constexpr std::uint32_t kProtocolBaseline = 4;   // NX/PAM/SUNMOS models
inline constexpr std::uint32_t kProtocolRma = 5;        // remote memory access extension

// Modeled wire overhead per packet (routing header, CRC); counts toward
// serialization time but is not part of the payload.
inline constexpr std::size_t kPacketWireHeaderBytes = 16;

// The fixed-size part of a packet. Split out so a wire can carry it beside
// a payload that never leaves the sender's buffer until the copy into the
// wire (Wire::Transmit).
struct PacketHeader {
  NodeId src_node = kInvalidNode;
  NodeId dst_node = kInvalidNode;
  std::uint32_t protocol = 0;
  std::uint32_t src_addr = 0xffffffffu;  // packed flipc::Address
  std::uint32_t dst_addr = 0xffffffffu;  // packed flipc::Address
  std::uint64_t seq = 0;                 // per-sender sequence / protocol token
  std::uint32_t kind = 0;                // protocol-specific discriminator
};

struct Packet : PacketHeader {
  std::vector<std::byte> payload;

  std::size_t wire_size() const { return payload.size() + kPacketWireHeaderBytes; }
};

}  // namespace flipc::simnet

#endif  // SRC_SIMNET_PACKET_H_
