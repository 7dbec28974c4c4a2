// Tests for the public API layer (Domain, Endpoint, EndpointGroup,
// MessageBuffer) over a simulated cluster.
#include <memory>

#include <gtest/gtest.h>

#include "src/flipc/flipc.h"

namespace flipc {
namespace {

std::unique_ptr<SimCluster> TwoNodes() {
  SimCluster::Options options;
  options.node_count = 2;
  options.comm.message_size = 128;
  options.comm.buffer_count = 64;
  options.comm.max_endpoints = 16;
  auto cluster = SimCluster::Create(std::move(options));
  EXPECT_TRUE(cluster.ok());
  return std::move(cluster).value();
}

// ---------------------------------- Domain ----------------------------------

TEST(Domain, CreateValidatesNodeId) {
  Domain::Options options;
  options.node = 0x10000;
  EXPECT_FALSE(Domain::Create(options).ok());
}

TEST(Domain, BufferLifecycle) {
  auto cluster = TwoNodes();
  Domain& d = cluster->domain(0);
  auto buffer = d.AllocateBuffer();
  ASSERT_TRUE(buffer.ok());
  EXPECT_TRUE(buffer->valid());
  EXPECT_EQ(buffer->size(), 120u);  // 128 - 8-byte internal header

  auto same = d.BufferFromIndex(buffer->index());
  ASSERT_TRUE(same.ok());
  EXPECT_EQ(same->data(), buffer->data());

  EXPECT_TRUE(d.FreeBuffer(*buffer).ok());
  EXPECT_FALSE(d.BufferFromIndex(99999).ok());
}

TEST(MessageBuffer, WriteReadTyped) {
  auto cluster = TwoNodes();
  auto buffer = cluster->domain(0).AllocateBuffer();
  ASSERT_TRUE(buffer.ok());

  struct Track {
    double x, y, z;
    std::uint32_t id;
  };
  Track* track = buffer->As<Track>();
  ASSERT_NE(track, nullptr);
  *track = {1.0, 2.0, 3.0, 42};
  Track copy{};
  ASSERT_TRUE(buffer->Read(&copy, sizeof(copy)));
  EXPECT_EQ(copy.id, 42u);

  // Oversized access fails cleanly.
  char big[256] = {};
  EXPECT_FALSE(buffer->Write(big, sizeof(big)));
  EXPECT_FALSE(buffer->Read(big, sizeof(big)));
  struct Huge {
    char bytes[4096];
  };
  EXPECT_EQ(buffer->As<Huge>(), nullptr);
}

// --------------------------------- Endpoint ---------------------------------

TEST(Endpoint, FiveStepTransfer) {
  auto cluster = TwoNodes();
  Domain& a = cluster->domain(0);
  Domain& b = cluster->domain(1);

  auto rx = b.CreateEndpoint({.type = shm::EndpointType::kReceive});
  auto tx = a.CreateEndpoint({.type = shm::EndpointType::kSend});
  ASSERT_TRUE(rx.ok() && tx.ok());

  // Step 1: receiver provides a buffer.
  auto rx_buf = b.AllocateBuffer();
  ASSERT_TRUE(rx_buf.ok());
  ASSERT_TRUE(rx->PostBuffer(*rx_buf).ok());

  // Step 2: sender queues the message.
  auto msg = a.AllocateBuffer();
  ASSERT_TRUE(msg.ok());
  msg->Write("track-update", 13);
  ASSERT_TRUE(tx->Send(*msg, rx->address()).ok());

  // Step 3: the engine moves it.
  cluster->sim().Run();

  // Step 4: receiver removes it.
  auto received = rx->Receive();
  ASSERT_TRUE(received.ok());
  EXPECT_STREQ(reinterpret_cast<const char*>(received->data()), "track-update");
  EXPECT_EQ(received->peer(), tx->address());
  EXPECT_TRUE(received->completed());

  // Step 5: sender recovers its buffer.
  auto reclaimed = tx->Reclaim();
  ASSERT_TRUE(reclaimed.ok());
  EXPECT_EQ(reclaimed->index(), msg->index());
}

TEST(Endpoint, TypeChecked) {
  auto cluster = TwoNodes();
  Domain& a = cluster->domain(0);
  auto rx = a.CreateEndpoint({.type = shm::EndpointType::kReceive});
  auto tx = a.CreateEndpoint({.type = shm::EndpointType::kSend});
  ASSERT_TRUE(rx.ok() && tx.ok());
  auto buffer = a.AllocateBuffer();
  ASSERT_TRUE(buffer.ok());

  EXPECT_EQ(rx->Send(*buffer, tx->address()).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(tx->PostBuffer(*buffer).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(rx->Reclaim().status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(tx->Receive().status().code(), StatusCode::kFailedPrecondition);
}

TEST(Endpoint, SendRejectsInvalidDestination) {
  auto cluster = TwoNodes();
  Domain& a = cluster->domain(0);
  auto tx = a.CreateEndpoint({.type = shm::EndpointType::kSend});
  auto buffer = a.AllocateBuffer();
  ASSERT_TRUE(tx.ok() && buffer.ok());
  EXPECT_EQ(tx->Send(*buffer, Address::Invalid()).code(), StatusCode::kInvalidArgument);
}

TEST(Endpoint, QueueFullIsUnavailable) {
  auto cluster = TwoNodes();
  Domain& a = cluster->domain(0);
  auto tx = a.CreateEndpoint({.type = shm::EndpointType::kSend, .queue_depth = 2});
  ASSERT_TRUE(tx.ok());
  const Address dst(1, 0);

  // Fill the queue without running the engine.
  for (int i = 0; i < 2; ++i) {
    auto buffer = a.AllocateBuffer();
    ASSERT_TRUE(buffer.ok());
    ASSERT_TRUE(tx->SendUnlocked(*buffer, dst).ok());
  }
  auto extra = a.AllocateBuffer();
  ASSERT_TRUE(extra.ok());
  EXPECT_EQ(tx->SendUnlocked(*extra, dst).code(), StatusCode::kUnavailable);
  EXPECT_EQ(tx->QueuedCount(), 2u);
}

TEST(Endpoint, DropCounterVisibleToApplication) {
  auto cluster = TwoNodes();
  Domain& a = cluster->domain(0);
  Domain& b = cluster->domain(1);
  auto rx = b.CreateEndpoint({.type = shm::EndpointType::kReceive});
  auto tx = a.CreateEndpoint({.type = shm::EndpointType::kSend});
  ASSERT_TRUE(rx.ok() && tx.ok());

  for (int i = 0; i < 3; ++i) {
    auto msg = a.AllocateBuffer();
    ASSERT_TRUE(msg.ok());
    ASSERT_TRUE(tx->Send(*msg, rx->address()).ok());
    cluster->sim().Run();
    ASSERT_TRUE(tx->Reclaim().ok());
  }
  EXPECT_EQ(rx->DropCount(), 3u);
  EXPECT_EQ(rx->ReadAndResetDrops(), 3u);
  EXPECT_EQ(rx->DropCount(), 0u);
}

TEST(Endpoint, CountsAndCapacity) {
  auto cluster = TwoNodes();
  Domain& b = cluster->domain(1);
  auto rx = b.CreateEndpoint({.type = shm::EndpointType::kReceive, .queue_depth = 8});
  ASSERT_TRUE(rx.ok());
  EXPECT_EQ(rx->queue_capacity(), 8u);
  auto buffer = b.AllocateBuffer();
  ASSERT_TRUE(buffer.ok());
  ASSERT_TRUE(rx->PostBuffer(*buffer).ok());
  EXPECT_EQ(rx->QueuedCount(), 1u);
  EXPECT_EQ(rx->ReadyCount(), 0u);
  EXPECT_EQ(rx->ProcessedCount(), 0u);
}

TEST(Endpoint, DestroyRequiresDrain) {
  auto cluster = TwoNodes();
  Domain& a = cluster->domain(0);
  auto tx = a.CreateEndpoint({.type = shm::EndpointType::kSend});
  ASSERT_TRUE(tx.ok());
  auto buffer = a.AllocateBuffer();
  ASSERT_TRUE(buffer.ok());
  ASSERT_TRUE(tx->SendUnlocked(*buffer, Address(1, 0)).ok());
  Endpoint handle = *tx;
  EXPECT_EQ(a.DestroyEndpoint(handle).code(), StatusCode::kFailedPrecondition);

  cluster->sim().Run();
  ASSERT_TRUE(handle.Reclaim().ok());
  EXPECT_TRUE(a.DestroyEndpoint(handle).ok());
  EXPECT_FALSE(handle.valid());
}

// ------------------------------ EndpointGroup --------------------------------

TEST(EndpointGroup, ReceiveScansAllMembers) {
  auto cluster = TwoNodes();
  Domain& a = cluster->domain(0);
  Domain& b = cluster->domain(1);

  auto group = EndpointGroup::Create(b);
  ASSERT_TRUE(group.ok());
  Domain::EndpointOptions member_options;
  member_options.type = shm::EndpointType::kReceive;
  member_options.group = group->get();
  auto rx1 = b.CreateEndpoint(member_options);
  auto rx2 = b.CreateEndpoint(member_options);
  ASSERT_TRUE(rx1.ok() && rx2.ok());
  EXPECT_EQ((*group)->member_count(), 2u);

  for (auto* rx : {&*rx1, &*rx2}) {
    auto buffer = b.AllocateBuffer();
    ASSERT_TRUE(buffer.ok());
    ASSERT_TRUE(rx->PostBuffer(*buffer).ok());
  }

  auto tx = a.CreateEndpoint({.type = shm::EndpointType::kSend});
  ASSERT_TRUE(tx.ok());
  // Send one message to each member.
  for (auto* rx : {&*rx1, &*rx2}) {
    auto msg = a.AllocateBuffer();
    ASSERT_TRUE(msg.ok());
    ASSERT_TRUE(tx->Send(*msg, rx->address()).ok());
  }
  cluster->sim().Run();

  auto first = (*group)->Receive();
  auto second = (*group)->Receive();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  // Round-robin fairness: the two receives came from different members.
  EXPECT_FALSE(first->endpoint == second->endpoint);
  EXPECT_EQ((*group)->Receive().status().code(), StatusCode::kUnavailable);
}

TEST(EndpointGroup, RemoveMemberStopsScanning) {
  auto cluster = TwoNodes();
  Domain& b = cluster->domain(1);
  auto group = EndpointGroup::Create(b);
  ASSERT_TRUE(group.ok());
  Domain::EndpointOptions member_options;
  member_options.type = shm::EndpointType::kReceive;
  member_options.group = group->get();
  auto rx = b.CreateEndpoint(member_options);
  ASSERT_TRUE(rx.ok());
  EXPECT_EQ((*group)->member_count(), 1u);
  (*group)->RemoveMember(*rx);
  EXPECT_EQ((*group)->member_count(), 0u);
}

// ---------------------------- Call profile (E11) -----------------------------

TEST(CallProfile, TracksMessagingVsBufferManagement) {
  auto cluster = TwoNodes();
  Domain& a = cluster->domain(0);
  Domain& b = cluster->domain(1);

  auto rx = b.CreateEndpoint({.type = shm::EndpointType::kReceive});
  auto tx = a.CreateEndpoint({.type = shm::EndpointType::kSend});
  ASSERT_TRUE(rx.ok() && tx.ok());

  auto rx_buf = b.AllocateBuffer();  // alloc (b)
  ASSERT_TRUE(rx_buf.ok());
  ASSERT_TRUE(rx->PostBuffer(*rx_buf).ok());  // post (b)
  auto msg = a.AllocateBuffer();  // alloc (a)
  ASSERT_TRUE(msg.ok());
  ASSERT_TRUE(tx->Send(*msg, rx->address()).ok());  // send (a)
  cluster->sim().Run();
  ASSERT_TRUE(rx->Receive().ok());   // receive (b)
  ASSERT_TRUE(tx->Reclaim().ok());   // reclaim (a)

  EXPECT_EQ(a.comm().ApiCallProfile().messaging, 1u);          // send
  EXPECT_EQ(a.comm().ApiCallProfile().buffer_management, 2u);  // alloc + reclaim
  EXPECT_EQ(b.comm().ApiCallProfile().messaging, 1u);          // receive
  EXPECT_EQ(b.comm().ApiCallProfile().buffer_management, 2u);  // alloc + post
}

}  // namespace
}  // namespace flipc
