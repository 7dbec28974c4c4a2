// Engine-side wait-free SPSC rings: one lap-tag protocol, two slot stores.
//
//   * SpscHandoffRing<T> — the engine-to-engine handoff ring. With the
//     sharded engine (DESIGN.md §12) each planner owns one endpoint range.
//     Inbound packets all arrive at the distributor shard (the one shard
//     that polls the node's wire, preserving the fabric's per-(src,dst)
//     FIFO order), and packets destined for another shard's endpoints are
//     handed off through one of these rings — one ring per consumer shard,
//     with the distributor as the only producer.
//   * SpscByteRing — fixed-size byte slots over caller-owned memory. The
//     thread fabric's wire (src/simnet/fabric.h) keeps one per (sending
//     planner, destination node): the sending planner copies a frame
//     straight into its slot and the destination's distributor copies it
//     out, so a packet costs no allocation and no lock.
//
// Both are thin stores over SpscLapRing, which carries the whole protocol.
// It reuses the doorbell ring's lap-tag idiom (doorbell_ring.h): slot
// validity is carried by a producer-published tag cell per slot, never by a
// consumer-written flag, so every shared word keeps exactly one writer:
//
//   * handoff_tail and the slot tags are written only by the PRODUCER;
//   * handoff_head is written only by the CONSUMER;
//   * the two cursors live on separate cache lines (the false-sharing rule
//     applies across engines exactly as it does across the app/engine
//     boundary).
//
// Unlike the MPSC doorbell ring there is no RMW anywhere: with a single
// producer the slot claim is a plain private counter, so both sides are
// loads and stores only — the engine-side discipline the paper's controllers
// require. And unlike doorbells, ring entries are not hints: an entry is
// the only copy of that message. A full ring therefore refuses the claim
// instead of dropping, and the producer keeps the message (the distributor
// parks its packet; a wire sender leaves the message at the head of its
// send queue). The consumer's release reports whether the ring was full
// before it, so the consumer can wake a producer that stalled on it
// (bounded memory, order preserved, liveness restored by the consumer's
// progress — see MessagingEngine's route-retry path and ThreadFabric).
//
// Both sides run under the shard-qualified engine role
// (FLIPC_ROLE_ENGINE_SHARD): statically they are engine-side writers; at run
// time the cells are declared with their owning shard id, so a planner that
// writes another shard's cursor aborts under FLIPC_CHECK_SINGLE_WRITER.
#ifndef SRC_WAITFREE_HANDOFF_RING_H_
#define SRC_WAITFREE_HANDOFF_RING_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/base/hotpath.h"
#include "src/base/types.h"
#include "src/waitfree/boundary_check.h"
#include "src/waitfree/single_writer.h"

namespace flipc::waitfree {

// Cursor block, one cache line per writing side.
struct alignas(kCacheLineSize) HandoffCursors {
  // --- Producer line ---
  // Published producer position (introspection / PendingCount). The
  // producer's authoritative position is its private counter; this cell
  // mirrors it for readers.
  SingleWriterCell<std::uint32_t> handoff_tail;

  // --- Consumer line ---
  alignas(kCacheLineSize) SingleWriterCell<std::uint32_t> handoff_head;

  // Registers the cursors with the ownership race detector, qualified by
  // the owning shards (no-op unless FLIPC_CHECK_SINGLE_WRITER).
  void DeclareOwners(std::uint32_t producer_shard, std::uint32_t consumer_shard) {
    handoff_tail.DeclareOwner(Writer::kEngine, producer_shard,
                              "HandoffCursors.handoff_tail");
    handoff_head.DeclareOwner(Writer::kEngine, consumer_shard,
                              "HandoffCursors.handoff_head");
  }
};
static_assert(sizeof(HandoffCursors) == 2 * kCacheLineSize);

// The lap-tag SPSC protocol. It hands out slot indices; the store that
// wraps it owns the slots. Producer: ClaimSlot, fill the slot, PublishSlot.
// Consumer: PeekSlot, read the slot, ReleaseSlot. Capacity is rounded up
// to a power of two. Lives in engine host memory — it never crosses the
// app boundary; construction is off the hot path.
class SpscLapRing {
 public:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  static std::uint32_t RoundedCapacity(std::uint32_t capacity) {
    std::uint32_t cap = 2;
    while (cap < capacity) {
      cap <<= 1;
    }
    return cap;
  }

  // `tags`: RoundedCapacity(capacity) value-initialized cells the caller
  // keeps alive for the ring's lifetime, or nullptr for the ring to own
  // its own. (Zeroed tags: lap tag 0 never matches.)
  SpscLapRing(SingleWriterCell<std::uint32_t>* tags, std::uint32_t capacity,
              std::uint32_t producer_shard, std::uint32_t consumer_shard)
      : capacity_(RoundedCapacity(capacity)), mask_(capacity_ - 1) {
    for (std::uint32_t cap = capacity_; (cap >>= 1) != 0;) {
      ++shift_;
    }
    if (tags == nullptr) {
      // Cells are neither copyable nor movable (they wrap an atomic), so
      // the owned array is a value-initialized unique_ptr array.
      owned_tags_ = std::make_unique<SingleWriterCell<std::uint32_t>[]>(capacity_);
      tags = owned_tags_.get();
    }
    tags_ = tags;
    cursors_.DeclareOwners(producer_shard, consumer_shard);
    for (std::uint32_t i = 0; i < capacity_; ++i) {
      tags_[i].DeclareOwner(Writer::kEngine, producer_shard, "HandoffRing.slot_tags");
    }
  }

  ~SpscLapRing() {
    // Declarations are keyed by address; drop them before the heap reuses
    // this storage.
    UndeclareCellRange(&cursors_, sizeof(cursors_));
    UndeclareCellRange(tags_, capacity_ * sizeof(tags_[0]));
  }

  SpscLapRing(const SpscLapRing&) = delete;
  SpscLapRing& operator=(const SpscLapRing&) = delete;

  std::uint32_t capacity() const { return capacity_; }

  // ====================== Producer only ====================================

  // Slots the producer can certainly fill before a claim is refused. A
  // lower bound — the head is cached and only the consumer frees slots —
  // that reaches 0 only when the ring really is full.
  FLIPC_ROLE_ENGINE_SHARD std::uint32_t FreeSlots() {
    if (tail_pos_ - head_seen_ >= capacity_) {
      // Re-read the consumer's cursor only when the cached view is full,
      // so a producer that keeps ahead of a busy consumer touches the
      // consumer's cache line once per lap, not once per entry. Acquire
      // pairs with the consumer's head Publish: observing the advanced head
      // also orders the consumer's read of the slot this producer is about
      // to overwrite.
      head_seen_ = cursors_.handoff_head.Read();
    }
    return capacity_ - (tail_pos_ - head_seen_);
  }

  // Index of the slot to fill next, or kNoSlot when the ring is full.
  // Wait-free: one bounded attempt, loads only.
  FLIPC_ROLE_ENGINE_SHARD std::uint32_t ClaimSlot() {
    return FreeSlots() == 0 ? kNoSlot : tail_pos_ & mask_;
  }

  // Publishes the slot the last ClaimSlot returned. Stores only.
  FLIPC_ROLE_ENGINE_SHARD void PublishSlot() {
    const std::uint32_t pos = tail_pos_;
    // Release-publishing the tag makes the slot contents visible to the
    // consumer; the tail mirror is for introspection only.
    tags_[pos & mask_].Publish(ExpectedTag(pos));
    tail_pos_ = pos + 1;
    cursors_.handoff_tail.Publish(tail_pos_);
  }

  // ====================== Consumer only ====================================

  // Index of the published slot at the head, or kNoSlot when the ring is
  // empty. Wait-free: loads only.
  FLIPC_ROLE_ENGINE_SHARD std::uint32_t PeekSlot() const {
    const std::uint32_t head = cursors_.handoff_head.ReadRelaxed();
    // Acquire pairs with the producer's tag Publish (orders the slot data).
    if (tags_[head & mask_].Read() != ExpectedTag(head)) {
      return kNoSlot;  // Slot not yet published for this lap: ring empty.
    }
    return head & mask_;
  }

  // Returns the slot PeekSlot named to the producer. Returns true when the
  // ring was full before this release — the producer may have stalled on
  // it and needs a wakeup. Loads and stores only.
  FLIPC_ROLE_ENGINE_SHARD bool ReleaseSlot() {
    const std::uint32_t head = cursors_.handoff_head.ReadRelaxed();
    // Full before this release <=> the producer has published position
    // head + capacity - 1, which lives in the slot just behind the head.
    // Read it BEFORE publishing the head: afterwards the producer may
    // legitimately fill that position and the check would misfire.
    const bool was_full =
        tags_[(head - 1) & mask_].Read() == ExpectedTag(head + capacity_ - 1);
    // Release-publishing the head returns the slot to the producer and
    // orders the read-out above before any producer reuse.
    cursors_.handoff_head.Publish(head + 1);
    return was_full;
  }

  // True when a published entry is waiting at the head (consumer-accurate;
  // other readers see a racy hint).
  bool HasPending() const {
    const std::uint32_t head = cursors_.handoff_head.ReadRelaxed();
    return tags_[head & mask_].Read() == ExpectedTag(head);
  }

  // ==================== Introspection (any thread) =========================

  // Entries published and not yet released. The tail mirror is published
  // after the tag, so a consumer can release an entry whose mirror has not
  // landed yet: read the head first and clamp, so a racing reader sees a
  // count that is at most one stale, never a wrapped one.
  std::uint32_t PendingCount() const {
    const std::uint32_t head = cursors_.handoff_head.Read();
    const std::uint32_t tail = cursors_.handoff_tail.Read();
    const std::uint32_t pending = tail - head;
    return pending > capacity_ ? 0 : pending;
  }

 private:
  // Lap tag for position `pos`: lap number + 1, so a zero-initialized tag
  // never matches any expected tag (same construction as the doorbell
  // ring's cell tags).
  std::uint32_t ExpectedTag(std::uint32_t pos) const { return (pos >> shift_) + 1; }

  HandoffCursors cursors_{};
  std::unique_ptr<SingleWriterCell<std::uint32_t>[]> owned_tags_;
  SingleWriterCell<std::uint32_t>* tags_ = nullptr;
  // Producer-private: its position (the shared handoff_tail mirrors it)
  // and the last consumer head it read.
  std::uint32_t tail_pos_ = 0;
  std::uint32_t head_seen_ = 0;
  std::uint32_t capacity_ = 0;
  std::uint32_t mask_ = 0;
  std::uint32_t shift_ = 0;
};

// Owning SPSC handoff ring carrying T by move. T must be cheap to move and
// moved-from-empty (the engine instantiates it with simnet::Packet, whose
// payload vector moves without allocating).
template <typename T>
class SpscHandoffRing {
 public:
  explicit SpscHandoffRing(std::uint32_t capacity,
                           std::uint32_t producer_shard = kShardAny,
                           std::uint32_t consumer_shard = kShardAny)
      : ring_(nullptr, capacity, producer_shard, consumer_shard), slots_(ring_.capacity()) {}

  SpscHandoffRing(const SpscHandoffRing&) = delete;
  SpscHandoffRing& operator=(const SpscHandoffRing&) = delete;

  std::uint32_t capacity() const { return ring_.capacity(); }

  // Producer: pushes `value`, or returns false (value untouched) when the
  // ring is full.
  FLIPC_ROLE_ENGINE_SHARD bool Push(T& value) {
    FLIPC_HOT_PATH("SpscHandoffRing::Push");
    const std::uint32_t slot = ring_.ClaimSlot();
    if (slot == SpscLapRing::kNoSlot) {
      return false;
    }
    slots_[slot] = std::move(value);
    ring_.PublishSlot();
    return true;
  }

  // Consumer: moves the next entry into `*out` and returns true, or returns
  // false when the ring is empty.
  FLIPC_ROLE_ENGINE_SHARD bool Pop(T* out) {
    FLIPC_HOT_PATH("SpscHandoffRing::Pop");
    const std::uint32_t slot = ring_.PeekSlot();
    if (slot == SpscLapRing::kNoSlot) {
      return false;
    }
    *out = std::move(slots_[slot]);
    ring_.ReleaseSlot();
    return true;
  }

  bool HasPending() const { return ring_.HasPending(); }
  std::uint32_t PendingCount() const { return ring_.PendingCount(); }

 private:
  SpscLapRing ring_;
  std::vector<T> slots_;
};

// SPSC ring of fixed-size byte slots over caller-owned storage: `tags`
// (SpscLapRing::RoundedCapacity(capacity) value-initialized cells) and
// `storage` (that many slots of slot_bytes each). The ring never
// initialises the slot storage — slot validity lives in the tags — so
// untouched pages of an anonymous mapping stay unfaulted until a frame
// lands there.
class SpscByteRing {
 public:
  SpscByteRing(SingleWriterCell<std::uint32_t>* tags, std::byte* storage,
               std::uint32_t capacity, std::size_t slot_bytes,
               std::uint32_t producer_shard = kShardAny,
               std::uint32_t consumer_shard = kShardAny)
      : ring_(tags, capacity, producer_shard, consumer_shard),
        storage_(storage),
        slot_bytes_(slot_bytes) {}

  SpscByteRing(const SpscByteRing&) = delete;
  SpscByteRing& operator=(const SpscByteRing&) = delete;

  std::uint32_t capacity() const { return ring_.capacity(); }

  // Producer: slots left before Claim refuses.
  FLIPC_ROLE_ENGINE_SHARD std::uint32_t FreeSlots() { return ring_.FreeSlots(); }

  // Producer: the next free slot (slot_bytes writable bytes), or nullptr
  // when the ring is full. Fill it, then Publish.
  FLIPC_ROLE_ENGINE_SHARD std::byte* Claim() {
    const std::uint32_t slot = ring_.ClaimSlot();
    return slot == SpscLapRing::kNoSlot ? nullptr : storage_ + slot * slot_bytes_;
  }
  FLIPC_ROLE_ENGINE_SHARD void Publish() { ring_.PublishSlot(); }

  // Consumer: the published slot at the head, or nullptr when empty. Read
  // it, then Release (true: the ring was full and the producer may need a
  // wakeup).
  FLIPC_ROLE_ENGINE_SHARD const std::byte* Peek() const {
    const std::uint32_t slot = ring_.PeekSlot();
    return slot == SpscLapRing::kNoSlot ? nullptr : storage_ + slot * slot_bytes_;
  }
  FLIPC_ROLE_ENGINE_SHARD bool Release() { return ring_.ReleaseSlot(); }

  bool HasPending() const { return ring_.HasPending(); }
  std::uint32_t PendingCount() const { return ring_.PendingCount(); }

 private:
  SpscLapRing ring_;
  std::byte* storage_;
  std::size_t slot_bytes_;
};

}  // namespace flipc::waitfree

#endif  // SRC_WAITFREE_HANDOFF_RING_H_
