// Steady-state zero-allocation test.
//
// After warm-up, forwarding a datagram across a 4-node chain must not touch
// the heap: packet payloads come from the block pool, frames are encoded
// into recycled buffers, the channel reuses transmission records, timers
// recycle slab slots, and every scheduled closure fits std::function's
// small-buffer optimisation. This test replaces the global allocator with a
// counting shim and asserts the count stays at zero across a measurement
// window of end-to-end datagrams.
//
// A second case does the same for the beacon receive path: a neighbour's
// repeated beacon, answered from the routing table's repeat memo.
//
// The test lives in its own binary: the counting operator new/delete
// replacement is global to the executable, and no other test should pay for
// it (or accidentally depend on it).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "net/packet.h"
#include "phy/path_loss.h"
#include "radio/virtual_radio.h"
#include "testbed/scenario.h"
#include "testbed/topology.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size != 0 ? size : 1);
}

void* counted_aligned_alloc(std::size_t size, std::size_t alignment) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = nullptr;
  if (posix_memalign(&p, alignment, size != 0 ? size : alignment) != 0) {
    return nullptr;
  }
  return p;
}

// Out of line so GCC cannot inline free() into a `new T` call site and
// report the replaced new/delete pair as mismatched.
[[gnu::noinline]] void counted_free(void* p) noexcept { std::free(p); }

}  // namespace

void* operator new(std::size_t size) {
  void* p = counted_alloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) {
  void* p = counted_alloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t al) {
  void* p = counted_aligned_alloc(size, static_cast<std::size_t>(al));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size, std::align_val_t al) {
  void* p = counted_aligned_alloc(size, static_cast<std::size_t>(al));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new(std::size_t size, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t size, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, static_cast<std::size_t>(al));
}

void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { counted_free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { counted_free(p); }
// The sized forms take the size before the alignment; the radios and node
// blocks of a scenario are over-aligned, so these do get called.
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  counted_free(p);
}

namespace lm::testbed {
namespace {

struct DeliveryLog {
  std::size_t delivered = 0;
  std::uint8_t last_hops = 0;
  bool all_sends_accepted = true;
};

ScenarioConfig cfg() {
  ScenarioConfig c;
  c.seed = 7;
  c.propagation = radio::PropagationConfig::free_space();
  c.mesh.hello_interval = Duration::seconds(10);
  c.mesh.duty_cycle_limit = 1.0;
  // Forwarding with jitter schedules a closure that captures the packet,
  // which overflows std::function's small buffer. The zero-alloc guarantee
  // holds for the jitter-free configuration.
  c.mesh.forward_jitter = Duration::zero();
  return c;
}

TEST(SteadyStateAllocation, ChainForwardingIsAllocationFreeAfterWarmUp) {
  MeshScenario s(cfg());
  s.add_nodes(chain(4, 100.0));
  // Free space at 100 m spacing decodes everywhere; block the shortcut
  // links (radio ids are index + 1) to force the 3-hop chain 0-1-2-3.
  s.channel().block_link(1, 3);
  s.channel().block_link(1, 4);
  s.channel().block_link(2, 4);

  DeliveryLog log;
  s.node(3).set_datagram_handler(
      [&log](net::Address, const std::vector<std::uint8_t>&,
             std::uint8_t hops) {
        ++log.delivered;
        log.last_hops = hops;
      });

  s.start_all();
  ASSERT_TRUE(s.run_until_converged(Duration::minutes(5)).has_value());

  // Warm-up: the same traffic profile we will measure, so every pool,
  // queue, slab and scratch buffer reaches its steady capacity.
  const net::Address sink = s.address_of(3);
  for (int i = 0; i < 8; ++i) {
    std::vector<std::uint8_t> payload(24, static_cast<std::uint8_t>(i));
    ASSERT_TRUE(s.node(0).send_datagram(sink, std::move(payload)));
    s.run_for(Duration::seconds(5));
  }
  // Datagrams are unacked; the odd one may collide with a hello beacon.
  // Enough must get through to prove every pool on the path is warm.
  ASSERT_GE(log.delivered, 6u);
  ASSERT_EQ(log.last_hops, 3u);
  const std::size_t warmed = log.delivered;

  // Build the measured payloads outside the counting window; moving them
  // into send_datagram transfers the buffer without allocating.
  std::vector<std::vector<std::uint8_t>> payloads;
  for (int i = 0; i < 16; ++i) {
    payloads.emplace_back(24, static_cast<std::uint8_t>(0xA0 + i));
  }

  g_allocs.store(0);
  g_counting.store(true);
  for (auto& payload : payloads) {
    log.all_sends_accepted =
        log.all_sends_accepted && s.node(0).send_datagram(sink, std::move(payload));
    s.run_for(Duration::seconds(5));
  }
  g_counting.store(false);

  EXPECT_TRUE(log.all_sends_accepted);
  EXPECT_GE(log.delivered - warmed, 12u);
  EXPECT_EQ(log.last_hops, 3u);
  EXPECT_EQ(g_allocs.load(), 0u)
      << "steady-state forwarding touched the heap " << g_allocs.load()
      << " times";
}

TEST(SteadyStateAllocation, RepeatedBeaconReceptionIsAllocationFree) {
  // A bare radio next to two nodes replays one neighbour's beacon: after
  // two identical ones every node answers it from the repeat memo, and
  // that reception, like the frame's trip through the channel, must not
  // touch the heap.
  ScenarioConfig c = cfg();
  c.mesh.hello_interval = Duration::hours(1);  // the replayed beacon only
  MeshScenario s(c);
  s.add_nodes(chain(2, 100.0));
  radio::VirtualRadio beaconer(s.simulator(), s.channel(), 100, {50.0, 50.0},
                               c.radio);
  s.start_all();

  net::RoutingPacket beacon;
  beacon.link = net::LinkHeader{net::kBroadcast, 0x0064};
  beacon.entries = {{0x0064, 0}, {0x0065, 1}, {0x0066, 2}};
  const std::vector<std::uint8_t> frame = net::encode(net::Packet{beacon});
  const auto replay = [&] {
    ASSERT_TRUE(beaconer.transmit(frame));
    s.run_for(Duration::seconds(2));
  };
  // Warm-up: arms the memos, and takes the channel's record queue (which
  // compacts only once 32 retired records lead it) to its steady capacity.
  for (int i = 0; i < 40; ++i) replay();
  const std::uint64_t memo_before = s.node(0).routing_table().repeated_beacons();
  const std::uint64_t heard_before = s.node(1).stats().beacons_received;

  g_allocs.store(0);
  g_counting.store(true);
  for (int i = 0; i < 20; ++i) replay();
  g_counting.store(false);

  EXPECT_EQ(s.node(0).routing_table().repeated_beacons() - memo_before, 20u);
  EXPECT_EQ(s.node(1).stats().beacons_received - heard_before, 20u);
  EXPECT_EQ(g_allocs.load(), 0u)
      << "memo-answered beacon receptions touched the heap " << g_allocs.load()
      << " times";
}

}  // namespace
}  // namespace lm::testbed
