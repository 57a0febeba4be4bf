// The fabric's zero-cost-when-disabled contract, asserted directly: with
// no metrics or span recorder attached, the reader fast path (pin ->
// lookups -> unpin) performs zero heap allocations, and the always-on
// flight recorder's record() never allocates at all.  The same counters
// check that an incremental epoch allocates in proportion to its dirty
// destinations, not to the table.
//
// Separate binary: overrides the global allocation functions with counting
// wrappers (one override per binary — test_release_alloc precedent).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>
#include <vector>

#include "core/downup_routing.hpp"
#include "fabric/manager.hpp"
#include "obs/flight_recorder.hpp"
#include "topology/generate.hpp"
#include "util/rng.hpp"

namespace {

std::atomic<bool> g_countAllocations{false};
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_allocatedBytes{0};

void* countedAlloc(std::size_t size) {
  if (g_countAllocations.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    g_allocatedBytes.fetch_add(size, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return countedAlloc(size); }
void* operator new[](std::size_t size) { return countedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace downup::fabric {
namespace {

TEST(FabricAllocTest, ReaderFastPathAllocatesNothingWithHooksDetached) {
  util::Rng topoRng(11);
  const topo::Topology topo =
      topo::randomIrregular(24, {.maxPorts = 4}, topoRng);
  fault::Reconfigurator reconf(topo);
  const std::vector<std::uint8_t> linksUp(topo.linkCount(), 1);
  const std::vector<std::uint8_t> nodesUp(topo.nodeCount(), 1);
  const fault::ReconfigOutcome baseline = reconf.rebuild(linksUp, nodesUp);

  FabricManager fm(topo, *baseline.table);  // no metrics, no spans
  Reader reader = fm.makeReader();

  const auto round = [&] {
    std::uint64_t sink = 0;
    for (int batch = 0; batch < 100; ++batch) {
      PinnedSnapshot pin = fm.acquire(reader);
      for (topo::NodeId src = 0; src < topo.nodeCount(); ++src) {
        const auto dst =
            static_cast<topo::NodeId>((src + 7) % topo.nodeCount());
        sink ^= pin.table().firstChannels(src, dst).size();
        sink ^= pin.table().distance(src, dst);
      }
    }
    return sink;
  };

  round();  // warm-up: any lazy one-time growth happens here
  g_allocations.store(0, std::memory_order_relaxed);
  g_countAllocations.store(true, std::memory_order_relaxed);
  const std::uint64_t sink = round();
  g_countAllocations.store(false, std::memory_order_relaxed);
  asm volatile("" : : "g"(&sink) : "memory");

  EXPECT_EQ(g_allocations.load(), 0u)
      << "reader pin/lookup/unpin allocated with hooks detached";
}

TEST(FabricAllocTest, FlightRecorderRecordNeverAllocates) {
  obs::FlightRecorder rec(64);
  g_allocations.store(0, std::memory_order_relaxed);
  g_countAllocations.store(true, std::memory_order_relaxed);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    rec.record(obs::FabricEventKind::kTransitionPosted, i, 0, i & 7, 1);
  }
  g_countAllocations.store(false, std::memory_order_relaxed);

  EXPECT_EQ(g_allocations.load(), 0u) << "flight recorder record() allocated";
  EXPECT_EQ(rec.recorded(), 1000u);
}

TEST(FabricAllocTest, OracleViolationAnomalyRecordNeverAllocates) {
  // The gate's violation path in the fabric ends in exactly this record()
  // call; an allocating anomaly report would be the worst possible time to
  // touch the heap.
  obs::FlightRecorder rec(64);
  g_allocations.store(0, std::memory_order_relaxed);
  g_countAllocations.store(true, std::memory_order_relaxed);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    rec.record(obs::FabricEventKind::kAnomaly, i,
               static_cast<std::uint64_t>(obs::AnomalyCode::kOracleViolation),
               /*epoch=*/i & 15, 0);
  }
  g_countAllocations.store(false, std::memory_order_relaxed);

  EXPECT_EQ(g_allocations.load(), 0u) << "anomaly record() allocated";
  EXPECT_EQ(rec.recorded(), 1000u);
}

/// Heap bytes allocated, by any thread, while `fn` runs.
template <class Fn>
std::uint64_t bytesAllocatedBy(Fn&& fn) {
  g_allocatedBytes.store(0, std::memory_order_relaxed);
  g_countAllocations.store(true, std::memory_order_relaxed);
  fn();
  g_countAllocations.store(false, std::memory_order_relaxed);
  return g_allocatedBytes.load(std::memory_order_relaxed);
}

TEST(FabricAllocTest, IncrementalEpochAllocatesForDirtyDestinationsOnly) {
  util::Rng topoRng(5);
  const topo::Topology topo =
      topo::randomIrregular(512, {.maxPorts = 4}, topoRng);
  util::Rng treeRng(6);
  const routing::Routing healthy = core::buildDownUp(
      topo, tree::CoordinatedTree::build(
                topo, tree::TreePolicy::kM1SmallestFirst, treeRng));

  // The link whose failure dirties the fewest destinations.
  const auto maskWithout = [&topo](topo::LinkId dead) {
    std::vector<std::uint64_t> alive((topo.channelCount() + 63) / 64, 0);
    for (topo::ChannelId c = 0; c < topo.channelCount(); ++c) {
      if (topo::Topology::linkOf(c) != dead) {
        alive[c >> 6] |= std::uint64_t{1} << (c & 63);
      }
    }
    return alive;
  };
  topo::LinkId victim = 0;
  std::uint32_t fewest = topo.nodeCount();
  for (topo::LinkId l = 0; l < topo.linkCount(); ++l) {
    const std::uint32_t dirty =
        healthy.table().dirtyDestinationCount(maskWithout(l));
    if (dirty < fewest) {
      fewest = dirty;
      victim = l;
    }
  }
  ASSERT_LT(fewest, topo.nodeCount() / 20);
  const std::vector<std::uint64_t> alive = maskWithout(victim);

  const std::uint64_t fullBytes = bytesAllocatedBy([&] {
    const routing::RoutingTable full =
        routing::RoutingTable::build(healthy.permissions());
    asm volatile("" : : "g"(&full) : "memory");
  });
  std::optional<routing::RoutingTable> incremental;
  const std::uint64_t incrementalBytes = bytesAllocatedBy([&] {
    incremental = routing::RoutingTable::rebuildDead(healthy.table(), nullptr,
                                                     alive);
  });
  ASSERT_TRUE(incremental.has_value());
  EXPECT_TRUE(incremental->identicalTo(
      routing::RoutingTable::build(healthy.permissions(), nullptr, alive)));
  EXPECT_GT(fullBytes, 0u);
  EXPECT_LT(incrementalBytes * 20, fullBytes)
      << fewest << " dirty destinations: " << incrementalBytes
      << " bytes incremental vs " << fullBytes << " bytes full";
}

}  // namespace
}  // namespace downup::fabric
