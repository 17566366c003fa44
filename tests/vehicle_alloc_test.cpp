// Heap allocations on the idle vehicle's frame path.
//
// This binary replaces the global operator new/delete with a counting
// pair, which is why it is a test executable of its own.  Every ECU of the
// two-bus vehicle encodes its periodic messages and decodes what it
// receives through handles into the shared target-vehicle database; once
// the vehicle has warmed up, none of that may touch the heap.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "sim/scheduler.hpp"
#include "vehicle/vehicle.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

// Out of line so GCC does not misread the free() inside the replaced
// operator delete as a new/free mismatch.
[[gnu::noinline]] void release(void* block) noexcept { std::free(block); }

}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
  throw std::bad_alloc();
}

void operator delete(void* block) noexcept { release(block); }
void operator delete(void* block, std::size_t) noexcept { release(block); }

namespace acf::vehicle {
namespace {

TEST(VehicleAllocation, IdleVehicleMakesNoHeapAllocations) {
  sim::Scheduler scheduler;
  Vehicle car(scheduler);
  scheduler.run_until(sim::SimTime{std::chrono::seconds(1)});  // warm-up

  const std::uint64_t frames_before =
      car.powertrain_bus().stats().frames_delivered + car.body_bus().stats().frames_delivered;
  g_allocations.store(0);
  g_counting.store(true);
  scheduler.run_until(sim::SimTime{std::chrono::seconds(3)});
  g_counting.store(false);
  const std::uint64_t frames =
      car.powertrain_bus().stats().frames_delivered + car.body_bus().stats().frames_delivered -
      frames_before;

  EXPECT_GT(frames, 400u);  // the window really carried the idle traffic
  EXPECT_GT(car.cluster().rpm_gauge(), 0.0);
  EXPECT_EQ(g_allocations.load(), 0u) << "over " << frames << " frames";
}

}  // namespace
}  // namespace acf::vehicle
