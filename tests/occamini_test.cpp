#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "instrument/memory_tracker.hpp"
#include "instrument/rank_env.hpp"
#include "instrument/timer.hpp"
#include "occamini/device.hpp"

namespace {

using occamini::Array;
using occamini::Backend;
using occamini::Device;
using occamini::Memory;

class DeviceBackendTest : public ::testing::TestWithParam<Backend> {};

TEST_P(DeviceBackendTest, RoundTripCopies) {
  Device device(GetParam());
  Memory mem = device.Malloc(64 * sizeof(double));
  std::vector<double> host(64);
  std::iota(host.begin(), host.end(), 0.0);
  mem.CopyFrom(host.data(), host.size() * sizeof(double));
  std::vector<double> back(64, -1.0);
  mem.CopyTo(back.data(), back.size() * sizeof(double));
  EXPECT_EQ(host, back);
}

TEST_P(DeviceBackendTest, OffsetCopies) {
  Device device(GetParam());
  Memory mem = device.Malloc(8 * sizeof(int));
  std::vector<int> zero(8, 0);
  mem.CopyFrom(zero.data(), zero.size() * sizeof(int));
  const int v = 42;
  mem.CopyFrom(&v, sizeof(int), 3 * sizeof(int));
  std::vector<int> out(8);
  mem.CopyTo(out.data(), out.size() * sizeof(int));
  EXPECT_EQ(out[3], 42);
  EXPECT_EQ(out[0], 0);
}

TEST_P(DeviceBackendTest, TransferStatsCount) {
  Device device(GetParam());
  Memory mem = device.Malloc(1024);
  std::vector<std::byte> buf(512);
  mem.CopyFrom(buf.data(), buf.size());
  mem.CopyTo(buf.data(), buf.size());
  mem.CopyTo(buf.data(), 256);
  const auto& stats = device.Transfers();
  EXPECT_EQ(stats.h2d_count, 1u);
  EXPECT_EQ(stats.h2d_bytes, 512u);
  EXPECT_EQ(stats.d2h_count, 2u);
  EXPECT_EQ(stats.d2h_bytes, 768u);
}

TEST_P(DeviceBackendTest, OutOfRangeCopyThrows) {
  Device device(GetParam());
  Memory mem = device.Malloc(16);
  std::vector<std::byte> buf(32);
  EXPECT_THROW(mem.CopyFrom(buf.data(), 32), std::out_of_range);
  EXPECT_THROW(mem.CopyTo(buf.data(), 8, 12), std::out_of_range);
}

INSTANTIATE_TEST_SUITE_P(Backends, DeviceBackendTest,
                         ::testing::Values(Backend::kSerial,
                                           Backend::kSimGpu));

TEST(DeviceTest, TracksAllocatedBytes) {
  Device device(Backend::kSimGpu);
  EXPECT_EQ(device.AllocatedBytes(), 0u);
  {
    Memory a = device.Malloc(100);
    Memory b = device.Malloc(50);
    EXPECT_EQ(device.AllocatedBytes(), 150u);
  }
  EXPECT_EQ(device.AllocatedBytes(), 0u);
}

TEST(DeviceTest, DeviceMemoryRegistersWithRankTracker) {
  instrument::RankEnv env;
  instrument::MemoryTracker& tracker = env.memory;
  Device device(Backend::kSimGpu);
  {
    instrument::RankScope scope(&env);
    Memory mem = device.Malloc(4096);
    EXPECT_EQ(tracker.CurrentBytes("device"), 4096u);
  }
  EXPECT_EQ(tracker.CurrentBytes("device"), 0u);
  EXPECT_EQ(tracker.PeakBytes("device"), 4096u);
}

TEST(DeviceTest, KernelLaunchCountsAndTimes) {
  Device device(Backend::kSerial);
  int calls = 0;
  device.Launch("axpy", [&] { ++calls; });
  device.Launch("axpy", [&] { ++calls; });
  device.Launch("mass", [&] { ++calls; });
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(device.Kernels().at("axpy").launches, 2u);
  EXPECT_EQ(device.Kernels().at("mass").launches, 1u);
  EXPECT_GE(device.Kernels().at("axpy").seconds, 0.0);
}

TEST(DeviceTest, TransferModelAddsSimulatedCost) {
  occamini::TransferModel model;
  model.latency_seconds = 1e-3;
  model.bytes_per_second = 1e9;
  Device device(Backend::kSimGpu, model);
  Memory mem = device.Malloc(1 << 20);
  std::vector<std::byte> buf(1 << 20);
  instrument::WallTimer timer;
  mem.CopyTo(buf.data(), buf.size());
  // latency 1 ms + ~1 MiB / 1 GB/s ~= 1 ms => at least 2 ms total.
  EXPECT_GE(timer.Elapsed(), 2e-3);
  EXPECT_GE(device.Transfers().d2h_seconds, 2e-3);
}

TEST(DeviceTest, TransferModelCostFormula) {
  occamini::TransferModel model{1e-3, 1e9};
  EXPECT_DOUBLE_EQ(model.Cost(0), 1e-3);
  EXPECT_DOUBLE_EQ(model.Cost(1000000000), 1e-3 + 1.0);
  occamini::TransferModel unthrottled;
  EXPECT_DOUBLE_EQ(unthrottled.Cost(1 << 30), 0.0);
}

TEST(DeviceTest, ResetStatsClearsCounters) {
  Device device(Backend::kSimGpu);
  Memory mem = device.Malloc(8);
  std::byte b{};
  mem.CopyTo(&b, 1);
  device.Launch("k", [] {});
  device.ResetStats();
  EXPECT_EQ(device.Transfers().d2h_count, 0u);
  EXPECT_TRUE(device.Kernels().empty());
}

TEST(ArrayTest, TypedCopies) {
  Device device(Backend::kSimGpu);
  Array<double> array(device, 32);
  EXPECT_EQ(array.size(), 32u);
  std::vector<double> host(32, 2.5);
  array.CopyFromHost(host);
  std::vector<double> back(32);
  array.CopyToHost(back);
  EXPECT_EQ(back, host);
}

TEST(ArrayTest, StageToHostLandsInTrackedBuffer) {
  Device device(Backend::kSimGpu);
  Array<double> array(device, 1024);
  std::vector<double> host(1024);
  for (std::size_t i = 0; i < host.size(); ++i) {
    host[i] = static_cast<double>(i);
  }
  array.CopyFromHost(host);

  instrument::RankEnv env;
  instrument::RankScope scope(&env);
  instrument::MemoryTracker& tracker = env.memory;
  core::ResetLocalBufferStats();
  const auto d2h_before = device.Transfers().d2h_count;
  core::Buffer staged = array.StageToHost("staging");

  // One D2H transfer; the host landing is a device stage, not a host copy.
  EXPECT_EQ(device.Transfers().d2h_count, d2h_before + 1);
  EXPECT_EQ(core::LocalBufferStats().device_stages, 1u);
  EXPECT_EQ(core::LocalBufferStats().full_copies, 0u);
  EXPECT_EQ(tracker.CurrentBytes("staging"), 1024 * sizeof(double));
  auto values = staged.As<double>();
  ASSERT_EQ(values.size(), 1024u);
  EXPECT_DOUBLE_EQ(values[1023], 1023.0);
}

TEST(ArrayTest, ElementOffsetCopies) {
  Device device(Backend::kSerial);
  Array<int> array(device, 10);
  std::vector<int> zero(10, 0);
  array.CopyFromHost(zero);
  std::vector<int> two{7, 8};
  array.CopyFromHost(two, 4);
  std::vector<int> out(10);
  array.CopyToHost(out);
  EXPECT_EQ(out[4], 7);
  EXPECT_EQ(out[5], 8);
}

TEST(ArrayTest, StageToHostIntoReusesUniqueRightSizedBuffer) {
  // The async pipeline's double-buffered staging leans on this contract:
  // re-staging into last round's slot reuses the allocation in place, so
  // steady-state snapshots allocate nothing.
  Device device(Backend::kSimGpu);
  Array<double> array(device, 64);
  array.CopyFromHost(std::vector<double>(64, 1.0));
  core::Buffer staged = array.StageToHost("staging");
  const std::byte* block = staged.data();

  array.CopyFromHost(std::vector<double>(64, 2.0));
  core::ResetLocalBufferStats();
  array.StageToHostInto(staged, "staging");
  EXPECT_EQ(staged.data(), block);  // reused in place
  EXPECT_EQ(core::LocalBufferStats().allocations, 0u);
  EXPECT_EQ(core::LocalBufferStats().device_stages, 1u);
  EXPECT_DOUBLE_EQ(staged.As<double>()[0], 2.0);

  // A shared handle forbids reuse: a downstream holder of last round's
  // view must never see this round's bytes.
  core::Buffer held = staged;
  array.CopyFromHost(std::vector<double>(64, 3.0));
  array.StageToHostInto(staged, "staging");
  EXPECT_NE(staged.data(), held.data());
  EXPECT_DOUBLE_EQ(held.As<double>()[0], 2.0);
  EXPECT_DOUBLE_EQ(staged.As<double>()[0], 3.0);

  // A wrong-sized destination (including empty) falls back to a fresh
  // allocation of the full field.
  core::Buffer empty;
  array.StageToHostInto(empty, "staging");
  EXPECT_EQ(empty.size(), 64 * sizeof(double));
  EXPECT_DOUBLE_EQ(empty.As<double>()[63], 3.0);
}

TEST(MemoryTest, NullMemoryThrows) {
  Memory mem;
  EXPECT_FALSE(mem.Valid());
  EXPECT_EQ(mem.Bytes(), 0u);
  std::byte b{};
  EXPECT_THROW(mem.CopyTo(&b, 1), std::runtime_error);
}

}  // namespace
