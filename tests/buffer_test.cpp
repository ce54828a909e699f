#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

#include "core/buffer.hpp"
#include "instrument/memory_tracker.hpp"
#include "instrument/rank_env.hpp"

namespace {

using core::Buffer;
using core::BufferChain;
using core::BufferView;
using core::kFullFieldBytes;

TEST(BufferTest, AllocatesZeroInitialized) {
  Buffer b("", 64);
  ASSERT_EQ(b.size(), 64u);
  EXPECT_FALSE(b.empty());
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_EQ(b[i], std::byte{0});
  }
}

TEST(BufferTest, DefaultBufferIsEmpty) {
  Buffer b;
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.size(), 0u);
  EXPECT_EQ(b.UseCount(), 0);
}

TEST(BufferTest, CopySharesBlockMoveTransfersIt) {
  Buffer a("", 128);
  a.bytes()[7] = std::byte{0x42};
  Buffer b = a;  // shares
  EXPECT_EQ(a.UseCount(), 2);
  EXPECT_EQ(b.data(), a.data());
  Buffer c = std::move(b);  // transfers
  EXPECT_EQ(a.UseCount(), 2);
  EXPECT_EQ(c[7], std::byte{0x42});
}

TEST(BufferTest, CopyOfCountsOneCopy) {
  std::vector<std::byte> src(kFullFieldBytes, std::byte{0xCD});
  core::ResetLocalBufferStats();
  Buffer b = Buffer::CopyOf("", src);
  EXPECT_EQ(core::LocalBufferStats().full_copies, 1u);
  EXPECT_EQ(core::LocalBufferStats().copied_bytes, src.size());
  EXPECT_EQ(b, std::span<const std::byte>(src));
}

TEST(BufferTest, SmallCopiesAreClassifiedSeparately) {
  std::vector<std::byte> small(8, std::byte{1});
  core::ResetLocalBufferStats();
  (void)Buffer::CopyOf("", small);
  EXPECT_EQ(core::LocalBufferStats().full_copies, 0u);
  EXPECT_EQ(core::LocalBufferStats().small_copies, 1u);
}

TEST(BufferTest, TakeVectorDoesNotCopy) {
  std::vector<std::byte> v(1 << 12, std::byte{0xEE});
  const std::byte* raw = v.data();
  core::ResetLocalBufferStats();
  Buffer b = Buffer::TakeVector("", std::move(v));
  EXPECT_EQ(b.data(), raw);
  EXPECT_EQ(core::LocalBufferStats().full_copies, 0u);
  EXPECT_EQ(core::LocalBufferStats().small_copies, 0u);
}

TEST(BufferTest, AdoptWrapsExternalStorage) {
  auto owner = std::make_shared<std::vector<std::byte>>(256, std::byte{9});
  core::ResetLocalBufferStats();
  Buffer b = Buffer::Adopt(owner, owner->data(), owner->size());
  EXPECT_EQ(b.data(), owner->data());
  EXPECT_GE(core::LocalBufferStats().adoptions, 1u);
  // The keepalive guards the bytes even if the original handle is dropped.
  std::weak_ptr<std::vector<std::byte>> weak = owner;
  owner.reset();
  EXPECT_FALSE(weak.expired());
  EXPECT_EQ(b[0], std::byte{9});
}

TEST(BufferTest, SliceSharesAndWindows) {
  Buffer b("", 100);
  b.bytes()[10] = std::byte{0xAA};
  Buffer s = b.Slice(10, 20);
  ASSERT_EQ(s.size(), 20u);
  EXPECT_EQ(s.data(), b.data() + 10);
  EXPECT_EQ(s[0], std::byte{0xAA});
  EXPECT_EQ(b.UseCount(), 2);
  EXPECT_THROW((void)b.Slice(90, 20), std::out_of_range);
}

TEST(BufferTest, AsChecksAlignmentAndDivisibility) {
  Buffer b("", 4 * sizeof(double));
  EXPECT_EQ(b.As<double>().size(), 4u);
  EXPECT_THROW((void)b.Slice(1, sizeof(double)).As<double>(),
               std::runtime_error);
  EXPECT_THROW((void)b.Slice(0, 7).As<double>(), std::runtime_error);
}

TEST(BufferTest, TracksMemoryByCategory) {
  instrument::RankEnv env;
  instrument::RankScope scope(&env);
  instrument::MemoryTracker& tracker = env.memory;
  {
    Buffer b("staging", 512);
    EXPECT_EQ(tracker.CurrentBytes("staging"), 512u);
    Buffer shared = b;  // sharing does not double-count
    EXPECT_EQ(tracker.CurrentBytes("staging"), 512u);
  }
  EXPECT_EQ(tracker.CurrentBytes("staging"), 0u);
  EXPECT_EQ(tracker.PeakBytes("staging"), 512u);
}

TEST(BufferTest, DetachTrackingReleasesTheBooks) {
  instrument::RankEnv env;
  instrument::RankScope scope(&env);
  instrument::MemoryTracker& tracker = env.memory;
  Buffer b("staging", 256);
  EXPECT_EQ(tracker.CurrentBytes("staging"), 256u);
  b.DetachTracking();
  EXPECT_EQ(tracker.CurrentBytes("staging"), 0u);
  // The bytes themselves remain usable after detach.
  b.bytes()[0] = std::byte{1};
  EXPECT_EQ(b[0], std::byte{1});
}

TEST(BufferTest, CloneIsADeepCountedCopy) {
  Buffer a("", kFullFieldBytes);
  a.bytes()[0] = std::byte{5};
  core::ResetLocalBufferStats();
  Buffer b = a.Clone("");
  EXPECT_NE(b.data(), a.data());
  EXPECT_EQ(b, a);
  EXPECT_EQ(core::LocalBufferStats().full_copies, 1u);
}

TEST(BufferChainTest, AppendsAndTotals) {
  Buffer a("", 10);
  Buffer b("", 20);
  BufferChain chain;
  EXPECT_TRUE(chain.Empty());
  chain.Append(BufferView(a));
  chain.Append(BufferView(b));
  EXPECT_EQ(chain.TotalBytes(), 30u);
  EXPECT_EQ(chain.Segments().size(), 2u);
  EXPECT_FALSE(chain.Contiguous());
}

TEST(BufferChainTest, PackGathersInOrder) {
  std::vector<std::byte> first{std::byte{1}, std::byte{2}};
  std::vector<std::byte> second{std::byte{3}};
  BufferChain chain;
  chain.Append(BufferView(Buffer::TakeVector("", std::move(first))));
  chain.Append(BufferView(Buffer::TakeVector("", std::move(second))));
  Buffer packed = chain.Pack("");
  ASSERT_EQ(packed.size(), 3u);
  EXPECT_EQ(packed[0], std::byte{1});
  EXPECT_EQ(packed[1], std::byte{2});
  EXPECT_EQ(packed[2], std::byte{3});
}

TEST(BufferChainTest, PackCountsExactlyOneCopy) {
  BufferChain chain;
  chain.Append(BufferView(Buffer("", kFullFieldBytes)));
  chain.Append(BufferView(Buffer("", kFullFieldBytes)));
  core::ResetLocalBufferStats();
  (void)chain.Pack("");
  EXPECT_EQ(core::LocalBufferStats().full_copies, 1u);
  EXPECT_EQ(core::LocalBufferStats().copied_bytes, 2 * kFullFieldBytes);
}

TEST(BufferChainTest, PackIntoValidatesSize) {
  BufferChain chain(BufferView(Buffer("", 16)));
  std::vector<std::byte> small(8);
  EXPECT_THROW(chain.PackInto(small), std::runtime_error);
  std::vector<std::byte> right(16);
  chain.PackInto(right);
}

TEST(BufferChainTest, ContiguousBytesOnlyForSingleSegment) {
  BufferChain one(BufferView(Buffer("", 4)));
  EXPECT_TRUE(one.Contiguous());
  EXPECT_EQ(one.ContiguousBytes().size(), 4u);
  one.Append(BufferView(Buffer("", 4)));
  EXPECT_THROW((void)one.ContiguousBytes(), std::runtime_error);
}

TEST(BufferChainTest, NestedAppendFlattens) {
  BufferChain inner;
  inner.Append(BufferView(Buffer("", 5)));
  inner.Append(BufferView(Buffer("", 6)));
  BufferChain outer(BufferView(Buffer("", 1)));
  outer.Append(std::move(inner));
  EXPECT_EQ(outer.Segments().size(), 3u);
  EXPECT_EQ(outer.TotalBytes(), 12u);
}

}  // namespace
