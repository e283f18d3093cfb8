#include "ddc/address_space.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>

#include <gtest/gtest.h>

namespace teleport::ddc {
namespace {

TEST(AddressSpaceTest, AllocReturnsPageAlignedRegions) {
  AddressSpace as(1 << 20, 4096);
  const VAddr a = as.Alloc(100, "a");
  const VAddr b = as.Alloc(5000, "b");
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 4096u);          // "a" rounded up to one page
  EXPECT_EQ(as.used_bytes(), 4096u + 8192u);
  EXPECT_EQ(as.num_pages(), 3u);
}

TEST(AddressSpaceTest, RegionsAreNamed) {
  AddressSpace as(1 << 20, 4096);
  as.Alloc(10, "lineitem.quantity");
  ASSERT_EQ(as.regions().size(), 1u);
  EXPECT_EQ(as.regions()[0].name, "lineitem.quantity");
  EXPECT_EQ(as.regions()[0].bytes, 4096u);
}

TEST(AddressSpaceTest, MemoryIsZeroInitialized) {
  AddressSpace as(1 << 20, 4096);
  const VAddr a = as.Alloc(4096, "z");
  const auto* p = static_cast<const unsigned char*>(as.HostPtr(a, 4096));
  for (int i = 0; i < 4096; ++i) EXPECT_EQ(p[i], 0);
}

TEST(AddressSpaceTest, AllocForOverwriteZeroFillsOnlyTheTail) {
  // Each deployment adopts a one-page dataset and allocates a page and a
  // half past it, on memory the deployment before it filled with 0xab.
  constexpr uint64_t kPage = 4096;
  constexpr uint64_t kBytes = kPage + kPage / 2;
  const DatasetKey key{"overwrite.tail", {1}};
  auto fill_past_dataset = [](AddressSpace& as) {
    std::memset(as.HostPtr(kPage, 2 * kPage), 0xab, 2 * kPage);
  };
  auto count = [](const AddressSpace& as, VAddr from, VAddr to, int byte) {
    const auto* p = static_cast<const unsigned char*>(as.HostPtr(0, to));
    return std::count(p + from, p + to, byte);
  };
  {
    AddressSpace as(3 * kPage, kPage);
    ASSERT_FALSE(as.AdoptDataset(key, nullptr));
    as.Alloc(kPage, "dataset");
    as.TagDataset({});
    as.Alloc(2 * kPage, "scratch");
    fill_past_dataset(as);
  }
  {
    AddressSpace as(3 * kPage, kPage);
    ASSERT_TRUE(as.AdoptDataset(key, nullptr));
    as.Alloc(kPage, "dataset");
    const VAddr a = as.AllocForOverwrite(kBytes, "region");
    ASSERT_EQ(a, kPage);
    EXPECT_EQ(as.used_bytes(), 3 * kPage);
    EXPECT_EQ(count(as, a + kBytes, 3 * kPage, 0),
              static_cast<long>(3 * kPage - a - kBytes));
#ifdef NDEBUG
    // The body keeps what the previous deployment left.
    EXPECT_EQ(count(as, a, a + kBytes, 0xab), static_cast<long>(kBytes));
#else
    EXPECT_EQ(count(as, a, a + kBytes, AddressSpace::kPoison),
              static_cast<long>(kBytes));
#endif
    fill_past_dataset(as);
  }
  AddressSpace as(3 * kPage, kPage);
  ASSERT_TRUE(as.AdoptDataset(key, nullptr));
  as.Alloc(kPage, "dataset");
  const VAddr a = as.Alloc(kBytes, "region");
  EXPECT_EQ(count(as, a, 3 * kPage, 0), static_cast<long>(2 * kPage));
}

TEST(AddressSpaceTest, HostPtrRoundTripsData) {
  AddressSpace as(1 << 20, 4096);
  const VAddr a = as.Alloc(8192, "data");
  int64_t v = 0x1122334455667788;
  std::memcpy(as.HostPtr(a + 100, sizeof(v)), &v, sizeof(v));
  int64_t out = 0;
  std::memcpy(&out, as.HostPtr(a + 100, sizeof(out)), sizeof(out));
  EXPECT_EQ(out, v);
}

TEST(AddressSpaceTest, PointersStableAcrossGrowth) {
  // Alloc must never reallocate the backing store (pointers are handed out).
  AddressSpace as(64 << 20, 4096);
  const VAddr a = as.Alloc(4096, "first");
  void* p0 = as.HostPtr(a, 1);
  for (int i = 0; i < 1000; ++i) as.Alloc(16384, "filler");
  EXPECT_EQ(as.HostPtr(a, 1), p0);
}

TEST(AddressSpaceTest, PageOf) {
  AddressSpace as(1 << 20, 4096);
  EXPECT_EQ(as.PageOf(0), 0u);
  EXPECT_EQ(as.PageOf(4095), 0u);
  EXPECT_EQ(as.PageOf(4096), 1u);
  EXPECT_EQ(as.PageOf(12345), 3u);
}

TEST(AddressSpaceDeathTest, FreedSpareIsWritableAgain) {
  // Runs in a fresh process, whose allocator hands the memory of the freed
  // spare to the next space of the same size. Small enough to come from
  // the heap, where the allocator also writes into what is freed.
  const std::string style = ::testing::GTEST_FLAG(death_test_style);
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        constexpr uint64_t kCapacity = 16 * 4096;
        for (const DatasetKey& key : {DatasetKey{"freed.first", {1}},
                                      DatasetKey{"freed.second", {2}}}) {
          // The second space frees the first's spare: it does not match.
          AddressSpace as(kCapacity, 4096);
          as.AdoptDataset(key, nullptr);
          as.Alloc(kCapacity, "dataset");
          as.TagDataset({});
        }
        AddressSpace as(kCapacity, 4096);
        const VAddr a = as.Alloc(kCapacity, "all");
        std::memset(as.HostPtr(a, kCapacity), 0xab, kCapacity);
        std::exit(0);
      },
      ::testing::ExitedWithCode(0), "");
  ::testing::GTEST_FLAG(death_test_style) = style;
}

TEST(AddressSpaceDeathTest, ExhaustionAborts) {
  AddressSpace as(8192, 4096);
  as.Alloc(8192, "all");
  EXPECT_DEATH(as.Alloc(1, "overflow"), "exhausted");
}

}  // namespace
}  // namespace teleport::ddc
