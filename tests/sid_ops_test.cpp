#include "index/sid_ops.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "util/rng.h"
#include "util/simd.h"

namespace koko {
namespace {

SidList Make(std::vector<uint32_t> ids) {
  return SidList::FromUnsorted(std::move(ids));
}

std::vector<uint32_t> ReferenceIntersect(const SidList& a, const SidList& b) {
  std::vector<uint32_t> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

SidList RandomList(Rng* rng, size_t count, uint32_t universe) {
  std::vector<uint32_t> ids;
  ids.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    ids.push_back(static_cast<uint32_t>(rng->Next() % universe));
  }
  return SidList::FromUnsorted(std::move(ids));
}

TEST(SidListTest, FromUnsortedSortsAndDedups) {
  SidList list = Make({5, 1, 3, 1, 5, 5, 2});
  EXPECT_EQ(list.ids(), (std::vector<uint32_t>{1, 2, 3, 5}));
  EXPECT_EQ(list.CountSids(), 4u);
}

TEST(SidListTest, AppendDropsRepeatsOfTail) {
  SidList list;
  for (uint32_t sid : {1u, 1u, 2u, 2u, 2u, 7u}) list.Append(sid);
  EXPECT_EQ(list.ids(), (std::vector<uint32_t>{1, 2, 7}));
}

TEST(SidListTest, Contains) {
  SidList list = Make({2, 4, 8});
  EXPECT_TRUE(list.Contains(4));
  EXPECT_FALSE(list.Contains(5));
  EXPECT_FALSE(SidList().Contains(0));
}

TEST(GallopToTest, Boundaries) {
  std::vector<uint32_t> xs = {2, 4, 6, 8, 10, 12, 14, 16};
  const size_t n = xs.size();
  EXPECT_EQ(GallopTo(xs.data(), n, 0, 1), 0u);    // before first
  EXPECT_EQ(GallopTo(xs.data(), n, 0, 2), 0u);    // exact first
  EXPECT_EQ(GallopTo(xs.data(), n, 0, 3), 1u);    // between
  EXPECT_EQ(GallopTo(xs.data(), n, 0, 16), 7u);   // exact last
  EXPECT_EQ(GallopTo(xs.data(), n, 0, 17), 8u);   // past last
  EXPECT_EQ(GallopTo(xs.data(), n, 3, 8), 3u);    // lo already at answer
  EXPECT_EQ(GallopTo(xs.data(), n, 3, 6), 3u);    // key behind lo -> lo
  EXPECT_EQ(GallopTo(xs.data(), n, 8, 1), 8u);    // lo == n
  EXPECT_EQ(GallopTo(xs.data(), 0, 0, 5), 0u);    // empty array
}

TEST(GallopToTest, MatchesLowerBoundExhaustively) {
  // Every (lo, key) pair over a list with runs and gaps.
  std::vector<uint32_t> xs = {0, 1, 1 + 2, 7, 9, 100, 101, 102, 4000};
  for (size_t lo = 0; lo <= xs.size(); ++lo) {
    for (uint32_t key = 0; key <= 4002; ++key) {
      size_t expected = static_cast<size_t>(
          std::lower_bound(xs.begin() + static_cast<long>(lo), xs.end(), key) -
          xs.begin());
      ASSERT_EQ(GallopTo(xs.data(), xs.size(), lo, key), expected)
          << "lo=" << lo << " key=" << key;
    }
  }
}

TEST(IntersectTest, EmptyLists) {
  EXPECT_TRUE(Intersect(SidList(), SidList()).empty());
  EXPECT_TRUE(Intersect(SidList(), Make({1, 2, 3})).empty());
  EXPECT_TRUE(Intersect(Make({1, 2, 3}), SidList()).empty());
}

TEST(IntersectTest, Disjoint) {
  EXPECT_TRUE(Intersect(Make({1, 3, 5}), Make({2, 4, 6})).empty());
}

TEST(IntersectTest, Subset) {
  SidList small = Make({10, 30});
  SidList large = Make({0, 10, 20, 30, 40});
  EXPECT_EQ(Intersect(small, large).ids(), (std::vector<uint32_t>{10, 30}));
  EXPECT_EQ(Intersect(large, small).ids(), (std::vector<uint32_t>{10, 30}));
}

TEST(IntersectTest, Identical) {
  SidList list = Make({1, 2, 3, 4});
  EXPECT_EQ(Intersect(list, list).ids(), list.ids());
}

TEST(IntersectTest, SkewedSizesTakeGallopPath) {
  // |large| / |small| far beyond kGallopSkewRatio: exercises the galloping
  // advance, including multi-step probes past long runs.
  std::vector<uint32_t> big;
  for (uint32_t i = 0; i < 10000; ++i) big.push_back(i * 3);
  SidList large = SidList::FromSorted(big);
  SidList small = Make({0, 3, 4, 29997, 29999, 50000});
  EXPECT_EQ(Intersect(small, large).ids(),
            (std::vector<uint32_t>{0, 3, 29997}));
  EXPECT_EQ(Intersect(large, small).ids(),
            (std::vector<uint32_t>{0, 3, 29997}));
}

TEST(IntersectTest, RandomizedAgainstReference) {
  Rng rng(99);
  for (int round = 0; round < 200; ++round) {
    // Vary skew from 1:1 to ~1:200 so both merge strategies are hit.
    size_t na = 1 + rng.Next() % 50;
    size_t nb = 1 + rng.Next() % 2000;
    SidList a = RandomList(&rng, na, 300);
    SidList b = RandomList(&rng, nb, 3000);
    EXPECT_EQ(Intersect(a, b).ids(), ReferenceIntersect(a, b));
    EXPECT_EQ(Intersect(b, a).ids(), ReferenceIntersect(a, b));
  }
}

TEST(IntersectAllTest, SmallestFirstOrderIndependent) {
  SidList a = Make({1, 2, 3, 4, 5, 6, 7, 8});
  SidList b = Make({2, 4, 6, 8});
  SidList c = Make({4, 8, 12});
  std::vector<uint32_t> expected = {4, 8};
  EXPECT_EQ(IntersectAll({&a, &b, &c}).ids(), expected);
  EXPECT_EQ(IntersectAll({&c, &a, &b}).ids(), expected);
  EXPECT_EQ(IntersectAll({&b, &c, &a}).ids(), expected);
}

TEST(IntersectAllTest, EdgeCases) {
  SidList a = Make({1, 2});
  EXPECT_TRUE(IntersectAll({}).empty());
  EXPECT_EQ(IntersectAll({&a}).ids(), a.ids());
  SidList empty;
  EXPECT_TRUE(IntersectAll({&a, &empty}).empty());
}

TEST(UnionTest, MergesAndDedups) {
  EXPECT_EQ(Union(Make({1, 3, 5}), Make({1, 2, 5, 9})).ids(),
            (std::vector<uint32_t>{1, 2, 3, 5, 9}));
  EXPECT_EQ(Union(SidList(), Make({7})).ids(), (std::vector<uint32_t>{7}));
}

TEST(UnionAllTest, ManyLists) {
  SidList a = Make({1});
  SidList b = Make({5, 6});
  SidList c = Make({1, 9});
  EXPECT_EQ(UnionAll({&a, &b, &c}).ids(), (std::vector<uint32_t>{1, 5, 6, 9}));
  EXPECT_TRUE(UnionAll({}).empty());
  EXPECT_EQ(UnionAll({&b}).ids(), b.ids());
}

TEST(DifferenceTest, BasicAndSkewed) {
  EXPECT_EQ(Difference(Make({1, 2, 3, 4}), Make({2, 4})).ids(),
            (std::vector<uint32_t>{1, 3}));
  EXPECT_EQ(Difference(Make({1, 2}), SidList()).ids(),
            (std::vector<uint32_t>{1, 2}));
  EXPECT_TRUE(Difference(SidList(), Make({1})).empty());
  // Skewed: subtract a large list (gallop path).
  std::vector<uint32_t> big;
  for (uint32_t i = 0; i < 1000; ++i) big.push_back(i * 2);
  EXPECT_EQ(Difference(Make({3, 4, 1998, 1999}), SidList::FromSorted(big)).ids(),
            (std::vector<uint32_t>{3, 1999}));
}

// ---- BlockList: the block-compressed resident representation ---------------

TEST(BlockListTest, RoundTripEdgeSizes) {
  // Empty list, single sid, exactly one block, one-past-a-block-boundary,
  // several blocks with a partial tail.
  const size_t kB = BlockList::kBlockSids;
  for (size_t n : {size_t{0}, size_t{1}, kB - 1, kB, kB + 1, 3 * kB, 3 * kB + 7}) {
    std::vector<uint32_t> ids;
    for (size_t i = 0; i < n; ++i) ids.push_back(static_cast<uint32_t>(i * 3));
    SidList list = SidList::FromSorted(ids);
    BlockList blocks = BlockList::FromSidList(list);
    EXPECT_EQ(blocks.CountSids(), n);
    EXPECT_EQ(blocks.NumBlocks(), (n + kB - 1) / kB);
    EXPECT_EQ(blocks.Decode(), list) << n;
  }
}

TEST(BlockListTest, ContainsIncludingBlockBoundaries) {
  const size_t kB = BlockList::kBlockSids;
  std::vector<uint32_t> ids;
  for (size_t i = 0; i < 3 * kB + 5; ++i) ids.push_back(static_cast<uint32_t>(i * 2));
  BlockList blocks = BlockList::FromSidList(SidList::FromSorted(ids));
  EXPECT_FALSE(BlockList().Contains(0));
  for (uint32_t sid : ids) EXPECT_TRUE(blocks.Contains(sid)) << sid;
  // First sid of each block (skip-table hits) and their neighbours.
  for (size_t b = 0; b < blocks.NumBlocks(); ++b) {
    const uint32_t first = blocks.skip_first()[b];
    EXPECT_TRUE(blocks.Contains(first));
    EXPECT_FALSE(blocks.Contains(first + 1));  // ids are all even
  }
  EXPECT_FALSE(blocks.Contains(ids.back() + 2));
}

TEST(BlockListTest, CompressesDenseListsBelowRawLayout) {
  // 10k sids with gap 2: 2-bit packed gaps + 12 skip bytes per 128 sids,
  // vs 4 raw bytes per sid decoded.
  std::vector<uint32_t> ids;
  for (uint32_t i = 0; i < 10000; ++i) ids.push_back(i * 2);
  SidList list = SidList::FromSorted(ids);
  BlockList blocks = BlockList::FromSidList(list);
  EXPECT_LT(blocks.MemoryUsage() * 2, list.MemoryUsage());
}

TEST(BlockListTest, InPlaceIntersectMatchesDecoded) {
  Rng rng(123);
  for (int round = 0; round < 100; ++round) {
    const size_t na = 1 + rng.Next() % 600;
    const size_t nb = 1 + rng.Next() % 3000;
    SidList a = RandomList(&rng, na, 2000);
    SidList b = RandomList(&rng, nb, 8000);
    BlockList ab = BlockList::FromSidList(a);
    BlockList bb = BlockList::FromSidList(b);
    const SidList want = Intersect(a, b);
    EXPECT_EQ(Intersect(a, bb), want) << round;      // decoded x blocks
    EXPECT_EQ(Intersect(b, ab), want) << round;      // larger decoded side
    EXPECT_EQ(Intersect(ab, b), want) << round;      // blocks x decoded
    EXPECT_EQ(Intersect(ab, bb), want) << round;     // blocks x blocks
    EXPECT_EQ(Intersect(bb, ab), want) << round;
  }
  // Degenerate shapes.
  BlockList empty;
  EXPECT_TRUE(Intersect(SidList(), empty).empty());
  EXPECT_TRUE(Intersect(Make({1, 2}), empty).empty());
  EXPECT_TRUE(Intersect(empty, Make({1, 2})).empty());
  // The uint32 maximum must not wrap the skip-table gallop.
  BlockList max_list = BlockList::FromSidList(SidList::FromSorted({5, 0xffffffffu}));
  EXPECT_EQ(Intersect(Make({0xffffffffu}), max_list).ids(),
            (std::vector<uint32_t>{0xffffffffu}));
}

TEST(BlockListTest, IntersectAllViewsMixesDecodedAndCompressed) {
  SidList a = Make({1, 2, 3, 4, 5, 6, 7, 8});
  SidList b = Make({2, 4, 6, 8});
  BlockList c = BlockList::FromSidList(Make({4, 8, 12}));
  std::vector<uint32_t> expected = {4, 8};
  EXPECT_EQ(IntersectAllViews({&a, &b, &c}).ids(), expected);
  EXPECT_EQ(IntersectAllViews({&c, &a, &b}).ids(), expected);
  EXPECT_TRUE(IntersectAllViews({}).empty());
  BlockList empty;
  EXPECT_TRUE(IntersectAllViews({&a, &empty}).empty());
  EXPECT_EQ(IntersectAllViews({&c}).ids(), (std::vector<uint32_t>{4, 8, 12}));
}

TEST(BlockListTest, UnionAllBlocks) {
  BlockList a = BlockList::FromSidList(Make({1}));
  BlockList b = BlockList::FromSidList(Make({5, 6}));
  BlockList c = BlockList::FromSidList(Make({1, 9}));
  EXPECT_EQ(UnionAllBlocks({&a, &b, &c}).ids(),
            (std::vector<uint32_t>{1, 5, 6, 9}));
  EXPECT_TRUE(UnionAllBlocks({}).empty());
}

// ---------------------------------------------------------------------------
// Packed form: round trips, canonical-encoding corruption rejection.
// ---------------------------------------------------------------------------

// Gap patterns the packed and SIMD paths must all handle: dense runs
// (1-bit gaps), sparse lists (wide gaps), mixes of narrow and wide gaps
// inside one block (wide per-block widths), and block-boundary sizes.
std::vector<std::vector<uint32_t>> PatternLists() {
  std::vector<std::vector<uint32_t>> lists;
  lists.push_back({});                            // empty
  lists.push_back({42});                          // single sid, zero gaps
  lists.push_back({0, 0xffffffffu});              // maximum gap (width 32)
  for (size_t n : {2u, 127u, 128u, 129u, 255u, 256u, 1000u}) {
    std::vector<uint32_t> dense, sparse, mixed;
    for (uint32_t i = 0; i < n; ++i) {
      dense.push_back(1000 + i);
      sparse.push_back(i * 3000017u);
      mixed.push_back(mixed.empty() ? 7u
                                    : mixed.back() + (i % 3 == 0 ? 300000u
                                                     : i % 3 == 1 ? 1u
                                                                  : 200u));
    }
    lists.push_back(std::move(dense));
    lists.push_back(std::move(sparse));
    lists.push_back(std::move(mixed));
  }
  Rng rng(1234);
  for (int round = 0; round < 8; ++round) {
    std::vector<uint32_t> ids;
    const size_t n = 1 + rng.Next() % 700;
    for (size_t i = 0; i < n; ++i) {
      ids.push_back(static_cast<uint32_t>(rng.Next() % (1u << 24)));
    }
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    lists.push_back(std::move(ids));
  }
  return lists;
}

// A list's four serialized arrays as owned vectors, so a test can corrupt
// individual fields and hand them to either validating constructor.
struct PackedParts {
  uint32_t count = 0;
  std::vector<uint32_t> skip_first;
  std::vector<uint32_t> skip_offset;
  std::vector<uint32_t> skip_width;
  std::vector<uint8_t> payload;
};

PackedParts PartsOf(const BlockList& list) {
  return {static_cast<uint32_t>(list.size()), list.skip_first().ToVector(),
          list.skip_offset().ToVector(), list.skip_width().ToVector(),
          list.bytes().ToVector()};
}

Result<BlockList> Owned(const PackedParts& p) {
  return BlockList::FromPackedParts(p.count, p.skip_first, p.skip_offset,
                                    p.skip_width, p.payload);
}

Result<BlockList> Mapped(const PackedParts& p) {
  return BlockList::FromMappedPacked(
      p.count, U32View(p.skip_first), U32View(p.skip_offset),
      U32View(p.skip_width), MemorySpan(p.payload.data(), p.payload.size()));
}

// 300 sids with gap 3: blocks of 128, 128 and 44 sids, 2-bit gaps.
PackedParts GoodParts() {
  std::vector<uint32_t> ids;
  for (uint32_t i = 0; i < 300; ++i) ids.push_back(i * 3);
  return PartsOf(BlockList::FromSidList(SidList::FromSorted(ids)));
}

struct CorruptCase {
  std::string what;
  PackedParts parts;
};

// Every structural invariant a corrupt image can violate, one input per
// violation. FromPackedParts and FromMappedPacked must reject each one.
std::vector<CorruptCase> CorruptPackedParts() {
  const PackedParts good = GoodParts();
  std::vector<CorruptCase> cases;
  auto mutated = [&](std::string what, auto mutate) {
    PackedParts p = good;
    mutate(p);
    cases.push_back({std::move(what), std::move(p)});
  };
  // Sid count inconsistent with the block structure.
  mutated("count off by one", [](PackedParts& p) { p.count += 1; });
  mutated("count implies more blocks",
          [](PackedParts& p) { p.count = 3 * BlockList::kBlockSids + 1; });
  mutated("count implies fewer blocks",
          [](PackedParts& p) { p.count = 2 * BlockList::kBlockSids; });
  mutated("zero count with blocks", [](PackedParts& p) { p.count = 0; });
  mutated("all skip tables one block short", [](PackedParts& p) {
    p.skip_first.pop_back();
    p.skip_offset.pop_back();
    p.skip_width.pop_back();
  });
  // Skip tables that disagree with each other.
  mutated("skip_first shorter", [](PackedParts& p) { p.skip_first.pop_back(); });
  mutated("skip_width shorter", [](PackedParts& p) { p.skip_width.pop_back(); });
  // Widths.
  mutated("width beyond 32", [](PackedParts& p) { p.skip_width[0] = 33; });
  mutated("width not minimal", [](PackedParts& p) { p.skip_width[0] += 1; });
  // Block seams must be strictly ascending.
  mutated("seam below previous block",
          [](PackedParts& p) { p.skip_first[1] = p.skip_first[0]; });
  mutated("seam repeats previous block's last sid", [](PackedParts& p) {
    p.skip_first[1] = 3 * (BlockList::kBlockSids - 1);
  });
  // Offsets.
  mutated("first offset not zero", [](PackedParts& p) { p.skip_offset[0] = 4; });
  mutated("offset unaligned", [](PackedParts& p) { p.skip_offset[1] += 2; });
  mutated("offset out of bounds", [](PackedParts& p) {
    p.skip_offset[1] = static_cast<uint32_t>(p.payload.size()) + 4;
  });
  mutated("offsets non-monotone", [](PackedParts& p) {
    std::swap(p.skip_offset[1], p.skip_offset[2]);
  });
  // Payload: sizes are exact, padding is zero, gaps are nonzero.
  for (size_t cut = 1; cut <= 8; ++cut) {
    mutated("payload truncated by " + std::to_string(cut),
            [cut](PackedParts& p) { p.payload.resize(p.payload.size() - cut); });
  }
  mutated("trailing zero byte", [](PackedParts& p) { p.payload.push_back(0); });
  mutated("pad bit set", [](PackedParts& p) { p.payload.back() ^= 0x80; });
  mutated("zero gaps", [](PackedParts& p) { p.payload[0] = 0; });

  // Hand-crafted single-block inputs pinning the canonical-form rules.
  auto crafted = [&](std::string what, PackedParts p) {
    cases.push_back({std::move(what), std::move(p)});
  };
  crafted("zero gap encodes a duplicate sid", {2, {0}, {0}, {1}, {0x00, 0, 0, 0}});
  crafted("slack bits past the last gap", {2, {0}, {0}, {1}, {0x03, 0, 0, 0}});
  crafted("alignment pad byte", {2, {0}, {0}, {1}, {0x01, 0, 0, 1}});
  // Same payload size as the minimal encoding, isolating the width rule.
  crafted("width 2 for a gap of 1", {2, {0}, {0}, {2}, {0x01, 0, 0, 0}});
  crafted("single-sid block with a width", {1, {9}, {0}, {1}, {0, 0, 0, 0}});
  crafted("sid overflows uint32", {2, {0xfffffff0u}, {0}, {8}, {0xff, 0, 0, 0}});
  // A block claiming more than kBlockSids sids would overflow DecodeBlock's
  // stack buffer: 129 one-bit gaps of 1 in one 20-byte block.
  {
    std::vector<uint8_t> gaps129(20, 0);
    std::fill(gaps129.begin(), gaps129.begin() + 16, 0xff);
    gaps129[16] = 0x01;
    crafted("block of 130 sids", {130, {0}, {0}, {1}, std::move(gaps129)});
  }
  crafted("empty list with payload", {0, {}, {}, {}, {0}});
  crafted("empty list with a block", {0, {5}, {0}, {0}, {}});
  return cases;
}

// Well-formed inputs both validators must accept, with their decoded sids.
std::vector<std::pair<PackedParts, std::vector<uint32_t>>> ValidPackedParts() {
  std::vector<std::pair<PackedParts, std::vector<uint32_t>>> cases;
  cases.push_back({{2, {0}, {0}, {1}, {0x01, 0, 0, 0}}, {0, 1}});
  cases.push_back({{1, {9}, {0}, {0}, {}}, {9}});
  // The canonical maximum: 0 then +0xffffffff (width 32, one word).
  cases.push_back(
      {{2, {0}, {0}, {32}, {0xff, 0xff, 0xff, 0xff}}, {0, 0xffffffffu}});
  // kBlockSids exactly still fits one block: 127 one-bit gaps.
  std::vector<uint8_t> gaps127(16, 0xff);
  gaps127[15] = 0x7f;
  std::vector<uint32_t> full(BlockList::kBlockSids);
  for (uint32_t i = 0; i < full.size(); ++i) full[i] = i;
  cases.push_back({{128, {0}, {0}, {1}, std::move(gaps127)}, full});
  cases.push_back({{0, {}, {}, {}, {}}, {}});
  return cases;
}

TEST(BlockListTest, FromSidListRoundTripsThroughPackedParts) {
  for (const auto& ids : PatternLists()) {
    const BlockList built = BlockList::FromSidList(SidList::FromSorted(ids));
    EXPECT_EQ(built.Decode().ids(), ids);
    const PackedParts parts = PartsOf(built);
    ASSERT_EQ(parts.skip_width.size(), built.NumBlocks());
    // The built arrays are exactly what the image validators accept.
    auto owned = Owned(parts);
    ASSERT_TRUE(owned.ok()) << owned.status().ToString();
    EXPECT_EQ(*owned, built);
    auto mapped = Mapped(parts);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    EXPECT_EQ(*mapped, built);
    // Re-encoding the decoded list is the identity: the encoding is
    // canonical.
    EXPECT_EQ(BlockList::FromSidList(owned->Decode()), built);
    // Every block payload starts 4-byte aligned.
    for (size_t b = 0; b < parts.skip_offset.size(); ++b) {
      EXPECT_EQ(parts.skip_offset[b] % 4, 0u) << b;
    }
    for (uint32_t probe : {0u, 7u, 1000u, 3000017u, 0xffffffffu}) {
      EXPECT_EQ(built.Contains(probe),
                std::binary_search(ids.begin(), ids.end(), probe))
          << probe;
    }
    EXPECT_EQ(Intersect(*mapped, built), built.Decode());
  }
}

TEST(BlockListTest, FromMappedPackedAliasesWithoutCopying) {
  // A mapped view must behave identically to the owning list it was
  // serialized from — same equality, same queries — while owning nothing.
  std::vector<uint32_t> ids;
  for (uint32_t i = 0; i < 1000; ++i) ids.push_back(i * 7 + (i % 3));
  BlockList owned = BlockList::FromSidList(SidList::FromUnsorted(ids));
  const PackedParts parts = PartsOf(owned);

  auto mapped = Mapped(parts);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_TRUE(mapped->mapped());
  EXPECT_FALSE(owned.mapped());
  EXPECT_EQ(mapped->MemoryUsage(), 0u);  // the backing memory is borrowed
  EXPECT_GT(owned.MemoryUsage(), 0u);
  EXPECT_EQ(mapped->bytes().data(), parts.payload.data());  // aliases
  EXPECT_EQ(*mapped, owned);
  EXPECT_EQ(mapped->Decode(), owned.Decode());
  for (uint32_t probe : {0u, 7u, 8u, 3500u, 6993u, 100000u}) {
    EXPECT_EQ(mapped->Contains(probe), owned.Contains(probe)) << probe;
  }
  // Kernels run unchanged over the view: intersect it against decoded and
  // compressed inputs.
  SidList half = SidList::FromUnsorted(
      std::vector<uint32_t>(ids.begin(), ids.begin() + 500));
  EXPECT_EQ(Intersect(half, *mapped), Intersect(half, owned));
  EXPECT_EQ(Intersect(*mapped, owned), owned.Decode());

  // A real image may hand the view unaligned base addresses (the payload
  // itself is file-aligned, but the skip arrays follow strings): re-base
  // the width table one byte into a shifted buffer.
  std::vector<uint8_t> shifted(1 + parts.skip_width.size() * sizeof(uint32_t));
  std::memcpy(shifted.data() + 1, parts.skip_width.data(),
              parts.skip_width.size() * sizeof(uint32_t));
  auto remapped = BlockList::FromMappedPacked(
      parts.count, U32View(parts.skip_first), U32View(parts.skip_offset),
      U32View(shifted.data() + 1, parts.skip_width.size()),
      MemorySpan(parts.payload.data(), parts.payload.size()));
  ASSERT_TRUE(remapped.ok()) << remapped.status().ToString();
  EXPECT_EQ(*remapped, owned);
}

// FromPackedParts guards the v4 image: every structural invariant
// violation a byte flip can produce must be rejected, never decoded into
// garbage sids.
TEST(BlockListTest, FromPackedPartsValidation) {
  const PackedParts good = GoodParts();
  auto ok = Owned(good);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(*ok, BlockList::FromSidList(ok->Decode()));
  for (const auto& [parts, ids] : ValidPackedParts()) {
    auto valid = Owned(parts);
    ASSERT_TRUE(valid.ok()) << valid.status().ToString();
    EXPECT_EQ(valid->Decode().ids(), ids);
  }
  for (const CorruptCase& c : CorruptPackedParts()) {
    auto got = Owned(c.parts);
    ASSERT_FALSE(got.ok()) << c.what;
    EXPECT_EQ(got.status().code(), StatusCode::kParseError) << c.what;
  }
}

TEST(BlockListTest, FromMappedPackedRejectsCorruptParts) {
  // Every corruption FromPackedParts rejects must fail FromMappedPacked
  // identically — nothing is aliased out of a structurally unsound image.
  ASSERT_TRUE(Mapped(GoodParts()).ok());
  for (const auto& [parts, ids] : ValidPackedParts()) {
    auto valid = Mapped(parts);
    ASSERT_TRUE(valid.ok()) << valid.status().ToString();
    EXPECT_EQ(valid->Decode().ids(), ids);
  }
  for (const CorruptCase& c : CorruptPackedParts()) {
    auto got = Mapped(c.parts);
    ASSERT_FALSE(got.ok()) << c.what;
    EXPECT_EQ(got.status().code(), StatusCode::kParseError) << c.what;
  }
}

// ---------------------------------------------------------------------------
// SIMD dispatch: every available ISA must be byte-for-byte equivalent to
// the scalar kernels on every input shape.
// ---------------------------------------------------------------------------

// Restores the process-wide active ISA on scope exit so test order cannot
// leak a non-default kernel table into unrelated suites.
class ScopedIsa {
 public:
  explicit ScopedIsa(simd::Isa isa) : saved_(simd::ActiveIsa()) {
    simd::SetActiveIsa(isa);
  }
  ~ScopedIsa() { simd::SetActiveIsa(saved_); }

 private:
  simd::Isa saved_;
};

TEST(SimdTest, ScalarAlwaysAvailableAndNamed) {
  auto isas = simd::AvailableIsas();
  ASSERT_FALSE(isas.empty());
  EXPECT_EQ(isas.front(), simd::Isa::kScalar);
  ASSERT_NE(simd::KernelsFor(simd::Isa::kScalar), nullptr);
  EXPECT_STREQ(simd::IsaName(simd::Isa::kScalar), "scalar");
  for (simd::Isa isa : isas) {
    EXPECT_NE(simd::KernelsFor(isa), nullptr) << simd::IsaName(isa);
    EXPECT_NE(std::string(simd::IsaName(isa)), "");
  }
  EXPECT_STREQ(simd::ActiveIsaName(), simd::IsaName(simd::ActiveIsa()));
}

TEST(SimdTest, DifferentialDecodeAcrossIsas) {
  // Decode every pattern list under every available ISA, from owned and
  // byte-shifted (unaligned) mapped parts; all must match the scalar
  // decode exactly.
  for (const auto& ids : PatternLists()) {
    const BlockList owned = BlockList::FromSidList(SidList::FromSorted(ids));
    const PackedParts parts = PartsOf(owned);
    // Unaligned mapped variant: payload re-based one byte into a shifted
    // buffer, mimicking kMap aliases whose spans are not naturally aligned.
    std::vector<uint8_t> shifted(1 + parts.payload.size());
    if (!parts.payload.empty()) {
      std::memcpy(shifted.data() + 1, parts.payload.data(),
                  parts.payload.size());
    }
    auto unaligned = BlockList::FromMappedPacked(
        parts.count, U32View(parts.skip_first), U32View(parts.skip_offset),
        U32View(parts.skip_width),
        MemorySpan(shifted.data() + 1, parts.payload.size()));
    ASSERT_TRUE(unaligned.ok()) << unaligned.status().ToString();

    std::vector<std::vector<uint32_t>> scalar_decodes;
    for (simd::Isa isa : simd::AvailableIsas()) {
      ScopedIsa guard(isa);
      std::vector<std::vector<uint32_t>> decodes;
      decodes.push_back(owned.Decode().ids());
      decodes.push_back(unaligned->Decode().ids());
      if (isa == simd::Isa::kScalar) {
        for (const auto& d : decodes) EXPECT_EQ(d, ids);
        scalar_decodes = std::move(decodes);
      } else {
        ASSERT_EQ(decodes.size(), scalar_decodes.size());
        for (size_t i = 0; i < decodes.size(); ++i) {
          EXPECT_EQ(decodes[i], scalar_decodes[i])
              << simd::IsaName(isa) << " form " << i << " n=" << ids.size();
        }
      }
    }
  }
}

TEST(SimdTest, DifferentialIntersectAcrossIsas) {
  // Intersections under each ISA — both the raw kernel against a reference
  // std::set_intersection and the full BlockList paths — must agree with
  // scalar exactly, across skews that hit the merge and gallop strategies.
  Rng rng(4242);
  for (int round = 0; round < 60; ++round) {
    const size_t na = 1 + rng.Next() % 400;
    const size_t skew = 1 + rng.Next() % 100;
    const size_t nb = 1 + (rng.Next() % 400) * skew;
    SidList a = RandomList(&rng, na, 1u << 18);
    SidList b = RandomList(&rng, nb, 1u << 18);
    const std::vector<uint32_t> expected = ReferenceIntersect(a, b);

    BlockList ba = BlockList::FromSidList(a);
    BlockList bb = BlockList::FromSidList(b);
    for (simd::Isa isa : simd::AvailableIsas()) {
      ScopedIsa guard(isa);
      // Raw kernel, both argument orders.
      const simd::Kernels& k = simd::ActiveKernels();
      std::vector<uint32_t> out(std::min(a.size(), b.size()) +
                                simd::kIntersectOutSlack);
      size_t got = k.intersect_sorted(a.ids().data(), a.size(),
                                      b.ids().data(), b.size(), out.data());
      ASSERT_EQ(got, expected.size()) << simd::IsaName(isa);
      EXPECT_TRUE(std::equal(expected.begin(), expected.end(), out.begin()))
          << simd::IsaName(isa);
      got = k.intersect_sorted(b.ids().data(), b.size(), a.ids().data(),
                               a.size(), out.data());
      ASSERT_EQ(got, expected.size()) << simd::IsaName(isa);
      EXPECT_TRUE(std::equal(expected.begin(), expected.end(), out.begin()))
          << simd::IsaName(isa);
      // Full paths: decoded×decoded, block×block, decoded×block.
      EXPECT_EQ(Intersect(a, b).ids(), expected) << simd::IsaName(isa);
      EXPECT_EQ(Intersect(ba, bb).ids(), expected) << simd::IsaName(isa);
      EXPECT_EQ(Intersect(a, bb).ids(), expected) << simd::IsaName(isa);
    }
  }
}

TEST(SimdTest, IntersectKernelEdgeCases) {
  // Empty inputs, no matches, all matches, and runs crossing the vector
  // width — per ISA, against the scalar kernel's contract.
  for (simd::Isa isa : simd::AvailableIsas()) {
    ScopedIsa guard(isa);
    const simd::Kernels& k = simd::ActiveKernels();
    std::vector<uint32_t> out(64 + simd::kIntersectOutSlack);
    std::vector<uint32_t> empty;
    std::vector<uint32_t> xs = {1, 2, 3, 4, 5, 6, 7, 8, 9};
    EXPECT_EQ(k.intersect_sorted(empty.data(), 0, xs.data(), xs.size(),
                                 out.data()),
              0u);
    EXPECT_EQ(k.intersect_sorted(xs.data(), xs.size(), empty.data(), 0,
                                 out.data()),
              0u);
    // Identical arrays: all elements survive, in order.
    const size_t all = k.intersect_sorted(xs.data(), xs.size(), xs.data(),
                                          xs.size(), out.data());
    ASSERT_EQ(all, xs.size());
    EXPECT_TRUE(std::equal(xs.begin(), xs.end(), out.begin()));
    // Interleaved disjoint values: zero matches across window boundaries.
    std::vector<uint32_t> odd, even;
    for (uint32_t i = 0; i < 40; ++i) {
      odd.push_back(2 * i + 1);
      even.push_back(2 * i);
    }
    EXPECT_EQ(k.intersect_sorted(odd.data(), odd.size(), even.data(),
                                 even.size(), out.data()),
              0u)
        << simd::IsaName(isa);
  }
}

}  // namespace
}  // namespace koko
