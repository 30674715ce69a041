// OrderedRouterSink contracts: owned records are held and applied per
// window in source-rank order, foreign records go to the wire, and a window
// split into patch % parts parts applies every tree's records in the same
// order as one part does.
#include "engine/sink.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace photon {
namespace {

BounceRecord make_record(Lcg48& rng, int n_patches) {
  BounceRecord rec;
  rec.patch = static_cast<std::int32_t>(rng.uniform() * n_patches);
  if (rec.patch >= n_patches) rec.patch = n_patches - 1;
  rec.front = rng.uniform() < 0.7;
  rec.coords = BinCoords::from_local_dir(
      rng.uniform(), rng.uniform(),
      Vec3{rng.uniform() * 2 - 1, rng.uniform() * 2 - 1, 0.2 + rng.uniform()});
  rec.channel = static_cast<std::uint8_t>(rng.uniform() * 3);
  return rec;
}

TEST(OrderedRouterSink, AppliesOneBatchInSourceRankOrder) {
  // The canonical-order seam of dist-particle and hybrid: this rank's held
  // slice must apply in its own source slot, between the neighbours'
  // incoming buffers, so per-tree order is a pure function of the batch
  // schedule. Reproduce the order by hand against a plain ForestSink.
  const int n_patches = 5;
  const int rank = 1, P = 3;
  std::vector<int> owner(n_patches, rank);  // everything owned here
  Lcg48 rng(7);

  // Source-rank slices of one batch window, each in its trace order.
  std::vector<std::vector<BounceRecord>> slices(P);
  for (int s = 0; s < P; ++s) {
    for (int i = 0; i < 200; ++i) slices[static_cast<std::size_t>(s)].push_back(make_record(rng, n_patches));
  }

  BinForest routed(n_patches);
  WireBuffer wire(P);
  OrderedRouterSink sink(routed, owner, rank, wire);
  for (const BounceRecord& rec : slices[static_cast<std::size_t>(rank)]) sink.record(rec);
  std::vector<Bytes> incoming(P);
  for (int s = 0; s < P; ++s) {
    if (s == rank) continue;
    WireBuffer w(P);
    for (const BounceRecord& rec : slices[static_cast<std::size_t>(s)]) w.append(rank, to_wire(rec));
    incoming[static_cast<std::size_t>(s)] = w.take()[static_cast<std::size_t>(rank)];
  }
  const std::vector<BounceRecord> held = sink.take_held();
  const std::uint64_t applied = sink.apply_batch({&held, 1}, incoming);

  BinForest expected(n_patches);
  ForestSink direct(expected);
  for (int s = 0; s < P; ++s) {
    for (const BounceRecord& rec : slices[static_cast<std::size_t>(s)]) direct.record(rec);
  }
  EXPECT_TRUE(routed == expected);
  EXPECT_EQ(applied, static_cast<std::uint64_t>(P) * 200u);
}

TEST(OrderedRouterSink, RoutesForeignRecordsToTheWire) {
  const int n_patches = 4;
  std::vector<int> owner = {0, 1, 0, 1};
  Lcg48 rng(11);
  BinForest forest(n_patches);
  WireBuffer wire(2);
  OrderedRouterSink sink(forest, owner, 0, wire);
  for (int i = 0; i < 100; ++i) sink.record(make_record(rng, n_patches));
  const std::vector<BounceRecord> held = sink.take_held();
  // Held records are all owned; everything else went to rank 1's buffer.
  for (const BounceRecord& rec : held) EXPECT_EQ(owner[static_cast<std::size_t>(rec.patch)], 0);
  EXPECT_EQ(held.size() + wire.buffer(1).size() / sizeof(WireRecord), 100u);
  EXPECT_TRUE(wire.buffer(0).empty());
  // Nothing is tallied until apply_batch runs.
  EXPECT_EQ(forest.total_tally_all(), 0u);
}

TEST(OrderedRouterSink, PartsApplyEveryTreeInTheOnePartOrder) {
  // The particle engine's drain: parts k = 0..parts-1 each apply the records
  // of patches with patch % parts == k. Together they must apply every
  // record exactly once, and each tree must see its records in the order
  // one part applies them — held runs in run order, then the incoming
  // slices in source order.
  const int n_patches = 11;
  const int rank = 0, P = 2;
  const std::vector<int> owner(n_patches, rank);
  Lcg48 rng(23);
  std::vector<std::vector<BounceRecord>> runs(3);
  for (std::vector<BounceRecord>& run : runs) {
    for (int i = 0; i < 150; ++i) run.push_back(make_record(rng, n_patches));
  }
  WireBuffer remote(P);
  for (int i = 0; i < 150; ++i) remote.append(rank, to_wire(make_record(rng, n_patches)));
  std::vector<Bytes> incoming(P);
  incoming[1] = remote.take()[static_cast<std::size_t>(rank)];

  BinForest whole(n_patches);
  WireBuffer wire_a(P);
  OrderedRouterSink one_part(whole, owner, rank, wire_a);
  const std::uint64_t applied_whole = one_part.apply_batch(runs, incoming);

  for (const std::uint32_t parts : {2u, 3u, 4u}) {
    BinForest split(n_patches);
    WireBuffer wire_b(P);
    OrderedRouterSink sink(split, owner, rank, wire_b);
    std::uint64_t applied = 0;
    for (std::uint32_t part = 0; part < parts; ++part) {
      applied += sink.apply_batch(runs, incoming, part, parts);
    }
    EXPECT_EQ(applied, applied_whole) << parts << " parts";
    EXPECT_TRUE(split == whole) << parts << " parts";
  }
  EXPECT_EQ(applied_whole, 4u * 150u);
}

TEST(OrderedRouterSink, OneRankAppliesHeldRunsWithNoIncoming) {
  // One group: nothing is routed or exchanged; the chunk buffers are the
  // held slice and apply in chunk order.
  const int n_patches = 6;
  Lcg48 rng(31);
  std::vector<std::vector<BounceRecord>> runs(4);
  BinForest expected(n_patches);
  ForestSink direct(expected);
  for (std::vector<BounceRecord>& run : runs) {
    for (int i = 0; i < 90; ++i) {
      run.push_back(make_record(rng, n_patches));
      direct.record(run.back());
    }
  }
  BinForest forest(n_patches);
  const std::vector<int> owner(n_patches, 0);
  WireBuffer wire(1);
  OrderedRouterSink sink(forest, owner, 0, wire);
  EXPECT_EQ(sink.apply_batch(runs, {}), 360u);
  EXPECT_TRUE(forest == expected);
}

}  // namespace
}  // namespace photon
