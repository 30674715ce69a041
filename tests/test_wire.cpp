// Wire contracts: records serialized in place into the per-destination byte
// buffers must round-trip bit for bit against the vector-staged pack/unpack
// path, and an in-flight photon must cross the wire with every bit of its
// path state, so the rank that continues it traces the serial path.
#include "engine/wire.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "core/rng.hpp"

namespace photon {
namespace {

WireRecord random_record(Lcg48& rng, int n_patches) {
  WireRecord w;
  w.patch = static_cast<std::int32_t>(rng.uniform_int(static_cast<std::uint64_t>(n_patches)));
  w.s = static_cast<float>(rng.uniform());
  w.t = static_cast<float>(rng.uniform());
  w.u = static_cast<float>(rng.uniform());
  w.theta = static_cast<float>(rng.uniform() * kTwoPi);
  w.channel = static_cast<std::uint8_t>(rng.uniform_int(3));
  w.front = static_cast<std::uint8_t>(rng.uniform_int(2));
  return w;
}

PhotonFlight random_flight(Lcg48& rng) {
  PhotonFlight f;
  f.path.origin = {rng.uniform(), rng.uniform(), rng.uniform()};
  f.path.dir = {rng.uniform() * 2 - 1, rng.uniform() * 2 - 1, rng.uniform() * 2 - 1};
  f.path.pol = {rng.uniform(), rng.uniform()};
  f.path.channel = static_cast<int>(rng.uniform_int(3));
  f.path.bounces = static_cast<int>(rng.uniform_int(100));
  f.rng.reset(rng.next_bits());
  f.photon = rng.uniform_int(1ull << 36);
  f.t_min = rng.uniform() * 10;
  return f;
}

TEST(WireBuffer, RoundTripsRecordsAgainstLegacyPack) {
  // Fuzz: the in-place append must produce byte-identical buffers to the
  // vector-staged pack_records it replaces, for every destination.
  Lcg48 rng(2024);
  for (int trial = 0; trial < 20; ++trial) {
    const int P = 1 + static_cast<int>(rng.uniform_int(7));
    WireBuffer wire(P);
    std::vector<std::vector<WireRecord>> staged(static_cast<std::size_t>(P));
    const int n = static_cast<int>(rng.uniform_int(400));
    for (int i = 0; i < n; ++i) {
      const int dest = static_cast<int>(rng.uniform_int(static_cast<std::uint64_t>(P)));
      const WireRecord w = random_record(rng, 64);
      wire.append(dest, w);
      staged[static_cast<std::size_t>(dest)].push_back(w);
    }
    for (int d = 0; d < P; ++d) {
      const Bytes legacy = pack_records(staged[static_cast<std::size_t>(d)]);
      EXPECT_EQ(wire.buffer(d), legacy) << "trial " << trial << " dest " << d;
      // And the zero-copy walk sees exactly the staged sequence.
      std::size_t i = 0;
      for_each_wire<WireRecord>(wire.buffer(d), [&](const WireRecord& got) {
        ASSERT_LT(i, staged[static_cast<std::size_t>(d)].size());
        EXPECT_EQ(0, std::memcmp(&got, &staged[static_cast<std::size_t>(d)][i],
                                 sizeof(WireRecord)));
        ++i;
      });
      EXPECT_EQ(i, staged[static_cast<std::size_t>(d)].size());
    }
  }
}

TEST(WireBuffer, RoundTripsFlightsAgainstLegacyPack) {
  Lcg48 rng(77);
  WireBuffer wire(3);
  std::vector<PhotonFlight> staged;
  for (int i = 0; i < 257; ++i) {
    const PhotonFlight f = random_flight(rng);
    wire.append(1, f);
    staged.push_back(f);
  }
  EXPECT_EQ(wire.buffer(1), pack_flights(staged));
  const std::vector<PhotonFlight> back = unpack_flights(wire.buffer(1));
  ASSERT_EQ(back.size(), staged.size());
  for (std::size_t i = 0; i < staged.size(); ++i) {
    EXPECT_EQ(0, std::memcmp(&back[i], &staged[i], sizeof(PhotonFlight)));
  }
}

TEST(WireBuffer, TakeSurrendersAndResets) {
  WireBuffer wire(2);
  wire.append(0, WireRecord{});
  wire.append(1, WireRecord{});
  wire.append(1, WireRecord{});
  EXPECT_FALSE(wire.empty());
  EXPECT_EQ(wire.total_bytes(), 3 * sizeof(WireRecord));

  const std::vector<Bytes> out = wire.take();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].size(), sizeof(WireRecord));
  EXPECT_EQ(out[1].size(), 2 * sizeof(WireRecord));
  EXPECT_TRUE(wire.empty());
  EXPECT_EQ(wire.destinations(), 2);
  wire.append(0, WireRecord{});  // usable immediately after take()
  EXPECT_EQ(wire.total_bytes(), sizeof(WireRecord));
}

TEST(KeyedRecord, SortsByPhotonThenPathIndex) {
  BounceRecord rec;
  rec.patch = 3;
  std::vector<KeyedRecord> keyed = {make_keyed_record(7, 2, rec), make_keyed_record(5, 9, rec),
                                    make_keyed_record(7, 0, rec), make_keyed_record(5, 1, rec)};
  std::sort(keyed.begin(), keyed.end());
  const std::vector<std::pair<std::uint64_t, int>> want = {{5, 1}, {5, 9}, {7, 0}, {7, 2}};
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(keyed[i].photon, want[i].first) << i;
    EXPECT_EQ(keyed[i].rec.pad, want[i].second) << i;
    EXPECT_EQ(keyed[i].rec.patch, 3) << i;
  }
}

}  // namespace
}  // namespace photon
