// Wire formats exchanged between ranks, defined once for every
// message-passing backend (the seed duplicated these structs in
// par/dist.cpp and par/spatial.cpp "to keep the two substrates independent").
//
// Three record kinds travel on the wire:
//  - WireRecord: a packed tally destined for the bin-tree owner (the EnQueue
//    payload of Fig 5.3).
//  - KeyedRecord: a WireRecord keyed by its place in the photon sequence, for
//    the distributed-geometry decomposition's ordered apply (chapter 6).
//  - PhotonFlight: an in-flight photon crossing a region boundary in that
//    decomposition, sent as it is held, so any rank continues the path bit
//    for bit.
#pragma once

#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "core/rng.hpp"
#include "sim/tracer.hpp"

namespace photon {

using Bytes = std::vector<std::uint8_t>;

// Packed bounce record as exchanged on the wire.
struct WireRecord {
  std::int32_t patch = -1;
  float s = 0, t = 0, u = 0, theta = 0;
  std::uint8_t channel = 0;
  std::uint8_t front = 1;
  std::uint16_t pad = 0;  // a KeyedRecord's index along the path
};
static_assert(sizeof(WireRecord) == 24, "wire format is part of the protocol");

WireRecord to_wire(const BounceRecord& rec);
BounceRecord from_wire(const WireRecord& wire);
WireRecord make_wire_record(int patch, const BinCoords& coords, int channel, bool front);

// A record keyed by (photon id, index along the path): the index (0 for the
// emission, k for the k-th reflection) rides in rec.pad. Sorting by the key
// restores the order the serial run tallies in.
struct KeyedRecord {
  std::uint64_t photon = 0;
  WireRecord rec;
};
static_assert(sizeof(KeyedRecord) == 32, "wire format is part of the protocol");

inline KeyedRecord make_keyed_record(std::uint64_t photon, int index, const BounceRecord& rec) {
  KeyedRecord keyed{photon, to_wire(rec)};
  keyed.rec.pad = static_cast<std::uint16_t>(index);
  return keyed;
}

inline bool operator<(const KeyedRecord& a, const KeyedRecord& b) {
  return a.photon != b.photon ? a.photon < b.photon : a.rec.pad < b.rec.pad;
}

// An in-flight photon: its path state, private RNG stream and id, and how
// far along the current ray every region before this one found no hit. The
// ray keeps its origin across hand-offs, so each region traces the very ray
// the whole-scene index would. Trivially copyable with no padding, it
// crosses the wire as it is held: both polarization components and the
// stream state arrive exact.
struct PhotonFlight {
  PhotonPath path;
  Lcg48 rng;
  std::uint64_t photon = 0;
  double t_min = 0.0;
};
static_assert(sizeof(PhotonFlight) == 96, "wire format is part of the protocol");

// Byte-buffer (de)serialization for the all-to-all exchanges.
Bytes pack_records(const std::vector<WireRecord>& records);
std::vector<WireRecord> unpack_records(const Bytes& buf);
Bytes pack_flights(const std::vector<PhotonFlight>& flights);
std::vector<PhotonFlight> unpack_flights(const Bytes& buf);

// Number of `T`-sized wire records held by a byte buffer.
template <typename T>
std::size_t wire_count(const Bytes& buf) {
  return buf.size() / sizeof(T);
}

// Zero-copy iteration over a packed byte buffer: invokes `fn(const T&)` once
// per record without materializing a std::vector<T>. Records are copied into
// a stack local (a fixed-size memcpy the compiler folds into plain loads), so
// the walk is alignment- and aliasing-safe regardless of the buffer origin.
template <typename T, typename Fn>
void for_each_wire(const Bytes& buf, Fn&& fn) {
  static_assert(std::is_trivially_copyable_v<T>, "wire records must be PODs");
  const std::size_t n = wire_count<T>(buf);
  for (std::size_t i = 0; i < n; ++i) {
    T rec;
    std::memcpy(&rec, buf.data() + i * sizeof(T), sizeof(T));
    fn(rec);
  }
}

// Per-destination wire serializer: records are appended straight into the
// byte buffer that will go on the wire, so the record path performs exactly
// one copy (struct -> outgoing Bytes). The seed staged every record through a
// std::vector<WireRecord> and re-packed the whole queue into a fresh Bytes
// every batch — two extra full copies plus two allocations per destination
// per round.
class WireBuffer {
 public:
  explicit WireBuffer(int destinations);

  int destinations() const { return static_cast<int>(bufs_.size()); }

  template <typename T>
  void append(int dest, const T& rec) {
    static_assert(std::is_trivially_copyable_v<T>, "wire records must be PODs");
    Bytes& b = bufs_[static_cast<std::size_t>(dest)];
    const std::size_t off = b.size();
    b.resize(off + sizeof(T));
    std::memcpy(b.data() + off, &rec, sizeof(T));
  }

  const Bytes& buffer(int dest) const { return bufs_[static_cast<std::size_t>(dest)]; }

  bool empty() const;
  std::size_t total_bytes() const;

  // Surrenders the per-destination buffers to the transport (they are moved
  // onward, never copied) and leaves this WireBuffer empty with the same
  // destination count — immediately refillable, so batch k+1 serializes here
  // while the surrendered batch-k bytes drain through the exchange (the two
  // batches never share a buffer).
  std::vector<Bytes> take();

 private:
  std::vector<Bytes> bufs_;
};

}  // namespace photon
