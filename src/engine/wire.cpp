#include "engine/wire.hpp"

#include <cstring>

namespace photon {

namespace {

template <typename T>
Bytes pack_vector(const std::vector<T>& v) {
  Bytes out(v.size() * sizeof(T));
  if (!v.empty()) std::memcpy(out.data(), v.data(), out.size());
  return out;
}

template <typename T>
std::vector<T> unpack_vector(const Bytes& b) {
  std::vector<T> out(b.size() / sizeof(T));
  if (!out.empty()) std::memcpy(out.data(), b.data(), out.size() * sizeof(T));
  return out;
}

}  // namespace

WireRecord to_wire(const BounceRecord& rec) {
  return make_wire_record(rec.patch, rec.coords, rec.channel, rec.front);
}

BounceRecord from_wire(const WireRecord& wire) {
  BounceRecord rec;
  rec.patch = wire.patch;
  rec.front = wire.front != 0;
  rec.coords.s = wire.s;
  rec.coords.t = wire.t;
  rec.coords.u = wire.u;
  rec.coords.theta = wire.theta;
  rec.channel = wire.channel;
  return rec;
}

WireRecord make_wire_record(int patch, const BinCoords& coords, int channel, bool front) {
  WireRecord wire;
  wire.patch = patch;
  wire.s = static_cast<float>(coords.s);
  wire.t = static_cast<float>(coords.t);
  wire.u = static_cast<float>(coords.u);
  wire.theta = static_cast<float>(coords.theta);
  wire.channel = static_cast<std::uint8_t>(channel);
  wire.front = front ? 1 : 0;
  return wire;
}

Bytes pack_records(const std::vector<WireRecord>& records) { return pack_vector(records); }
std::vector<WireRecord> unpack_records(const Bytes& buf) { return unpack_vector<WireRecord>(buf); }
Bytes pack_flights(const std::vector<PhotonFlight>& flights) { return pack_vector(flights); }
std::vector<PhotonFlight> unpack_flights(const Bytes& buf) {
  return unpack_vector<PhotonFlight>(buf);
}

WireBuffer::WireBuffer(int destinations)
    : bufs_(static_cast<std::size_t>(destinations > 0 ? destinations : 0)) {}

bool WireBuffer::empty() const {
  for (const Bytes& b : bufs_) {
    if (!b.empty()) return false;
  }
  return true;
}

std::size_t WireBuffer::total_bytes() const {
  std::size_t n = 0;
  for (const Bytes& b : bufs_) n += b.size();
  return n;
}

std::vector<Bytes> WireBuffer::take() {
  std::vector<Bytes> out(bufs_.size());
  out.swap(bufs_);
  return out;
}

}  // namespace photon
