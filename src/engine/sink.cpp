#include "engine/sink.hpp"

#include <algorithm>

namespace photon {

template <typename Keep>
std::uint64_t OrderedRouterSink::apply_filtered(std::span<const std::vector<BounceRecord>> held,
                                                const std::vector<Bytes>& incoming, Keep keep) {
  std::uint64_t applied = 0;
  const auto apply = [&](const BounceRecord& rec) {
    if (!keep(rec.patch)) return;
    forest_->record(rec.patch, rec.front, rec.coords, rec.channel);
    ++applied;
  };
  const int sources = std::max(static_cast<int>(incoming.size()), rank_ + 1);
  for (int s = 0; s < sources; ++s) {
    if (s == rank_) {
      for (const std::vector<BounceRecord>& run : held) {
        for (const BounceRecord& rec : run) apply(rec);
      }
    } else {
      for_each_wire<WireRecord>(incoming[static_cast<std::size_t>(s)],
                                [&](const WireRecord& wire) { apply(from_wire(wire)); });
    }
  }
  return applied;
}

std::uint64_t OrderedRouterSink::apply_batch(std::span<const std::vector<BounceRecord>> held,
                                             const std::vector<Bytes>& incoming,
                                             std::uint32_t part, std::uint32_t parts) {
  if (parts <= 1) return apply_filtered(held, incoming, [](std::int32_t) { return true; });
  return apply_filtered(held, incoming, [=](std::int32_t patch) {
    return static_cast<std::uint32_t>(patch) % parts == part;
  });
}

}  // namespace photon
