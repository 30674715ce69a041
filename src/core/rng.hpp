// Parallel pseudo-random number generation (chapter 5, "Random Number
// Generation").
//
// Photon uses a single linear congruential sequence of period 2^48, the
// classic 48-bit drand48 LCG:
//   x_{n+1} = (a x_n + c) mod 2^48,  a = 0x5DEECE66D, c = 0xB.
// The closed form for k steps, x_{n+k} = (A x_n + C) mod 2^48 with A = a^k,
// C = c (a^{k-1} + ... + a + 1), lets any position be reached in O(log k).
//
// The paper splits that sequence across processors by *leapfrogging*: rank r
// of P draws elements r, r+P, r+2P, ... This repository splits it by
// *blocks* instead: photon i owns the 4096-element block starting at element
// i * 4096 (photon_stream below). A leapfrogged stream ties a photon's random
// numbers to the rank that draws it and to how many draws that rank's earlier
// photons consumed, so the answer changes with the processor count. A block
// ties them to the photon's index alone: every decomposition of the id space
// — serial, any threads × ranks shape, any window size, any resume point —
// traces exactly the same paths, and the bin forest comes out bitwise equal.
#pragma once

#include <cstdint>

namespace photon {

class Lcg48 {
 public:
  static constexpr std::uint64_t kModMask = (1ULL << 48) - 1;
  static constexpr std::uint64_t kA = 0x5DEECE66DULL;
  static constexpr std::uint64_t kC = 0xBULL;

  // The sequence position `seed` (masked to 48 bits): the next draw is the
  // element after it.
  explicit Lcg48(std::uint64_t seed = 0x1234ABCD330EULL) { reset(seed); }

  void reset(std::uint64_t seed) { state_ = seed & kModMask; }

  // Advances the sequence by n elements.
  void skip(std::uint64_t n) {
    std::uint64_t mul = 0;
    std::uint64_t add = 0;
    stride_constants(n, mul, add);
    state_ = (mul * state_ + add) & kModMask;
  }

  // Next raw 48-bit state.
  std::uint64_t next_bits() {
    state_ = (kA * state_ + kC) & kModMask;
    return state_;
  }

  // Uniform double in [0, 1) with 48 bits of resolution.
  double uniform() {
    return static_cast<double>(next_bits()) * 0x1.0p-48;
  }

  // Uniform integer in [0, n).
  std::uint64_t uniform_int(std::uint64_t n) {
    return static_cast<std::uint64_t>(uniform() * static_cast<double>(n));
  }

  std::uint64_t state() const { return state_; }

  // (A, C) such that one application advances the sequence k steps, by
  // square-and-multiply on the pair: composing the affine maps (A1,C1) then
  // (A2,C2) gives (A2*A1, A2*C1 + C2).
  static void stride_constants(std::uint64_t k, std::uint64_t& mul_out,
                               std::uint64_t& add_out) {
    std::uint64_t amul = kA;
    std::uint64_t aadd = kC;
    std::uint64_t rmul = 1;
    std::uint64_t radd = 0;
    while (k > 0) {
      if (k & 1) {
        radd = (amul * radd + aadd) & kModMask;
        rmul = (rmul * amul) & kModMask;
      }
      aadd = ((amul + 1) * aadd) & kModMask;  // compose (amul,aadd) with itself
      amul = (amul * amul) & kModMask;
      k >>= 1;
    }
    mul_out = rmul;
    add_out = radd;
  }

 private:
  std::uint64_t state_ = 0;
};

// Number of sequence elements reserved per photon; exceeds the worst-case
// draws of one photon path (photon_cli caps --max-bounces at 512 to preserve
// this).
inline constexpr std::uint64_t kPhotonStreamBlock = 4096;

// Per-photon RNG stream — the definition: photon `photon_index` owns the
// disjoint 4096-element block starting at element photon_index * 4096 of the
// sequence. Its path is then a pure function of (scene, seed, index), no
// matter which rank, thread, window or leg traces it.
inline Lcg48 photon_stream(std::uint64_t seed, std::uint64_t photon_index) {
  Lcg48 rng(seed);
  rng.skip(photon_index * kPhotonStreamBlock);
  return rng;
}

// Walks the streams of photon ids first_id, first_id + stride, ... in O(1)
// per photon. photon_stream pays a ~40-step square-and-multiply seek per
// call; the cursor seeks once, precomputes the affine step (A, C) for
// stride × 4096 elements, and advances one application per photon. next()
// returns exactly photon_stream(seed, first_id + k * stride) on its k-th
// call.
class PhotonStreamCursor {
 public:
  PhotonStreamCursor(std::uint64_t seed, std::uint64_t first_id, std::uint64_t stride = 1)
      : state_(photon_stream(seed, first_id).state()) {
    Lcg48::stride_constants(stride * kPhotonStreamBlock, mul_, add_);
  }

  Lcg48 next() {
    const Lcg48 current(state_);
    state_ = (mul_ * state_ + add_) & Lcg48::kModMask;
    return current;
  }

 private:
  std::uint64_t state_;
  std::uint64_t mul_ = 0;
  std::uint64_t add_ = 0;
};

}  // namespace photon
