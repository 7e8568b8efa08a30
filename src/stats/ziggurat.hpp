// Ziggurat random-variate generation (Marsaglia & Tsang 2000).
//
// The ROCC hot loop draws a normal or exponential variate for nearly every
// occupancy request.  Box-Muller costs two transcendentals (sqrt, cos, log)
// per normal; inverse-CDF costs one log per exponential.  The ziggurat
// covers the density with 256 horizontal layers so that ~98.5% of draws
// need only one 64-bit PCG draw, one table compare, and one multiply — no
// division, no transcendental on the common path.
//
// Layout per draw (one Pcg32::next_u64()):
//   bits 0..7    layer index (256 layers)
//   bits 11..63  53-bit variate mantissa (signed for the normal — bit 63 is
//                the sign via arithmetic shift; unsigned for the exponential)
// The index and mantissa bits do not overlap, unlike the classic 32-bit
// formulation which reuses the low bits of the value as the index.
//
// Tables are built once at static-initialization time from the standard
// 256-layer constants (normal r = 3.6541528853610088, exponential
// r = 7.697117470131487); the rejection slow path lives in ziggurat.cpp.
#pragma once

#include <cstdint>

#include "des/random.hpp"

namespace paradyn::stats {

namespace detail {

/// One ziggurat: per-layer accept thresholds `k` (scaled integer), value
/// scale factors `w`, and density ordinates `f`.
struct ZigguratTable {
  std::uint64_t k[256];
  double w[256];
  double f[256];
};

// Built during static initialization (plain aggregate dynamic init, no
// per-call guard).  Everything that samples runs long after main() starts,
// so static-init ordering against these is not a concern in practice.
extern const ZigguratTable kNormalZig;
extern const ZigguratTable kExpZig;

/// Base-layer x coordinate: the start of each distribution's tail.
inline constexpr double kNormalZigR = 3.6541528853610088;
inline constexpr double kExpZigR = 7.697117470131487;

/// Rejection paths: wedge test against the density, or tail sampling when
/// the draw landed in layer 0.  Out of line — together they handle < 2% of
/// draws.
[[nodiscard]] double ziggurat_normal_slow(des::Pcg32& rng, std::int64_t hz, std::uint32_t iz);
[[nodiscard]] double ziggurat_exponential_slow(des::Pcg32& rng, std::uint64_t jz,
                                               std::uint32_t iz);

}  // namespace detail

/// Standard normal variate via the 256-layer ziggurat.  Statistically
/// equivalent to sample_standard_normal (Box-Muller) but a different —
/// and much cheaper — draw sequence.
[[nodiscard]] inline double ziggurat_normal(des::Pcg32& rng) {
  const std::uint64_t u = rng.next_u64();
  const auto iz = static_cast<std::uint32_t>(u & 255U);
  // Arithmetic shift: bit 63 becomes the sign, bits 11..62 the magnitude.
  const std::int64_t hz = static_cast<std::int64_t>(u) >> 11;
  const auto az = static_cast<std::uint64_t>(hz < 0 ? -hz : hz);
  if (az < detail::kNormalZig.k[iz]) {
    return static_cast<double>(hz) * detail::kNormalZig.w[iz];
  }
  return detail::ziggurat_normal_slow(rng, hz, iz);
}

/// Unit-mean exponential variate via the 256-layer ziggurat.
[[nodiscard]] inline double ziggurat_exponential(des::Pcg32& rng) {
  const std::uint64_t u = rng.next_u64();
  const auto iz = static_cast<std::uint32_t>(u & 255U);
  const std::uint64_t jz = u >> 11;
  if (jz < detail::kExpZig.k[iz]) {
    return static_cast<double>(jz) * detail::kExpZig.w[iz];
  }
  return detail::ziggurat_exponential_slow(rng, jz, iz);
}

}  // namespace paradyn::stats
