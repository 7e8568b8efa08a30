#include "stats/ziggurat.hpp"

#include <cmath>

namespace paradyn::stats::detail {
namespace {

// Scale factors matching the mantissa widths drawn in ziggurat.hpp: the
// normal uses a signed 53-bit value (52 magnitude bits), the exponential an
// unsigned 53-bit value.
constexpr double kNormalScale = 4503599627370496.0;  // 2^52
constexpr double kExpScale = 9007199254740992.0;     // 2^53

// Area of each of the 256 equal-area regions (layer or base strip + tail).
constexpr double kNormalZigV = 4.92867323399e-3;
constexpr double kExpZigV = 3.9496598225815571993e-3;

/// Build the normal ziggurat (Marsaglia & Tsang's zigset, 256 layers,
/// 52-bit scaling).  Layer i spans [0, x_i] with x_1 = r down to x_255 ~ 0;
/// index 0 is the base strip whose overhang is the tail.
ZigguratTable make_normal_table() {
  ZigguratTable t;
  double dn = kNormalZigR;
  double tn = dn;
  const double q = kNormalZigV / std::exp(-0.5 * dn * dn);

  t.k[0] = static_cast<std::uint64_t>((dn / q) * kNormalScale);
  t.k[1] = 0;
  t.w[0] = q / kNormalScale;
  t.w[255] = dn / kNormalScale;
  t.f[0] = 1.0;
  t.f[255] = std::exp(-0.5 * dn * dn);
  for (int i = 254; i >= 1; --i) {
    dn = std::sqrt(-2.0 * std::log(kNormalZigV / dn + std::exp(-0.5 * dn * dn)));
    t.k[i + 1] = static_cast<std::uint64_t>((dn / tn) * kNormalScale);
    tn = dn;
    t.f[i] = std::exp(-0.5 * dn * dn);
    t.w[i] = dn / kNormalScale;
  }
  return t;
}

/// Build the exponential ziggurat (same construction against f(x) = e^-x).
ZigguratTable make_exp_table() {
  ZigguratTable t;
  double de = kExpZigR;
  double te = de;
  const double q = kExpZigV / std::exp(-de);

  t.k[0] = static_cast<std::uint64_t>((de / q) * kExpScale);
  t.k[1] = 0;
  t.w[0] = q / kExpScale;
  t.w[255] = de / kExpScale;
  t.f[0] = 1.0;
  t.f[255] = std::exp(-de);
  for (int i = 254; i >= 1; --i) {
    de = -std::log(kExpZigV / de + std::exp(-de));
    t.k[i + 1] = static_cast<std::uint64_t>((de / te) * kExpScale);
    te = de;
    t.f[i] = std::exp(-de);
    t.w[i] = de / kExpScale;
  }
  return t;
}

}  // namespace

const ZigguratTable kNormalZig = make_normal_table();
const ZigguratTable kExpZig = make_exp_table();

double ziggurat_normal_slow(des::Pcg32& rng, std::int64_t hz, std::uint32_t iz) {
  for (;;) {
    if (iz == 0) {
      // Layer 0 overhang: sample the tail |x| > r by Marsaglia's method.
      double x;
      double y;
      do {
        x = -std::log(rng.next_open_double()) * (1.0 / kNormalZigR);
        y = -std::log(rng.next_open_double());
      } while (y + y < x * x);
      return hz > 0 ? kNormalZigR + x : -(kNormalZigR + x);
    }
    // Wedge between layer i and i-1: accept against the true density.
    const double x = static_cast<double>(hz) * kNormalZig.w[iz];
    if (kNormalZig.f[iz] + rng.next_double() * (kNormalZig.f[iz - 1] - kNormalZig.f[iz]) <
        std::exp(-0.5 * x * x)) {
      return x;
    }
    const std::uint64_t u = rng.next_u64();
    iz = static_cast<std::uint32_t>(u & 255U);
    hz = static_cast<std::int64_t>(u) >> 11;
    const auto az = static_cast<std::uint64_t>(hz < 0 ? -hz : hz);
    if (az < kNormalZig.k[iz]) {
      return static_cast<double>(hz) * kNormalZig.w[iz];
    }
  }
}

double ziggurat_exponential_slow(des::Pcg32& rng, std::uint64_t jz, std::uint32_t iz) {
  for (;;) {
    // Memoryless tail: x > r distributed as r + Exp(1).
    if (iz == 0) {
      return kExpZigR - std::log(rng.next_open_double());
    }
    const double x = static_cast<double>(jz) * kExpZig.w[iz];
    if (kExpZig.f[iz] + rng.next_double() * (kExpZig.f[iz - 1] - kExpZig.f[iz]) < std::exp(-x)) {
      return x;
    }
    const std::uint64_t u = rng.next_u64();
    iz = static_cast<std::uint32_t>(u & 255U);
    jz = u >> 11;
    if (jz < kExpZig.k[iz]) {
      return static_cast<double>(jz) * kExpZig.w[iz];
    }
  }
}

}  // namespace paradyn::stats::detail
