// Devirtualized variate sampling for the simulation hot loop.
//
// Every occupancy request in the ROCC model draws from a fitted
// distribution.  Going through the virtual Distribution::sample() costs an
// indirect call per variate and (for the lognormal) a full Box-Muller; on
// paper-scale runs variate generation is the hottest non-queue path.
//
// FrozenSampler is the fast path: a small tagged-union value type compiled
// once from any Distribution.  Sampling is an inline switch over the family
// — no virtual call, no heap, no shared_ptr dereference — with normals and
// exponentials drawn through the ziggurat (see ziggurat.hpp).
//
// Two backends:
//   Ziggurat   the production path: ziggurat normal/exponential, ~3-6x
//              faster, statistically identical but a *different* draw
//              sequence than the pre-PR-5 streams.
//   Reference  bit-reproduces the historical Distribution::sample()
//              streams (Box-Muller normal, inverse-CDF exponential /
//              Weibull) for replaying old experiments (--reference-rng).
#pragma once

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "des/random.hpp"
#include "stats/alias_table.hpp"
#include "stats/distributions.hpp"
#include "stats/ziggurat.hpp"

namespace paradyn::stats {

/// Which variate engine a FrozenSampler compiles to.
enum class SamplerBackend : std::uint8_t {
  Ziggurat,   ///< Fast path (default since PR 5).
  Reference,  ///< Pre-PR-5 draw sequences (Box-Muller / inverse-CDF).
};

[[nodiscard]] const char* to_string(SamplerBackend backend) noexcept;

/// A Distribution frozen into an inline-dispatch sampler.  Every family
/// compiles to an inline switch — Empirical becomes a Walker alias table
/// under the Ziggurat backend (O(1) per draw) and keeps the historical
/// inline inverse-CDF under Reference; compile() rejects
/// unknown Distribution subclasses rather than fall back to the virtual
/// sample() (the retired kVirtual path).
class FrozenSampler {
 public:
  /// Default: deterministic 0 (a placeholder that draws nothing).
  FrozenSampler() noexcept = default;

  /// Freeze `dist` for `backend`.  Throws std::invalid_argument for a
  /// Distribution subclass outside the known families.
  [[nodiscard]] static FrozenSampler compile(const DistributionPtr& dist,
                                             SamplerBackend backend = SamplerBackend::Ziggurat);

  /// Draw one variate.
  double operator()(des::Pcg32& rng) const {
    switch (kind_) {
      case Kind::kDeterministic:
        return a_;
      case Kind::kUniform:  // a_ = lo, b_ = hi - lo
        return a_ + rng.next_double() * b_;
      case Kind::kExponentialZig:  // a_ = mean
        return a_ * ziggurat_exponential(rng);
      case Kind::kExponentialRef:
        return -a_ * std::log(rng.next_open_double());
      case Kind::kLognormalZig:  // a_ = mu, b_ = sigma
        return std::exp(a_ + b_ * ziggurat_normal(rng));
      case Kind::kLognormalRef:
        return std::exp(a_ + b_ * box_muller_normal(rng));
      case Kind::kWeibullZig:  // a_ = scale, b_ = 1 / shape
        return a_ * std::pow(ziggurat_exponential(rng), b_);
      case Kind::kWeibullRef:
        return a_ * std::pow(-std::log(rng.next_open_double()), b_);
      case Kind::kEmpiricalAlias:
        return (*alias_)(rng);
      case Kind::kEmpiricalQuantile:
        return empirical_draw(rng);
    }
    return a_;  // unreachable
  }

  /// True when the sampler dispatches inline.  Always the case since the
  /// virtual fallback was retired; kept for tests and introspection.
  [[nodiscard]] bool devirtualized() const noexcept { return true; }

 private:
  enum class Kind : std::uint8_t {
    kDeterministic,
    kUniform,
    kExponentialZig,
    kExponentialRef,
    kLognormalZig,
    kLognormalRef,
    kWeibullZig,
    kWeibullRef,
    kEmpiricalAlias,     ///< Walker alias table (Ziggurat backend).
    kEmpiricalQuantile,  ///< Historical inline inverse-CDF (--reference-rng).
  };

  /// Inverse-CDF over the shared order-statistics table — the exact
  /// arithmetic of Empirical::quantile(rng.next_double()), so Reference
  /// streams stay bit-identical to the historical virtual path.
  [[nodiscard]] double empirical_draw(des::Pcg32& rng) const {
    const std::vector<double>& v = *table_;
    const double h = rng.next_double() * static_cast<double>(v.size() - 1);
    const auto i = static_cast<std::size_t>(std::floor(h));
    if (i + 1 >= v.size()) return v.back();
    const double frac = h - std::floor(h);
    return v[i] + frac * (v[i + 1] - v[i]);
  }

  /// Box-Muller, inlined with the exact draw order of
  /// sample_standard_normal so Reference streams match history.
  [[nodiscard]] static double box_muller_normal(des::Pcg32& rng) {
    constexpr double kTwoPi = 6.28318530717958647692;
    const double u1 = rng.next_open_double();
    const double u2 = rng.next_double();
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(kTwoPi * u2);
  }

  Kind kind_ = Kind::kDeterministic;
  double a_ = 0.0;
  double b_ = 0.0;
  /// Shared sorted order statistics; only set for kEmpiricalQuantile.
  std::shared_ptr<const std::vector<double>> table_;
  /// Shared alias table; only set for kEmpiricalAlias.
  std::shared_ptr<const AliasTable> alias_;
};

}  // namespace paradyn::stats
