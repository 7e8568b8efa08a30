#include "stats/sampler.hpp"

#include <stdexcept>

#include "stats/empirical.hpp"

namespace paradyn::stats {

const char* to_string(SamplerBackend backend) noexcept {
  switch (backend) {
    case SamplerBackend::Ziggurat:
      return "ziggurat";
    case SamplerBackend::Reference:
      return "reference";
  }
  return "?";
}

FrozenSampler FrozenSampler::compile(const DistributionPtr& dist, SamplerBackend backend) {
  if (!dist) throw std::invalid_argument("FrozenSampler::compile: null distribution");
  const bool zig = backend == SamplerBackend::Ziggurat;
  FrozenSampler s;

  if (const auto* d = dynamic_cast<const Deterministic*>(dist.get())) {
    s.kind_ = Kind::kDeterministic;
    s.a_ = d->mean();
    return s;
  }
  if (const auto* u = dynamic_cast<const Uniform*>(dist.get())) {
    s.kind_ = Kind::kUniform;
    s.a_ = u->quantile(0.0);
    s.b_ = u->quantile(1.0) - u->quantile(0.0);
    return s;
  }
  if (const auto* e = dynamic_cast<const Exponential*>(dist.get())) {
    s.kind_ = zig ? Kind::kExponentialZig : Kind::kExponentialRef;
    s.a_ = e->mean();
    return s;
  }
  if (const auto* l = dynamic_cast<const Lognormal*>(dist.get())) {
    s.kind_ = zig ? Kind::kLognormalZig : Kind::kLognormalRef;
    s.a_ = l->mu();
    s.b_ = l->sigma();
    return s;
  }
  if (const auto* w = dynamic_cast<const Weibull*>(dist.get())) {
    s.kind_ = zig ? Kind::kWeibullZig : Kind::kWeibullRef;
    s.a_ = w->scale();
    s.b_ = 1.0 / w->shape();
    return s;
  }
  if (const auto* e = dynamic_cast<const Empirical*>(dist.get())) {
    const auto values = e->values();
    const std::vector<double> sorted(values.begin(), values.end());
    if (zig) {
      // Walker alias table: same mixture-of-segments distribution as the
      // quantile path, O(1) per draw, but a different stream (KS-gated in
      // the stat_equiv suite).
      s.kind_ = Kind::kEmpiricalAlias;
      s.alias_ = std::make_shared<const AliasTable>(AliasTable::from_sorted_values(sorted));
    } else {
      // Historical inverse-CDF arithmetic, bit-identical to the virtual
      // sample() — the --reference-rng replay path.
      s.kind_ = Kind::kEmpiricalQuantile;
      s.table_ = std::make_shared<const std::vector<double>>(sorted);
    }
    return s;
  }

  throw std::invalid_argument("FrozenSampler::compile: unknown distribution family: " +
                              dist->describe());
}

}  // namespace paradyn::stats
