// Exact-output digest of canonical simulator runs.
//
// Each canonical config is a small, fixed run through the public API; its
// digest lists the exact counts (events, samples generated / delivered /
// dropped, batches) and every reported metric printed as %.17g, which
// round-trips a double.  The golden file under tests/digest/ holds the
// digests of the commit that introduced or last deliberately changed them,
// so any change to event order, RNG draws, or floating-point accumulation
// order shows up as a line diff against it.
//
// Regenerate (only for a deliberate, documented stream change):
//   ./build/tests/digest_dump > tests/digest/golden.txt
#pragma once

#include <string>
#include <vector>

namespace paradyn::digest {

/// Names of the canonical configs, in golden-file order.
[[nodiscard]] std::vector<std::string> config_names();

/// Run one canonical config and return its digest section: a "[name]"
/// header line followed by one "key value" line per count or metric.
[[nodiscard]] std::string run_config(const std::string& name);

/// "#"-prefixed header naming the toolchain that produced a digest: the
/// compiler and the C library providing libm.  Informational only — the
/// comparison skips "#" lines.
[[nodiscard]] std::string toolchain_header();

}  // namespace paradyn::digest
