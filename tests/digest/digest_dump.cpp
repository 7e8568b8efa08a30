// Print the full canonical-run digest (toolchain header + every section) to
// stdout.  Regenerating the golden file is a deliberate stream change:
//   ./build/tests/digest_dump > tests/digest/golden.txt
#include <cstdio>

#include "digest.hpp"

int main() {
  std::fputs(paradyn::digest::toolchain_header().c_str(), stdout);
  for (const auto& name : paradyn::digest::config_names()) {
    std::fputs(paradyn::digest::run_config(name).c_str(), stdout);
  }
  return 0;
}
