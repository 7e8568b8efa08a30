// Bit-identity gate: every canonical run must reproduce its section of the
// checked-in golden file byte for byte (see digest.hpp).  A mismatch means a
// change moved event order, an RNG draw, or a floating-point accumulation
// order.  The failing run's full section is written next to the test binary
// as digest_actual_<name>.txt for diffing against the golden section.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "digest.hpp"

namespace paradyn::digest {
namespace {

/// The golden file's section for `name` (its "[name]" line through the line
/// before the next section), with "#" comment lines skipped.
std::string golden_section(const std::string& name) {
  std::ifstream in(PARADYN_DIGEST_GOLDEN);
  std::string line;
  std::string section;
  bool inside = false;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line[0] == '[') inside = line == "[" + name + "]";
    if (inside) section += line + "\n";
  }
  return section;
}

/// Index of the first differing line, for a readable failure message.
std::string first_difference(const std::string& expected, const std::string& actual) {
  std::istringstream e(expected);
  std::istringstream a(actual);
  std::string le;
  std::string la;
  for (int n = 1;; ++n) {
    const bool more_e = static_cast<bool>(std::getline(e, le));
    const bool more_a = static_cast<bool>(std::getline(a, la));
    if (!more_e && !more_a) return "none";
    if (!more_e || !more_a || le != la) {
      return "line " + std::to_string(n) + ": golden '" + (more_e ? le : "<end>") +
             "' vs actual '" + (more_a ? la : "<end>") + "'";
    }
  }
}

class Digest : public ::testing::TestWithParam<std::string> {};

TEST_P(Digest, MatchesGolden) {
  const std::string& name = GetParam();
  const std::string expected = golden_section(name);
  ASSERT_FALSE(expected.empty()) << "no [" << name << "] section in " << PARADYN_DIGEST_GOLDEN;
  const std::string actual = run_config(name);
  if (actual != expected) {
    std::ofstream("digest_actual_" + name + ".txt") << actual;
    ADD_FAILURE() << "[" << name << "] differs from the golden file; first difference at "
                  << first_difference(expected, actual) << "\nthis build:\n"
                  << toolchain_header();
  }
}

INSTANTIATE_TEST_SUITE_P(Canonical, Digest, ::testing::ValuesIn(config_names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

TEST(DigestGolden, HasExactlyTheCanonicalSections) {
  std::ifstream in(PARADYN_DIGEST_GOLDEN);
  ASSERT_TRUE(in) << PARADYN_DIGEST_GOLDEN;
  std::string sections;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] == '[') sections += line + "\n";
  }
  std::string expected;
  for (const auto& name : config_names()) expected += "[" + name + "]\n";
  EXPECT_EQ(sections, expected);
}

TEST(DigestGolden, ShardCountsAgree) {
  // The partitioned engine is shard-count invariant, so the 1- and 4-shard
  // sections must match once their headers are dropped.
  const auto body = [](const std::string& name) {
    const std::string s = golden_section(name);
    return s.substr(s.find('\n') + 1);
  };
  EXPECT_EQ(body("now_shards1"), body("now_shards4"));
}

}  // namespace
}  // namespace paradyn::digest
