// Repository benchmark program.
//
//   perfbench --workload table04|now_pdes|mpp_tree_faults --seed N
//             --seconds S --trace 0|1 --metrics NAME:UNIT,...
//             [--trace-out FILE] [--commit ID]
//
// Each workload is a batch job: one caller runs it to completion, then the
// next operation starts (a closed loop with one client).  The program
// repeats the checked operation until the time budget is spent (at least
// kMinOps times) and reports medians.  Set-up (build + attach, no run) is
// sampled before the first operation and again after every one, so its
// median covers the same stretch of host load as the operations.
// --trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
// and traced operations and reports the per-layer split plus the tracing
// overhead.  --metrics names the metrics to report, in order, with their
// units; run.py passes BENCHMARK.json's end_to_end (--trace 0) or per_layer
// (--trace 1) list, so that file is the only list.  A named metric the run
// did not measure is an error unless its layer is one the workload
// bypasses (then it reads 0), and so is a measured metric left unnamed.
// The last stdout line is the JSON result; everything before it is for
// people.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <malloc.h>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "workloads.hpp"

namespace {

using perfbench::now_ns;

constexpr int kSetupReps = 10;  ///< Before the first and after each operation.
constexpr int kMinOps = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string trace_out;
  std::string commit = "unknown";
  std::vector<std::pair<std::string, std::string>> metrics;  ///< (name, unit)
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload table04|now_pdes|mpp_tree_faults "
               "--seed N --seconds S --trace 0|1 --metrics NAME:UNIT,... [--trace-out FILE] "
               "[--commit ID]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = !value.empty() && *end == '\0';
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0') a.seconds = 0.0;
    } else if (flag == "--trace") {
      a.trace = value == "0" ? 0 : value == "1" ? 1 : -1;
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else if (flag == "--commit") {
      a.commit = value;
    } else if (flag == "--metrics") {
      std::size_t pos = 0;
      while (pos <= value.size()) {
        const std::size_t comma = std::min(value.find(',', pos), value.size());
        const std::string item = value.substr(pos, comma - pos);
        const std::size_t colon = item.find(':');
        if (colon == std::string::npos || colon == 0 || colon + 1 == item.size()) {
          usage("--metrics item '" + item + "' is not NAME:UNIT");
        }
        a.metrics.emplace_back(item.substr(0, colon), item.substr(colon + 1));
        pos = comma + 1;
      }
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!have_seed) usage("--seed must be a non-negative integer");
  if (!(a.seconds > 0.0 && a.seconds <= 3600.0)) usage("--seconds must be in (0, 3600]");
  if (a.trace < 0) usage("--trace must be 0 or 1");
  if (a.metrics.empty()) usage("--metrics is required");
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// "median 1.234 (min 1.2, max 1.3, n=5)".
std::string spread(const std::vector<double>& v, double scale, const char* unit) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "median %.4f %s (min %.4f, max %.4f, n=%zu)",
                median(v) * scale, unit, *std::min_element(v.begin(), v.end()) * scale,
                *std::max_element(v.begin(), v.end()) * scale, v.size());
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

/// Host provenance: CPU model and AVX-512 support from /proc/cpuinfo.
void cpu_info(std::string& model, bool& avx512) {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  model = "unknown";
  avx512 = false;
  while (std::getline(in, line)) {
    if (model == "unknown" && line.rfind("model name", 0) == 0) {
      model = line.substr(line.find(':') + 2);
    } else if (line.rfind("flags", 0) == 0) {
      avx512 = line.find(" avx512f") != std::string::npos;
      break;
    }
  }
}

/// Peak resident set of this process image (VmHWM).  getrusage's
/// ru_maxrss is not used: Linux carries it across exec, so it would report
/// the launching process's peak when that was larger.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

/// Start VmHWM afresh from the current resident set, after handing freed
/// heap back to the kernel, so untimed preparation does not count.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  auto workload = perfbench::make_workload(args.workload, args.seed);
  if (!workload) usage("unknown workload " + args.workload);

  std::string cpu_model;
  bool avx512 = false;
  cpu_info(cpu_model, avx512);
  std::printf("{\"provenance\": {\"commit\": \"%s\", \"nproc\": %u, \"cpu\": \"%s\", "
              "\"avx512f\": %s, \"compiler\": \"%s\", \"build_type\": \"%s\", "
              "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d}}\n",
              json_escape(args.commit).c_str(), std::thread::hardware_concurrency(),
              json_escape(cpu_model).c_str(), avx512 ? "true" : "false", PERFBENCH_COMPILER,
              PERFBENCH_BUILD_TYPE, args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_digest;
  bool printed_summary = false;
  std::vector<double> setup_s;
  std::vector<double> wall_untraced;
  std::vector<double> wall_traced;
  std::map<std::string, std::vector<double>> layers;
  perfbench::SpanLog spans;

  const auto operation = [&](bool traced) {
    ++attempted;
    perfbench::Outcome out;
    const std::int32_t span = traced ? spans.begin("perfbench.operation") : -1;
    try {
      out = workload->execute(traced ? &spans : nullptr);
    } catch (const std::exception& e) {
      out.failures.push_back(std::string("exception: ") + e.what());
    }
    if (traced) spans.end(span);
    // Same seed, same simulated statistics: repeated and traced operations
    // must reproduce the first one exactly.
    if (out.failures.empty()) {
      if (first_digest.empty()) first_digest = out.digest;
      if (out.digest != first_digest) {
        out.failures.push_back(std::string(traced ? "traced" : "repeated") +
                               " operation changed the simulated results");
      }
    }
    if (!out.failures.empty()) {
      ++failed;
      for (const auto& f : out.failures) std::fprintf(stderr, "perfbench: FAILED: %s\n", f.c_str());
      return;
    }
    if (!printed_summary) {
      for (const auto& line : out.summary) std::printf("digest: %s\n", line.c_str());
      printed_summary = true;
    }
    setup_s.push_back(out.setup_s);
    (traced ? wall_traced : wall_untraced).push_back(out.wall_s);
    for (const auto& [name, value] : out.layers) layers[name].push_back(value);
  };

  const auto sample_setup = [&] {
    for (int i = 0; i < kSetupReps; ++i) setup_s.push_back(workload->setup_only());
  };
  try {
    workload->prepare();
    std::printf("peak_rss_mb after untimed preparation: %.2f (reset before set-up)\n",
                peak_rss_mb());
    reset_peak_rss();
    sample_setup();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n", e.what());
    return 1;
  }

  // Repeat until the budget would be overrun by one more operation (or
  // pair of operations, when traced), after a minimum count.
  const std::int64_t start = now_ns();
  const auto elapsed = [&] { return static_cast<double>(now_ns() - start) / 1e9; };
  const int min_rounds = args.trace ? 1 : kMinOps;
  for (int round = 1;; ++round) {
    operation(false);
    if (args.trace) operation(true);
    if (failed > 0 && round >= min_rounds) break;
    sample_setup();
    const double per_round = elapsed() / round;
    if (round >= min_rounds && elapsed() + per_round > args.seconds) break;
  }

  if (!wall_untraced.empty()) {
    std::printf("wall_s: %s\nwall_s per operation:", spread(wall_untraced, 1.0, "s").c_str());
    for (const double w : wall_untraced) std::printf(" %.4f", w);
    std::printf("\n");
    std::printf("setup_s: %s\n", spread(setup_s, 1e3, "ms").c_str());
  }
  if (!wall_traced.empty()) {
    std::printf("traced wall_s: %s\n", spread(wall_traced, 1.0, "s").c_str());
  }

  std::map<std::string, double> values;
  if (args.trace == 0) {
    values["wall_s"] = median(wall_untraced);
    values["setup_s"] = median(setup_s);
    values["peak_rss_mb"] = peak_rss_mb();
  } else {
    for (const auto& [name, v] : layers) values[name] = median(v);
    values["stats.draw_ns"] = workload->draw_ns();
    const double untraced = median(wall_untraced);
    values["trace_overhead_pct"] =
        untraced > 0 ? 100.0 * (median(wall_traced) - untraced) / untraced : 0.0;
    if (!args.trace_out.empty()) {
      try {
        spans.write_json(args.trace_out, args.workload);
        std::printf("spans written to %s\n", args.trace_out.c_str());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
      }
    }
  }

  // Report exactly the requested metrics.  When every operation passed,
  // the requested and the measured names must agree, except for metrics of
  // layers the workload bypasses, which read 0.
  const auto bypassed = [&](const std::string& name) {
    for (const std::string& layer : workload->bypassed_layers()) {
      if (name.rfind(layer + ".", 0) == 0) return true;
    }
    return false;
  };
  std::string metrics;
  for (const auto& [name, unit] : args.metrics) {
    const auto it = values.find(name);
    if (it == values.end() && failed == 0 && !bypassed(name)) {
      std::fprintf(stderr, "perfbench: metric %s is not measured on %s\n", name.c_str(),
                   args.workload.c_str());
      return 1;
    }
    const double v = it == values.end() || !std::isfinite(it->second) ? 0.0 : it->second;
    if (args.trace) std::printf("layer %-34s %.6g %s\n", name.c_str(), v, unit.c_str());
    char buf[224];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", json_escape(name).c_str(), v,
                  json_escape(unit).c_str());
    metrics += buf;
    values.erase(name);
  }
  if (!values.empty()) {
    std::fprintf(stderr, "perfbench: measured metric %s is not requested\n",
                 values.begin()->first.c_str());
    return 1;
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              failed == 0 ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
  return 0;
}
