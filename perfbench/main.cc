// flipc_perfbench: one workload of the wall-clock benchmark per invocation.
//
//   flipc_perfbench --workload pingpong|stream|fanin --seed N --seconds S
//                   --trace 0|1 [--inject none|short-sink|swap-seq|flip-byte|skip-record]
//
// Prints a detail line (checks, sample counts) and, last, one JSON object
// with the keys correct, attempted, failed and metrics. Exits 1 when an
// output check fails and 2 on a usage error.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "perfbench/workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "flipc_perfbench: %s\nusage: flipc_perfbench --workload pingpong|stream|fanin "
               "--seed N --seconds S --trace 0|1 "
               "[--inject none|short-sink|swap-seq|flip-byte|skip-record]\n",
               why);
  return 2;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
    }
    out += ch;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Usage(("missing value for " + flag).c_str());
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        return Usage("--trace takes 0 or 1");
      }
      config.trace = value == "1";
    } else if (flag == "--inject") {
      if (value == "none") {
        config.inject = perfbench::Inject::kNone;
      } else if (value == "short-sink") {
        config.inject = perfbench::Inject::kShortSink;
      } else if (value == "swap-seq") {
        config.inject = perfbench::Inject::kSwapSeq;
      } else if (value == "flip-byte") {
        config.inject = perfbench::Inject::kFlipByte;
      } else if (value == "skip-record") {
        config.inject = perfbench::Inject::kSkipRecord;
      } else {
        return Usage("unknown --inject");
      }
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && (*end != '\0' || end == value.c_str())) {
      return Usage(("bad number for " + flag).c_str());
    }
  }
  if (!perfbench::KnownWorkload(config.workload)) {
    return Usage("unknown or missing --workload");
  }
  if (!(config.seconds > 0 && config.seconds <= 120)) {
    return Usage("--seconds must be in (0, 120]");
  }

  const perfbench::Report report = perfbench::RunBenchmark(config);

  std::string checks = "{";
  for (std::size_t i = 0; i < report.checks.size(); ++i) {
    const perfbench::Check& c = report.checks[i];
    checks += (i == 0 ? "" : ", ") + Quote(c.name) + ": {\"ok\": " + (c.ok ? "true" : "false") +
              ", \"detail\": " + Quote(c.detail) + "}";
  }
  checks += "}";
  std::printf("{\"detail\": {\"workload\": %s, \"seed\": %llu, \"trace\": %d, \"checks\": %s, "
              "\"figures\": %s}}\n",
              Quote(config.workload).c_str(), static_cast<unsigned long long>(config.seed),
              config.trace ? 1 : 0, checks.c_str(), perfbench::MetricsJson(report.detail).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              report.correct() ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              perfbench::MetricsJson(report.metrics).c_str());
  return report.correct() ? 0 : 1;
}
