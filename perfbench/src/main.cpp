// E-TSN benchmark entry point.
//
//   etsn_perfbench --workload paper_sweep|plant_churn|sim_soak --seed N
//                  --seconds S --trace 0|1
//   etsn_perfbench --selftest
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and the metrics the workload measured (the end-to-end set
// untraced, its layers traced).  perfbench/run.py completes that line from
// BENCHMARK.json: a layer a workload does not exercise reads 0 there.  A
// traced run also writes its spans to .bench_out/.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.h"

namespace {

using pb::Metric;

void appendMetric(std::string& out, const Metric& m, bool first) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  out += buf;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: etsn_perfbench --workload "
               "paper_sweep|plant_churn|sim_soak --seed N --seconds S "
               "--trace 0|1\n       etsn_perfbench --selftest\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pb::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--selftest") return pb::runSelfTests() == 0 ? 0 : 1;
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v, &end, 10);
      if (end == v || *end) return usage("--seed takes a whole number");
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v, &end);
      if (end == v || *end || opt.seconds <= 0) {
        return usage("--seconds takes a positive number");
      }
    } else if (a == "--trace") {
      if (std::strcmp(v, "0") && std::strcmp(v, "1")) {
        return usage("--trace takes 0 or 1");
      }
      opt.trace = v[0] == '1';
    } else {
      return usage(("unknown flag " + a).c_str());
    }
  }

  pb::Tracer tracer(opt.trace);
  pb::Outcome out;
  try {
    if (opt.workload == "paper_sweep") {
      pb::runPaperSweep(opt, tracer, out);
    } else if (opt.workload == "plant_churn") {
      pb::runPlantChurn(opt, tracer, out);
    } else if (opt.workload == "sim_soak") {
      pb::runSimSoak(opt, tracer, out);
    } else {
      return usage("unknown workload");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: workload aborted: %s\n", e.what());
    return 1;
  }

  for (const std::string& e : out.errors) {
    std::printf("check failed: %s\n", e.c_str());
  }
  if (!opt.trace && !out.endToEnd.empty()) {
    out.endToEnd.push_back({"peak_rss_mb", pb::peakRssMb(), "MB"});
  }
  std::string named = "{";
  for (std::size_t i = 0; i < out.named.size(); ++i) {
    appendMetric(named, out.named[i], i == 0);
  }
  std::printf("%s figures: %s}\n", opt.workload.c_str(), named.c_str());

  const std::vector<Metric>& metrics = opt.trace ? out.layers : out.endToEnd;
  if (opt.trace) {
    std::filesystem::create_directories(pb::kSpanDir);
    const std::string path = std::string(pb::kSpanDir) + "/spans-" +
                             opt.workload + "-" + std::to_string(opt.seed) +
                             ".json";
    if (!tracer.write(path)) {
      std::fprintf(stderr, "error: cannot write spans to %s\n", path.c_str());
      return 1;
    }
    std::printf("spans written to %s\n", path.c_str());
  }

  std::string line = "{\"correct\": ";
  line += out.errorCount == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(out.attempted);
  line += ", \"failed\": " + std::to_string(out.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    appendMetric(line, metrics[i], i == 0);
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}
