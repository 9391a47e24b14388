// perfbench: the benchmark of record. Usually run through run.py, which
// builds it; see README.md.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
//
// Prints one JSON line last on stdout: {"correct", "attempted", "failed",
// "metrics"}; with --out also writes the full result (header, details).
// Exits 1 when any output check failed, 2 on bad arguments.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "harness.h"
#include "obs/tracer.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "refactor|retrieve|session|learned --seed N --seconds S "
               "--trace 0|1 [--out FILE]\n",
               why);
  return 2;
}

bool ParseNumber(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return !text.empty() && end != nullptr && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  std::string out_path;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Usage(("missing value for " + flag).c_str());
    }
    const std::string value = argv[++i];
    double number = 0.0;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--out") {
      out_path = value;
    } else if (!ParseNumber(value, &number)) {
      return Usage(("bad value for " + flag).c_str());
    } else if (flag == "--seed" && number >= 0) {
      options.seed = static_cast<std::uint64_t>(number);
    } else if (flag == "--seconds" && number > 0) {
      options.seconds = number;
    } else if (flag == "--trace" && (number == 0 || number == 1)) {
      options.trace = number == 1;
    } else {
      return Usage(("bad flag " + flag).c_str());
    }
  }
  bool known = false;
  for (const std::string& name : WorkloadNames()) {
    known = known || name == options.workload;
  }
  if (!have_workload || !known) {
    return Usage("unknown workload");
  }
  // Spans come from the benchmark only; the library's tracer stays off.
  mgardp::obs::GlobalTracer().set_enabled(false);

  const Report report = RunWorkload(options);
  const bool correct = report.failed == 0;

  JsonObject metrics;
  for (const Metric& m : report.metrics) {
    metrics.Raw(m.name,
                JsonObject().Num("value", m.value).Str("unit", m.unit).str());
  }
  JsonObject line;
  line.Bool("correct", correct)
      .Num("attempted", static_cast<double>(report.attempted))
      .Num("failed", static_cast<double>(report.failed))
      .Raw("metrics", metrics.str());

  if (!out_path.empty()) {
    std::string failures = "[";
    for (std::size_t i = 0; i < report.failures.size(); ++i) {
      failures += (i > 0 ? ", " : "") + JsonString(report.failures[i]);
    }
    failures += "]";
    JsonObject full;
    full.Str("schema", "mgardp-perfbench/1")
        .Raw("header", HeaderJson(options.seed, report.working_set_bytes))
        .Str("workload", options.workload)
        .Num("trace", options.trace ? 1 : 0)
        .Num("seconds", options.seconds)
        .Bool("correct", correct)
        .Num("attempted", static_cast<double>(report.attempted))
        .Num("failed", static_cast<double>(report.failed))
        .Raw("failures", failures)
        .Raw("metrics", metrics.str())
        .Raw("details", report.details_json);
    std::ofstream out(out_path);
    out << full.str() << "\n";
    if (!out) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", out_path.c_str());
      return 2;
    }
  }
  for (const std::string& f : report.failures) {
    std::fprintf(stderr, "perfbench: FAILED %s\n", f.c_str());
  }
  std::printf("%s\n", line.str().c_str());
  return correct ? 0 : 1;
}
