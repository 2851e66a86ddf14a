// perfbench: the RuleKit benchmark binary. Usually started through
// `python3 perfbench/run.py`, which builds it first:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>] [--source-digest <hex>] [--git-sha <sha>]
//
// Prints a run record line and, last, the result line
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exits non-zero, printing no result, when the arguments are
// bad or the load generator could not keep its schedule.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "harness.h"

namespace {

bool KnownWorkload(const std::string& name) {
  return name == "catalog_ingest" || name == "serve_steady" ||
         name == "serve_noisy_neighbour" || name == "edit_churn";
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <catalog_ingest|"
               "serve_steady|serve_noisy_neighbour|edit_churn> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--source-digest") {
      args.source_digest = value;
    } else if (flag == "--git-sha") {
      args.git_sha = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !KnownWorkload(args.workload)) {
    return Usage("unknown or missing --workload");
  }
  if (!(args.seconds > 0)) return Usage("--seconds must be positive");
  std::filesystem::create_directories(args.work_dir);

  perfbench::Report report;
  report.Record("workload", args.workload);
  report.Record("seed", static_cast<double>(args.seed));
  report.Record("seconds", args.seconds);
  report.Record("trace", args.trace ? 1.0 : 0.0);
  report.Record("nproc", static_cast<double>(perfbench::Cores()));
  report.Record("compiler", "g++ " __VERSION__);
  report.Record("git_sha", args.git_sha);
  report.Record("source_digest", args.source_digest);
  if (args.trace) {
    perfbench::RunTraced(args, report);
  } else {
    perfbench::RunUntraced(args, report);
  }
  if (!report.invalid_reason.empty()) {
    std::fprintf(stderr, "perfbench: run invalid: %s\n",
                 report.invalid_reason.c_str());
    return 3;
  }
  report.Print();
  return 0;
}
