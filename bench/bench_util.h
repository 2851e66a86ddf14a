#ifndef RULEKIT_BENCH_BENCH_UTIL_H_
#define RULEKIT_BENCH_BENCH_UTIL_H_

// Shared helpers for the experiment-reproduction binaries. Each bench
// prints the paper's reported numbers alongside the measured ones; the
// reproduction target is the *shape* (who wins, directions, ratios), not
// absolute magnitudes — see EXPERIMENTS.md.

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "src/chimera/pipeline.h"
#include "src/chimera/request.h"

namespace rulekit::bench {

/// Runs `items` through ChimeraPipeline::Classify(ClassifyRequest), the
/// one real entry point, for the default tenant and returns its report.
inline chimera::BatchReport RunBatch(
    const chimera::ChimeraPipeline& pipeline,
    const std::vector<data::ProductItem>& items) {
  chimera::ClassifyRequest request;
  request.items = items;
  return pipeline.Classify(request).report;
}

/// Smoke mode (RULEKIT_BENCH_SMOKE=1): every bench shrinks its iteration
/// budget to a did-it-run sanity size — `scripts/check.sh --bench-smoke`
/// exercises all binaries end to end in seconds instead of minutes. The
/// measured numbers are meaningless in smoke mode; only exit status and
/// output plumbing are under test.
inline bool SmokeMode() {
  const char* env = std::getenv("RULEKIT_BENCH_SMOKE");
  return env != nullptr && *env != '\0' && std::strcmp(env, "0") != 0;
}

/// `full` normally, `smoke` under RULEKIT_BENCH_SMOKE.
inline size_t SmokeN(size_t full, size_t smoke) {
  return SmokeMode() ? smoke : full;
}

/// For google-benchmark binaries: in smoke mode, returns an argv with
/// --benchmark_min_time=0.01 appended (and bumps *argc), so every
/// registered timer runs a token repetition instead of its full budget.
/// Pass the result to benchmark::Initialize. A no-op outside smoke mode.
inline char** SmokeBenchmarkArgs(int* argc, char** argv) {
  if (!SmokeMode()) return argv;
  static std::vector<char*> patched;
  static char flag[] = "--benchmark_min_time=0.01";
  patched.assign(argv, argv + *argc);
  patched.push_back(flag);
  patched.push_back(nullptr);
  *argc += 1;
  return patched.data();
}

inline void Header(const char* experiment, const char* paper_artifact) {
  std::printf("==============================================================="
              "=========\n");
  std::printf("%s\n", experiment);
  std::printf("reproduces: %s\n", paper_artifact);
  std::printf("==============================================================="
              "=========\n");
}

inline void Section(const char* title) {
  std::printf("\n--- %s ---\n", title);
}

inline void PaperNote(const char* fmt, ...) {
  std::printf("  [paper] ");
  va_list ap;
  va_start(ap, fmt);
  std::vprintf(fmt, ap);
  va_end(ap);
  std::printf("\n");
}

}  // namespace rulekit::bench

#endif  // RULEKIT_BENCH_BENCH_UTIL_H_
