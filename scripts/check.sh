#!/usr/bin/env bash
# One-command verification gauntlet: configure, build, and ctest the
# plain tree, the ASan+UBSan tree, and the TSan tree.
#
#   scripts/check.sh                     # all three trees
#   scripts/check.sh plain               # just one (plain | asan | tsan)
#   scripts/check.sh --labels stress     # only tests with a matching ctest
#                                        # label (unit | stress | storage |
#                                        # tenant | serving | replication |
#                                        # optimizer | drift)
#   scripts/check.sh tsan --labels 'stress|storage'
#   scripts/check.sh tsan --labels 'replication|stress'  # the replication
#                                        # stream + concurrency tiers under
#                                        # TSan (the races that matter most)
#   scripts/check.sh tsan --labels optimizer  # optimize-while-serving race
#                                        # check (the concurrency test is
#                                        # dual-labeled optimizer+stress)
#   scripts/check.sh tsan --labels drift # the self-healing loop under TSan
#                                        # (drift_stress_test is dual-labeled
#                                        # drift+stress)
#   scripts/check.sh tsan --labels tenant # tenant isolation plus the
#                                        # multi-tenant writer stress under
#                                        # TSan (chimera_concurrency_test is
#                                        # dual-labeled stress+tenant)
#   scripts/check.sh --bench-smoke       # build the plain tree and run every
#                                        # bench binary once with a tiny
#                                        # iteration budget (RULEKIT_BENCH_
#                                        # SMOKE=1) in a fresh empty dir that
#                                        # must stay empty — a did-it-run
#                                        # gate, not a measurement
#   scripts/check.sh --timeout 120      # per-test seconds, overriding the
#                                        # TIMEOUT each test registers
#   CHECK_JOBS=4 scripts/check.sh        # override parallelism
#
# Every test carries a cmake-registered TIMEOUT (tests/CMakeLists.txt),
# so a deadlocked stress test fails its own entry instead of hanging the
# whole run; --timeout tightens or loosens that per invocation.
#
# Build dirs: build/ (plain), build-asan/, build-tsan/ — the same trees
# the README documents, so incremental rebuilds stay warm.

set -euo pipefail

cd "$(dirname "$0")/.."
jobs="${CHECK_JOBS:-$(nproc 2>/dev/null || echo 2)}"

labels=""
timeout=""
want=""
bench_smoke=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --labels)   labels="${2:?--labels needs a ctest -L regex}"; shift 2 ;;
    --labels=*) labels="${1#*=}"; shift ;;
    --timeout)   timeout="${2:?--timeout needs seconds}"; shift 2 ;;
    --timeout=*) timeout="${1#*=}"; shift ;;
    --bench-smoke) bench_smoke=1; shift ;;
    all|plain|asan|tsan)
      if [[ -n "${want}" ]]; then
        echo "error: more than one tree selected ('${want}', '$1')" >&2
        exit 2
      fi
      want="$1"; shift ;;
    *)
      echo "usage: $0 [all|plain|asan|tsan] [--labels <regex>] [--timeout <sec>] [--bench-smoke]" >&2
      exit 2 ;;
  esac
done
want="${want:-all}"

ctest_flags=(--output-on-failure -j "${jobs}")
if [[ -n "${labels}" ]]; then
  ctest_flags+=(-L "${labels}")
fi
if [[ -n "${timeout}" ]]; then
  ctest_flags+=(--timeout "${timeout}")
fi

run_tree() {
  local name="$1" dir="$2"
  shift 2
  echo "=== [${name}] configure ${dir} ==="
  cmake -B "${dir}" -S . "$@"
  echo "=== [${name}] build ==="
  cmake --build "${dir}" -j "${jobs}"
  echo "=== [${name}] ctest ==="
  ctest --test-dir "${dir}" "${ctest_flags[@]}"
}

run_bench_smoke() {
  local benches
  benches="$(sed -n 's/^rulekit_add_bench(\([a-z0-9_]*\).*/\1/p' \
    bench/CMakeLists.txt)"
  echo "=== [bench-smoke] configure build ==="
  cmake -B build -S .
  echo "=== [bench-smoke] build benches ==="
  cmake --build build -j "${jobs}" --target ${benches}
  echo "=== [bench-smoke] run each bench with a token budget ==="
  # Each bench runs in a fresh empty directory that is both its working
  # directory and its TMPDIR. A bench prints its numbers; anything it
  # leaves behind there (a stray result file, an unremoved scratch store)
  # fails the gate.
  local bin_dir="${PWD}/build/bench" failed=0 name work log
  for name in ${benches}; do
    echo "--- ${name} ---"
    work="$(mktemp -d)"
    log="/tmp/${name}.smoke.log"
    if ! (cd "${work}" && TMPDIR="${work}" RULEKIT_BENCH_SMOKE=1 \
            "${bin_dir}/${name}" > "${log}" 2>&1); then
      echo "FAILED: ${name} (log: ${log})" >&2
      tail -20 "${log}" >&2
      failed=1
    elif [[ -n "$(ls -A "${work}")" ]]; then
      echo "FAILED: ${name} left files behind:" >&2
      ls -A "${work}" >&2
      failed=1
    fi
    rm -rf "${work}"
  done
  [[ "${failed}" -eq 0 ]] || exit 1
  echo "=== all benches ran clean in smoke mode and left no files ==="
}

if [[ "${bench_smoke}" -eq 1 ]]; then
  run_bench_smoke
  exit 0
fi

case "${want}" in
  all)
    run_tree plain build
    run_tree asan build-asan -DRULEKIT_SANITIZE=address
    run_tree tsan build-tsan -DRULEKIT_SANITIZE=thread
    ;;
  plain) run_tree plain build ;;
  asan)  run_tree asan build-asan -DRULEKIT_SANITIZE=address ;;
  tsan)  run_tree tsan build-tsan -DRULEKIT_SANITIZE=thread ;;
esac

echo "=== all requested trees passed ==="
