#!/usr/bin/env bash
# Verification matrix (docs/ROBUSTNESS.md "Sanitizer builds"): builds and
# tests the tree under every supported hardening configuration.
#
#   plain    default build, full ctest suite
#   asan     FIXEDPART_SANITIZE=address,undefined; the concurrency +
#            robustness labels, INCLUDING `isolate` (fork/exec process
#            pool) — the isolate battery is ASan-certified
#   tsan     FIXEDPART_SANITIZE=thread; the concurrency labels, but NOT
#            `isolate`: the process pool forks from a threaded process,
#            which TSan's runtime does not support
#   large    plain build, `scale`-labeled tests only, with
#            FIXEDPART_LARGE_CELLS bumped to 1M (opt-in: not part of the
#            default matrix; sanitizer configs export
#            FIXEDPART_LARGE_SKIP=1 so RSS budgets never run under
#            shadow memory)
#
# Usage: scripts/check.sh [plain|asan|tsan|large ...] (default:
# plain asan tsan)
# Build trees land in build-check-<config>/ at the repo root. Inside a git
# checkout the script first fails if any generated tree (build*/ or
# .bench_build/) is tracked, so build output is never committed.
set -euo pipefail

repo=$(cd "$(dirname "$0")/.." && pwd)
jobs=$(nproc 2>/dev/null || echo 4)
configs=("$@")
[ ${#configs[@]} -gt 0 ] || configs=(plain asan tsan)

if git -C "$repo" rev-parse --is-inside-work-tree >/dev/null 2>&1; then
  tracked=$(git -C "$repo" ls-files -- ':(glob)**/build*/**' \
    ':(glob)**/.bench_build/**' | sed -n 1,5p)
  if [ -n "$tracked" ]; then
    echo "FAIL: generated build trees are tracked by git:" >&2
    echo "$tracked" >&2
    echo "(git rm -r --cached them; .gitignore lists build*/)" >&2
    exit 1
  fi
fi

run_config() {
  local name=$1
  shift
  local cmake_args=("$@")
  local build_dir="$repo/build-check-$name"
  echo "=== [$name] configure: ${cmake_args[*]:-(defaults)}"
  cmake -S "$repo" -B "$build_dir" "${cmake_args[@]}" >/dev/null
  echo "=== [$name] build"
  cmake --build "$build_dir" -j "$jobs" >/dev/null
  echo "=== [$name] ctest ${ctest_args[*]}"
  ctest --test-dir "$build_dir" --output-on-failure -j "$jobs" \
    "${ctest_args[@]}"
}

for config in "${configs[@]}"; do
  case "$config" in
    plain)
      ctest_args=()
      run_config plain
      ;;
    asan)
      # `obs` is a ctest -L regex: it also matches obs-http. isolate is
      # deliberately in: the fork/exec supervision tree runs under ASan.
      ctest_args=(-L "fault|svc|obs|parallel|serve|isolate|trace")
      FIXEDPART_LARGE_SKIP=1 run_config asan \
        -DFIXEDPART_SANITIZE=address,undefined
      ;;
    tsan)
      # -LE isolate: the serve-labeled worker-crash E2E and the process
      # pool unit battery fork from threaded processes — unsupported
      # under TSan, certified under ASan instead.
      ctest_args=(-L "svc|obs|parallel|serve|trace" -LE isolate)
      FIXEDPART_LARGE_SKIP=1 run_config tsan -DFIXEDPART_SANITIZE=thread
      ;;
    large)
      # Million-vertex scale gate: the `scale` smoke at the committed
      # BENCH_LARGE size. Opt-in (scripts/check.sh large) — minutes of
      # wall clock and ~2.5 GB RSS budget.
      ctest_args=(-L scale)
      FIXEDPART_LARGE_CELLS=1000000 run_config large
      ;;
    *)
      echo "unknown config: $config (want plain|asan|tsan|large)" >&2
      exit 2
      ;;
  esac
done

echo "PASS: check matrix (${configs[*]})"
