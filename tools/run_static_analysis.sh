#!/usr/bin/env bash
# Full static-analysis and dynamic-checking sweep:
#
#   1. nectar-lint over src/ tests/ bench/ (rules D1-D8, A1; the
#      layer rules D6/D8 come from its access-graph pass over src/);
#   2. clang-tidy with the repo .clang-tidy config, if installed
#      (the CI container only ships g++, so this step is skipped
#      there — run it locally where LLVM is available);
#   3. a NECTAR_CHECKED build (SIM_INVARIANT enabled) running the
#      tier-1 suite;
#   4. an address+undefined sanitizer build running the tier-1 suite.
#
# Every stage runs even when an earlier one fails; the script prints
# a per-stage summary and exits non-zero if ANY stage failed (no
# abort-on-first, no last-stage-wins).  Usage:
# tools/run_static_analysis.sh [--fast] (skip the two
# rebuild-and-test stages).

set -uo pipefail
cd "$(dirname "$0")/.."

fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

declare -a results=()
failed=0

# run <label> <cmd...>: run one stage, record its exit code, keep
# going regardless.
run() {
    local label=$1
    shift
    echo "== ${label} =="
    "$@"
    local rc=$?
    if [[ ${rc} -eq 0 ]]; then
        results+=("ok      ${label}")
    else
        results+=("FAILED  ${label} (rc=${rc})")
        failed=1
    fi
    return 0
}

# The lint binary is a hard prerequisite for stage 1; if it will
# not even build there is nothing meaningful to aggregate.
if ! cmake -B build -S . >/dev/null ||
   ! cmake --build build --target nectar-lint -j >/dev/null; then
    echo "error: configure/build of nectar-lint failed" >&2
    exit 2
fi

run "nectar-lint (rules D1-D8)" \
    ./build/tools/nectar-lint/nectar-lint src tests bench

if command -v clang-tidy >/dev/null 2>&1; then
    tidy_stage() {
        cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
            >/dev/null &&
        mapfile -t sources < <(git ls-files 'src/*.cc') &&
        clang-tidy -p build --quiet "${sources[@]}"
    }
    run "clang-tidy" tidy_stage
else
    echo "== clang-tidy =="
    echo "clang-tidy not installed; skipping (config in .clang-tidy)"
    results+=("skipped clang-tidy (not installed)")
fi

if [[ $fast -eq 1 ]]; then
    echo "== --fast: skipping checked + sanitizer builds =="
else
    checked_stage() {
        cmake -B build-checked -S . -DNECTAR_CHECKED=ON >/dev/null &&
        cmake --build build-checked -j >/dev/null &&
        ctest --test-dir build-checked -L tier1 -j "$(nproc)" \
              --output-on-failure >/dev/null &&
        echo "tier1 green under NECTAR_CHECKED"
    }
    run "NECTAR_CHECKED build (runtime invariants)" checked_stage

    asan_stage() {
        cmake -B build-asan -S . \
              -DNECTAR_SANITIZE=address,undefined >/dev/null &&
        cmake --build build-asan -j >/dev/null &&
        ctest --test-dir build-asan -L tier1 -j "$(nproc)" \
              --output-on-failure >/dev/null &&
        echo "tier1 green under ASan+UBSan"
    }
    run "address+undefined sanitizer build" asan_stage
fi

echo "== summary =="
printf '  %s\n' "${results[@]}"
if [[ ${failed} -ne 0 ]]; then
    echo "== analysis FAILED =="
    exit 1
fi
echo "== all analysis passes clean =="
