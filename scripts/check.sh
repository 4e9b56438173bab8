#!/usr/bin/env bash
# Tier-1 verification: configure + build + full ctest + the loopback
# integration check (psc_serve/psc_client round-trip), then rebuild the
# align kernels plus the store/service/net layers under ASan/UBSan
# (PSC_ENABLE_SANITIZERS) and rerun their tests, so the SIMD kernel's
# lane loads/stores, the step-2 windows read in place from the banks'
# padded arenas, the mmap-backed
# index views (including the
# corrupted-file rejection paths), and the wire-frame parsers (including
# the malformed-frame rejection paths) are memory-checked.
#
# Usage: scripts/check.sh [jobs]
set -euo pipefail
cd "$(dirname "$0")/.."
jobs=${1:-$(nproc)}

echo "== tier 1: build + full test suite =="
cmake -B build -S . >/dev/null
cmake --build build -j "$jobs"
# The log keeps every case's output: an intermittent failure names its
# case even after the console scrolls past it.
ctest --test-dir build --output-on-failure --output-log build/ctest-tier1.log \
  -j "$jobs"

echo "== tier 1: step-3 kernel shoot-out bench builds =="
cmake --build build -j "$jobs" --target step3_kernels

echo "== tier 1: board-residency bench builds =="
cmake --build build -j "$jobs" --target board_residency

echo "== tier 1: loopback integration check =="
scripts/loopback_check.sh build

echo "== tier 1: sharding equivalence check =="
scripts/shard_check.sh build

echo "== tier 1: cluster fan-out check (router vs unsharded) =="
scripts/cluster_check.sh build

echo "== tier 1: multi-tenant check (quotas + fair scheduler) =="
scripts/tenant_check.sh build

echo "== tier 1: live-ingest check (append+refresh vs full rebuild) =="
scripts/ingest_check.sh build

echo "== sanitizers: align/index/core/rasc/store/service/net/cluster tests under ASan/UBSan =="
cmake -B build-asan -S . \
  -DPSC_ENABLE_SANITIZERS=ON \
  -DPSC_BUILD_BENCH=OFF \
  -DPSC_BUILD_EXAMPLES=OFF >/dev/null
cmake --build build-asan -j "$jobs" --target align_test index_test \
  core_test rasc_test store_test service_test net_test cluster_test
ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=halt_on_error=1 \
  ctest --test-dir build-asan --output-on-failure \
  -R '^(align|index|core|rasc|store|service|net|cluster)_test$'

echo "== sanitizers: board cache + scheduler focused run under ASan =="
# The board cache is shared mutable state across worker passes and the
# scheduler reorders the worker's own queue; keep both memory-checked
# even if the suite regexes above are reshuffled.
ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=halt_on_error=1 \
  ./build-asan/tests/rasc_test --gtest_filter='BoardCache.*'
ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=halt_on_error=1 \
  ./build-asan/tests/service_test --gtest_filter='BoardScheduler.*'

echo "== sanitizers: step-2 windows read in place, focused run under ASan =="
# Windows are pointers into the banks' padded arenas and the striped
# transpose gathers them by pointer; keep the arena edges (first and last
# residue of the first and last sequence, an empty sequence, flank = pad)
# memory-checked even if the suite regexes above are reshuffled.
ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=halt_on_error=1 \
  ./build-asan/tests/index_test --gtest_filter='WindowBatch.*:ExtractWindows.*'
ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=halt_on_error=1 \
  ./build-asan/tests/align_test \
  --gtest_filter='UngappedSimd.*:SubstitutionRows.*:StripedWindows.*'

echo "== sanitizers: untrusted stats and wire payloads, focused run under ASan =="
# Every truncation and byte flip of a stats payload must decode or throw
# CodecError, and every malformed frame must be refused; keep both
# memory-checked even if the suite regexes above are reshuffled.
ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=halt_on_error=1 \
  ./build-asan/tests/service_test --gtest_filter='ServiceCodec.*'
ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=halt_on_error=1 \
  ./build-asan/tests/net_test --gtest_filter='Wire.*'

echo "== sanitizers: step-3 kernel equality focused run under ASan =="
# Redundant with the suite runs above on purpose: the bit-identity
# property (every kernel tier x worker count) must stay memory-checked
# even if the suites above are reshuffled.
ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=halt_on_error=1 \
  ./build-asan/tests/align_test --gtest_filter='GappedSimd.*'
ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=halt_on_error=1 \
  ./build-asan/tests/core_test --gtest_filter='Step3Kernels.*'

echo "== sanitizers: executor/pipeline/rasc/store/service/cluster tests under TSan =="
# rasc_test: the RASC driver simulates key chunks on executor workers
# beside a BoardCache shared by the FPGA tasks. store_test: the sharded
# store writes its shards as executor tasks.
cmake -B build-tsan -S . \
  -DPSC_ENABLE_SANITIZERS=thread \
  -DPSC_BUILD_BENCH=OFF \
  -DPSC_BUILD_EXAMPLES=OFF >/dev/null
cmake --build build-tsan -j "$jobs" --target util_test core_test \
  rasc_test store_test service_test cluster_test
TSAN_OPTIONS="halt_on_error=1 suppressions=$PWD/scripts/tsan.supp" \
  ctest --test-dir build-tsan --output-on-failure \
  -R '^(util|core|rasc|store|service|cluster)_test$'

echo "== sanitizers: step-3 kernel equality (parallel steps 2 and 3) under TSan =="
TSAN_OPTIONS="halt_on_error=1 suppressions=$PWD/scripts/tsan.supp" \
  ./build-tsan/tests/core_test --gtest_filter='Step3Kernels.*'

echo "== sanitizers: board scheduler byte-identity under TSan =="
# The affinity scheduler changes which thread touches the board cache
# when; the byte-identity property tests drive the full worker loop.
TSAN_OPTIONS="halt_on_error=1 suppressions=$PWD/scripts/tsan.supp" \
  ./build-tsan/tests/service_test --gtest_filter='BoardScheduler.*'

echo "== all checks passed =="
