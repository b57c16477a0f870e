#!/usr/bin/env bash
# Lists the functions under src/ that no program calls.
#
# Builds the tree with gcc's --coverage at -O1, with bench/suite attached so
# that cumulon_bench's workloads count, and runs only the programs, never a
# unit test:
#   - the five examples and the CLI's ctest commands (ctest -R 'cli_|example_')
#   - `cumulon calibrate`, and `cumulon predict` for every workload
#   - every bench_* binary except E9, E10 and A5 (E17-E19 at --quick)
#   - `cumulon serve`, driven by `bench_e18_service --quick --connect`
#   - cumulon_bench on each of its workloads for 5 s
# Then it prints each src/ function that none of them called, one
# "file:line name" per line, sorted, leaving out lambdas and destructors.
# The instantiations of a template count as one function, called when any
# of them was.
#
#   tools/program_coverage.sh [BUILD_DIR] > uncalled.txt
#
# BUILD_DIR defaults to build-coverage. Needs gcc and gcov. The build uses
# every core and takes about 4 minutes on a 4-core host; the runs take
# about 2. Progress goes to stderr; the list is the only thing on stdout.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="$(realpath -m "${1:-$root/build-coverage}")"
log="$build/program_coverage.log"

say() { echo "program_coverage: $*" >&2; }

say "configuring $build"
cmake -S "$root" -B "$build" -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS=--coverage -DCMAKE_CXX_FLAGS_RELEASE="-O1 -DNDEBUG" \
  -DCMAKE_EXE_LINKER_FLAGS=--coverage \
  -DCMAKE_PROJECT_cumulon_INCLUDE="$root/bench/suite/attach.cmake" \
  > /dev/null
: > "$log"

say "building (log: $log)"
benches=()
for src in "$root"/bench/bench_*.cc; do
  name="$(basename "$src" .cc)"
  case "$name" in
    bench_e9_* | bench_e10_* | bench_a5_*) ;;
    *) benches+=("$name") ;;
  esac
done
cmake --build "$build" -j"$(nproc)" --target cumulon cumulon_bench quickstart \
  gnmf pca_power rsvd deployment_planner "${benches[@]}" >> "$log" 2>&1

find "$build" -name '*.gcda' -delete
run() { "$@" >> "$log" 2>&1 || say "exit $? from: $*"; }

say "running examples and CLI commands"
(cd "$build" && run ctest -R '^(cli|example)_')
run "$build/tools/cumulon" calibrate
for w in rsvd gnmf linreg pagerank logreg; do
  run "$build/tools/cumulon" predict --workload "$w"
done

say "running ${#benches[@]} benches"
for name in "${benches[@]}"; do
  case "$name" in
    bench_e17_* | bench_e18_* | bench_e19_*) run "$build/bench/$name" --quick ;;
    *) run "$build/bench/$name" ;;
  esac
done

say "running cumulon serve under bench_e18_service --connect"
sock="$build/program_coverage.sock"
state="$build/program_coverage_state"
rm -rf "$sock" "$state" && mkdir -p "$state"
"$build/tools/cumulon" serve --listen "unix:$sock" --state-dir "$state" \
  >> "$log" 2>&1 &
serve_pid=$!
for _ in $(seq 1 100); do
  [ -S "$sock" ] && break
  sleep 0.2
done
# The daemon exits only on the client's DRAIN: stop it when the client fails
# (no socket, a refused HELLO or DRAIN), or the wait below never returns.
"$build/bench/bench_e18_service" --quick --connect "unix:$sock" \
  >> "$log" 2>&1 || {
  say "exit $? from bench_e18_service --connect; stopping cumulon serve"
  kill "$serve_pid" 2> /dev/null || true
}
wait "$serve_pid" || say "cumulon serve exited $?"

say "running cumulon_bench workloads"
for w in $("$build/cumulon_bench" --list); do
  run "$build/cumulon_bench" --workload "$w" --seed 1 --seconds 5
done

say "collecting gcov data"
gcov_dir="$build/program_coverage_gcov"
rm -rf "$gcov_dir" && mkdir -p "$gcov_dir"
# Every object of src/ has a .gcno; one with no .gcda ran in no program,
# and gcov reports its functions with zero calls.
find "$build/src" -name '*.gcno' > "$gcov_dir/objects.txt"
(cd "$gcov_dir" && xargs -a objects.txt gcov --json-format --preserve-paths \
  > /dev/null 2> gcov.err || true)
# A .gcda written by an object older than its .gcno (a source edited during
# the build) is dropped by gcov, and its functions would read as uncalled.
if grep -q 'stamp mismatch' "$gcov_dir/gcov.err"; then
  say "gcov found stale coverage data; rebuild and run again:"
  grep 'stamp mismatch' "$gcov_dir/gcov.err" >&2
  exit 1
fi
python3 - "$gcov_dir" "$root" <<'EOF'
import gzip, json, os, sys

gcov_dir, root = sys.argv[1], sys.argv[2]
src = os.path.join(root, "src") + os.sep
# (file, first line) -> the shortest name instantiated there; a template's
# instantiations share one entry.
names, called = {}, set()
for name in os.listdir(gcov_dir):
    if not name.endswith(".gcov.json.gz"):
        continue
    with gzip.open(os.path.join(gcov_dir, name)) as f:
        data = json.load(f)
    for entry in data["files"]:
        path = os.path.normpath(os.path.join(data["current_working_directory"],
                                             entry["file"]))
        if not path.startswith(src):
            continue
        rel = os.path.relpath(path, root)
        for fn in entry["functions"]:
            demangled = fn["demangled_name"]
            if "{lambda" in demangled or "::~" in demangled:
                continue
            key = (rel, fn["start_line"])
            names[key] = min(names.get(key, demangled), demangled,
                             key=lambda n: (len(n), n))
            if fn["execution_count"] > 0:
                called.add(key)
for rel, line in sorted(set(names) - called):
    print(f"{rel}:{line} {names[(rel, line)]}")
EOF
