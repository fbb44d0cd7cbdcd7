#!/usr/bin/env sh
# Capture the scheduler perf trajectory into BENCH_sched.json.
#
# Runs bench_sched_perf --json (median wall time plus effort counters
# for every Table-1 kernel x evaluation machine, block mode, and a
# pipelined subset) and stores the capture as the "current" snapshot
# in BENCH_sched.json at the repo root, then runs bench_modulo_ii
# --json (the II-search suite: cold vs serial vs speculative parallel)
# into the "modulo_ii" section the same way, and bench_serve_latency
# --json (open-loop p50/p99 through the cs_serve daemon, cold vs warm
# cache) into the "serve_latency" section — its telemetry-overhead A/B
# (warm p50 with the JSONL sampler off vs on) lands in the
# "serve_telemetry" section — and bench_dse_sweep --json
# (cold 1000-job design-space sweep, shared-analysis + in-flight-dedup
# ON vs OFF) into the "dse_sweep" section. The first capture of each
# section also becomes its "baseline" snapshot; later runs keep the
# committed baseline so the two can be diffed release-over-release.
# Every captured section is stamped with the capturing machine's core
# count ("nproc"), and a capture in which any section ran zero jobs is
# rejected without touching BENCH_sched.json.
#
# Usage: bench/run_perf.sh [build-dir]
#   BUILD_DIR  build directory (default: build; overridden by $1)
#   REPS       repetitions per entry, median taken (default: 5)
#
# Timing note: the medians are wall-clock. Run on an otherwise idle
# machine or the capture measures the scheduler plus your browser.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-${BUILD_DIR:-$repo_root/build}}
reps=${REPS:-5}
bench="$build_dir/bench/bench_sched_perf"
bench_ii="$build_dir/bench/bench_modulo_ii"
bench_serve="$build_dir/bench/bench_serve_latency"
bench_tput="$build_dir/bench/bench_pipeline_throughput"
bench_dse="$build_dir/bench/bench_dse_sweep"
out="$repo_root/BENCH_sched.json"

for binary in "$bench" "$bench_ii" "$bench_serve" "$bench_tput" \
              "$bench_dse"; do
    if [ ! -x "$binary" ]; then
        echo "run_perf.sh: $binary not found; build the bench targets" \
             "first (cmake --build $build_dir --target" \
             "bench_sched_perf bench_modulo_ii" \
             "bench_serve_latency bench_pipeline_throughput" \
             "bench_dse_sweep)" >&2
        exit 1
    fi
done

tmp=$(mktemp)
tmp_ii=$(mktemp)
tmp_serve=$(mktemp)
tmp_scaling=$(mktemp)
tmp_tput=$(mktemp)
tmp_dse=$(mktemp)
trap 'rm -f "$tmp" "$tmp_ii" "$tmp_serve" "$tmp_scaling" "$tmp_tput" \
      "$tmp_dse"' EXIT
"$bench" --json --reps "$reps" > "$tmp"
"$bench_ii" --json --reps "$reps" > "$tmp_ii"
"$bench_serve" --json --reps "$reps" > "$tmp_serve"
"$bench_ii" --json --scaling --reps "$reps" > "$tmp_scaling"
"$bench_tput" --json-scaling > "$tmp_tput"
# The sweep bench runs two cold 1000-job sweeps per rep; keep its rep
# count separate (DSE_REPS) so the default capture stays quick.
"$bench_dse" --json --reps "${DSE_REPS:-1}" > "$tmp_dse"

python3 - "$tmp" "$tmp_ii" "$tmp_serve" "$tmp_scaling" "$tmp_tput" \
    "$tmp_dse" "$out" <<'EOF'
import json
import os
import statistics
import sys

(capture_path, capture_ii_path, capture_serve_path, capture_scaling_path,
 capture_tput_path, capture_dse_path, out_path) = sys.argv[1:8]
with open(capture_path) as f:
    capture = json.load(f)
with open(capture_ii_path) as f:
    capture_ii = json.load(f)
with open(capture_serve_path) as f:
    capture_serve = json.load(f)
with open(capture_scaling_path) as f:
    capture_scaling = json.load(f)
with open(capture_tput_path) as f:
    capture_tput = json.load(f)
with open(capture_dse_path) as f:
    capture_dse = json.load(f)["dse_sweep"]

job_counts = {
    "current": len(capture["entries"]),
    "modulo_ii": len(capture_ii["entries"]),
    "serve_latency": sum(e["requests"] for e in capture_serve["entries"]),
    "scaling.ii_search": len(capture_scaling["points"]),
    "scaling.pipeline": capture_tput["jobs"],
    "dse_sweep": capture_dse["jobs"],
}
empty = sorted(name for name, count in job_counts.items() if count <= 0)
if empty:
    sys.exit(f"run_perf.sh: zero jobs recorded in {', '.join(empty)}; "
             f"{out_path} left unchanged")

nproc = os.cpu_count()
for section in (capture, capture_ii, capture_serve, capture_scaling,
                capture_tput, capture_dse):
    section["nproc"] = nproc

try:
    with open(out_path) as f:
        doc = json.load(f)
except (FileNotFoundError, json.JSONDecodeError):
    doc = {}

if "baseline" not in doc:
    doc["baseline"] = capture
doc["current"] = capture

modulo_ii = doc.setdefault("modulo_ii", {})
if "baseline" not in modulo_ii:
    modulo_ii["baseline"] = capture_ii
modulo_ii["current"] = capture_ii

serve_latency = doc.setdefault("serve_latency", {})
if "baseline" not in serve_latency:
    serve_latency["baseline"] = capture_serve
serve_latency["current"] = capture_serve

# The telemetry A/B rides in the same serve capture; store it as its
# own section so the overhead trajectory is diffable on its own.
if "telemetry" in capture_serve:
    serve_telemetry = doc.setdefault("serve_telemetry", {})
    if "baseline" not in serve_telemetry:
        serve_telemetry["baseline"] = capture_serve["telemetry"]
    serve_telemetry["current"] = capture_serve["telemetry"]

dse_sweep = doc.setdefault("dse_sweep", {})
if "baseline" not in dse_sweep:
    dse_sweep["baseline"] = capture_dse
dse_sweep["current"] = capture_dse

# Scaling curves (II search + full pipeline) are recorded, not gated:
# wall-time speedup is only meaningful at the capturing machine's core
# count (stored as hardware_concurrency in each capture), so the
# snapshot documents the curve rather than enforcing it.
scaling = doc.setdefault("scaling", {})
scaling["ii_search"] = capture_scaling
scaling["pipeline"] = capture_tput

with open(out_path, "w") as f:
    json.dump(doc, f, indent=1)
    f.write("\n")

def total(snapshot):
    return sum(e["median_ms"] for e in snapshot["entries"])

base, cur = total(doc["baseline"]), total(doc["current"])
ratio = base / cur if cur else float("inf")
print(f"wrote {out_path}: {len(capture['entries'])} entries, "
      f"total median {cur:.1f} ms (baseline {base:.1f} ms, x{ratio:.2f})")

by_mode = {}
for e in capture_ii["entries"]:
    by_mode.setdefault((e["kernel"], e["machine"]), {})[e["mode"]] = e
ratios = [pair["cold"]["median_ms"] / pair["serial"]["median_ms"]
          for pair in by_mode.values()
          if "cold" in pair and "serial" in pair
          and pair["serial"]["median_ms"] > 0]
if ratios:
    print(f"modulo_ii: {len(capture_ii['entries'])} entries, median "
          f"cold/serial x{statistics.median(ratios):.2f} "
          f"(shared-context reuse, single-threaded)")

print(f"dse_sweep: {capture_dse['jobs']} cold jobs over "
      f"{capture_dse['points']} machines, shared/isolated throughput "
      f"x{capture_dse['throughput_ratio']:.2f} (context hit rate "
      f"{capture_dse['shared']['context_hit_rate']:.2f}, "
      f"{capture_dse['shared']['dedup_joins']} in-flight joins)")

phases = {e["phase"]: e for e in capture_serve["entries"]}
if "cold" in phases and "warm" in phases:
    print(f"serve_latency: cold p50 {phases['cold']['p50_ms']:.2f} ms / "
          f"warm p50 {phases['warm']['p50_ms']:.2f} ms "
          f"({phases['cold']['requests']} open-loop requests per phase)")

ab = capture_serve.get("telemetry")
if ab:
    print(f"serve_telemetry: warm p50 {ab['p50_off_ms']:.3f} ms off -> "
          f"{ab['p50_on_ms']:.3f} ms on "
          f"(sampler every {ab['sampler_interval_ms']} ms)")

by_point = {(p["workers"], p["order"]): p
            for p in capture_scaling["points"]}
for workers in sorted({w for (w, _) in by_point}):
    fixed = by_point.get((workers, "fixed"))
    adaptive = by_point.get((workers, "adaptive"))
    if fixed and adaptive:
        print(f"scaling {workers}w: fixed {fixed['median_ms']:.1f} ms / "
              f"{fixed['attempts_wasted']} wasted -> adaptive "
              f"{adaptive['median_ms']:.1f} ms / "
              f"{adaptive['attempts_wasted']} wasted "
              f"(warm {adaptive['attempts_wasted_warm']})")
print(f"scaling captured at hardware_concurrency="
      f"{capture_scaling['hardware_concurrency']}")
EOF
