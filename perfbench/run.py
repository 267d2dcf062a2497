#!/usr/bin/env python3
"""The repository benchmark: three workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload busy-oracle --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload warm-render --seed 2 --seconds 50 --trace 1
    python3 perfbench/run.py --bless      # rewrite perfbench/reference.json

The script builds `svwsim` and the `svw-perfbench` helper from source (into
`$CARGO_TARGET_DIR`, default `.bench_build`), sets up the benchmark's own trace
and result caches under `.bench_work`, and then measures for `--seconds`.

With `--trace 0` every pass runs the `svwsim` CLI with tracing off and the run
reports the end-to-end metrics. With `--trace 1` the run checks one CLI pass
against a replay of the same cells through each crate's public functions
(`svw-perfbench replay`) and reports the per-layer metrics. Every output is
checked against the reference digests in `reference.json`; the last line of
standard output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`, and the exit code is non-zero on any failure. See README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK = os.path.join(ROOT, ".bench_work")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
BUSY_SPEC = os.path.join(BENCH_DIR, "bench-busy.toml")

ARTIFACTS = [
    "fig5", "fig6", "fig7", "fig8", "ssn-width", "spec-ssbf", "substrate-ssbf",
    "summary", "adversarial-ssbf", "adversarial-svw",
]

# Each workload: where its cells come from, the trace length, whether every
# pass starts from an empty result cache, and whether the oracle is on.
WORKLOADS = {
    "fig5-cold": {"sources": ["fig5"], "trace_len": 20000, "cold": True, "oracle": False},
    "busy-oracle": {"sources": [BUSY_SPEC], "trace_len": 100000, "cold": True, "oracle": True},
    "warm-render": {"sources": ARTIFACTS, "trace_len": 2000, "cold": False, "oracle": False},
}

# The workload seeds a run may use. `--seed n` picks pool[n % len(pool)]. The
# pools hold seeds whose passes cost about the same, so runs with different
# seeds measure the host, not a different amount of work: across seeds 1-24
# the modelled cycles of a pass vary by -24%..+31% (fig5), -27%..+46%
# (bench-busy) and -27%..+47% (warm-render). bench-busy seeds 2, 3, 9 and
# warm-render seeds 2, 8, 15 are within 2.3% of the same cycles. fig5 seeds 15,
# 18, 20 are within 5.6% of the same cycles and took the same host time within
# the noise of interleaved passes; seed 1, which has as many cycles, took
# 8-25% longer, so it is not in the pool.
POOLS = {"fig5-cold": [15, 18, 20], "busy-oracle": [2, 3, 9], "warm-render": [2, 8, 15]}

SETUP_REPEATS = {"fig5-cold": 15, "busy-oracle": 15, "warm-render": 3}
MIN_PASSES = 3

COUNT_KEYS = [
    "cycles", "committed", "commit_stalled_on_reexec", "reexec_port_conflicts",
    "reexec_flushes", "ordering_flushes", "svw_marked_loads", "svw_filtered_loads",
    "svw_reexecuted_loads", "svw_ssbf_store_updates", "svw_ssbf_invalidation_updates",
    "fwd_buffer_lookups", "fwd_buffer_hits", "l1d_read_misses", "l1d_write_misses",
    "l2_read_misses", "l2_write_misses", "mem_accesses", "branch_mispredictions",
    "store_set_squashes",
]

# Layers whose self time the replay records, in pass order.
LAYERS = [
    "sim.registry", "sim.plan", "sim.cache_lookup", "trace.acquire", "trace.decode",
    "workloads.generate", "cpu.reset", "cpu.run", "oracle.check", "sim.cache_store",
    "sim.render", "sim.report",
]
SETUP_LAYERS = ["sim.registry", "trace.acquire", "workloads.generate", "sim.render"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    """A failure that leaves no result to report (build, set-up, bad input)."""


# ------------------------------------------------------------------ building


def build():
    """Builds svwsim and svw-perfbench; returns their paths."""
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "svw-sim", "--bin", "svwsim"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(BENCH_DIR, "Cargo.toml")],
    ):
        if not os.path.exists(os.path.join(ROOT, "Cargo.toml")):
            raise BenchError("no Cargo.toml at the repository root: nothing to build")
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    release = os.path.join(target, "release")
    return os.path.join(release, "svwsim"), os.path.join(release, "svw-perfbench")


def host_facts():
    def first_line(cmd):
        try:
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        except OSError:
            return "unknown"
        return done.stdout.strip().splitlines()[0] if done.returncode == 0 and done.stdout else "unknown"

    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "build_profile": "release (opt-level 3, debug = true)",
        "rustc": first_line(["rustc", "-V"]),
        "git_commit": first_line(["git", "rev-parse", "HEAD"]),
    }


# ------------------------------------------------------------------ running


def run_child(cmd, env):
    """Runs one process; returns (wall seconds, peak RSS in KiB, exit code, stdout, stderr)."""
    out_path = os.path.join(WORK, "child.out")
    err_path = os.path.join(WORK, "child.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as f:
        stdout = f.read()
    with open(err_path, "rb") as f:
        stderr = f.read().decode(errors="replace")
    return wall, usage.ru_maxrss, proc.returncode, stdout, stderr


def child_env(trace_cache):
    env = dict(os.environ)
    env.pop("SVW_RESULT_CACHE", None)
    env["SVW_TRACE_CACHE"] = trace_cache
    return env


def source_args(source):
    return ["--spec", source] if source.endswith(".toml") else ["--figure", source]


def source_name(source):
    return os.path.splitext(os.path.basename(source))[0] if source.endswith(".toml") else source


def svwsim_cmd(svwsim, wl, source, seed, result_cache, as_json, extra=()):
    cmd = [svwsim, "sweep", *source_args(source), "--trace-len", str(wl["trace_len"]),
           "--seed", str(seed), "--jobs", "1"]
    cmd += ["--result-cache", result_cache] if result_cache else ["--no-result-cache"]
    if wl["oracle"]:
        cmd.append("--oracle")
    if as_json:
        cmd.append("--json")
    return cmd + list(extra)


def cache_line(stderr):
    """(cached, simulated) from svwsim's result-cache summary line, or None."""
    for line in stderr.splitlines():
        if line.startswith("[svwsim] result cache ") and " cached, " in line:
            tail = line.split("): ", 1)[1].split(", ")
            return int(tail[0].split()[0]), int(tail[1].split()[0])
    return None


def digest(data):
    return hashlib.sha256(data).hexdigest()


class Tally:
    """Cells attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def fail(self, cells, reason):
        self.failed += cells
        if len(self.reasons) < 10:
            self.reasons.append(reason)
        log(f"FAIL: {reason}")


def check_invocation(tally, ref, wl, source, fmt, code, stdout, stderr):
    """Checks one svwsim invocation's output and cache behaviour."""
    cells = ref["cells"]
    tally.attempted += cells
    name = source_name(source)
    if code != 0:
        tally.fail(cells, f"{name} ({fmt}): svwsim exited {code}: {stderr.strip()[-300:]}")
        return
    if digest(stdout) != ref[fmt]:
        tally.fail(cells, f"{name} ({fmt}): output digest differs from the reference")
        return
    counts = cache_line(stderr)
    if counts is None:
        tally.fail(cells, f"{name} ({fmt}): no result-cache summary on stderr")
    elif wl["cold"] and counts[0] != 0:
        tally.fail(counts[0], f"{name} ({fmt}): {counts[0]} cell(s) served from a cache that must be empty")
    elif not wl["cold"] and counts[1] != 0:
        tally.fail(counts[1], f"{name} ({fmt}): {counts[1]} cell(s) missed the warm result cache")


def cli_pass(svwsim, wl, refs, seed, dirs, index, tally, out_dir=None):
    """One end-to-end pass through the CLI.

    Returns (wall s, peak RSS KiB, modelled cycles delivered, cache hits, lookups).

    A cold pass renders its source once, as text on even and JSON on odd pass
    indexes, so a run checks both digests; a warm pass renders every source
    twice, text then JSON. With `out_dir`, every invocation also streams its
    cells to a JSONL file there (for the exact-count check)."""
    env = child_env(dirs["traces"])
    wall = 0.0
    peak = cycles = hits = lookups = 0
    for source in wl["sources"]:
        formats = [index % 2 == 1] if wl["cold"] else [False, True]
        for as_json in formats:
            if wl["cold"]:
                rc = os.path.join(dirs["root"], "rc-pass")
                shutil.rmtree(rc, ignore_errors=True)
            else:
                rc = dirs["rc"]
            extra = []
            if out_dir is not None and not as_json:
                extra = ["--out", os.path.join(out_dir, source_name(source) + ".jsonl")]
            cmd = svwsim_cmd(svwsim, wl, source, seed, rc, as_json, extra)
            secs, rss, code, stdout, stderr = run_child(cmd, env)
            wall += secs
            peak = max(peak, rss)
            fmt = "json" if as_json else "text"
            ref = refs[source_name(source)]
            check_invocation(tally, ref, wl, source, fmt, code, stdout, stderr)
            cycles += ref["cycles"]
            counts = cache_line(stderr)
            if counts:
                hits += counts[0]
                lookups += counts[0] + counts[1]
            if wl["cold"]:
                shutil.rmtree(rc, ignore_errors=True)
    return wall, peak, cycles, hits, lookups


def helper(perfbench, command, wl, seed, dirs, extra=()):
    sources = wl["sources"][0] if wl["sources"][0].endswith(".toml") else ",".join(wl["sources"])
    cmd = [perfbench, command, "--sources", sources, "--trace-len", str(wl["trace_len"]),
           "--seed", str(seed), "--trace-cache", dirs["traces"], *extra]
    done = subprocess.run(cmd, cwd=ROOT, env=child_env(dirs["traces"]), capture_output=True, text=True)
    if done.returncode != 0:
        raise BenchError(f"svw-perfbench {command} failed: {done.stderr.strip()[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def set_up(perfbench, name, wl, seed):
    """Sets up from empty caches several times; keeps the last set-up's caches.

    Returns (list of set-up outputs, dirs of the kept set-up)."""
    results = []
    dirs = None
    for k in range(SETUP_REPEATS[name]):
        if dirs:
            shutil.rmtree(dirs["root"], ignore_errors=True)
        root = os.path.join(WORK, f"setup-{k}")
        shutil.rmtree(root, ignore_errors=True)
        dirs = {"root": root, "traces": os.path.join(root, "traces"), "rc": os.path.join(root, "rc")}
        extra = [] if wl["cold"] else ["--result-cache", dirs["rc"]]
        results.append(helper(perfbench, "setup", wl, seed, dirs, extra))
        if results[-1]["trace_misses"] == 0:
            raise BenchError("set-up found a warm trace cache; the benchmark's caches are not isolated")
    return results, dirs


# ------------------------------------------------------------------ metrics


def median(values):
    return statistics.median(values) if values else 0.0


def ratio(num, den):
    return num / den if den else 0.0


def jsonl_counts(out_dir):
    totals = dict.fromkeys(COUNT_KEYS, 0)
    for fname in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, fname)) as f:
            for line in f:
                cell = json.loads(line)
                for key in COUNT_KEYS:
                    totals[key] += cell[key]
    return totals


def layer_metrics(counts, self_s, setup_self, replay, cli_wall, hit_ratio):
    c = counts
    cpu_run = self_s.get("cpu.run", 0.0)
    traced = sorted((p for p in replay["passes"] if p["traced"]), key=lambda p: p["wall_s"])
    untraced = [p for p in replay["passes"] if not p["traced"]]
    traced_wall = traced[len(traced) // 2]["wall_s"] if traced else 0.0
    untraced_wall = median([p["wall_s"] for p in untraced])
    self_sum = sum(self_s.values())
    m = {
        "cpu.run_s": (cpu_run, "s"),
        "cpu.reset_s": (self_s.get("cpu.reset", 0.0), "s"),
        "cpu.ns_per_cycle": (1e9 * ratio(cpu_run, c["cycles"]) if cpu_run else 0.0, "ns"),
        "cpu.ns_per_inst": (1e9 * ratio(cpu_run, c["committed"]) if cpu_run else 0.0, "ns"),
        "cpu.cycles": (c["cycles"], "count"),
        "cpu.committed": (c["committed"], "count"),
        "cpu.ipc": (ratio(c["committed"], c["cycles"]), "inst/cycle"),
        "cpu.commit_stalled_on_reexec": (c["commit_stalled_on_reexec"], "cycles"),
        "cpu.reexec_port_conflicts": (c["reexec_port_conflicts"], "cycles"),
        "cpu.reexec_flushes": (c["reexec_flushes"], "count"),
        "cpu.ordering_flushes": (c["ordering_flushes"], "count"),
        "core.marked_loads": (c["svw_marked_loads"], "count"),
        "core.filtered_loads": (c["svw_filtered_loads"], "count"),
        "core.reexecuted_loads": (c["svw_reexecuted_loads"], "count"),
        "core.filter_ratio": (ratio(c["svw_filtered_loads"], c["svw_marked_loads"]), "ratio"),
        "core.ssbf_updates": (c["svw_ssbf_store_updates"] + c["svw_ssbf_invalidation_updates"], "count"),
        "lsq.fwd_buffer_lookups": (c["fwd_buffer_lookups"], "count"),
        "lsq.fwd_buffer_hit_ratio": (ratio(c["fwd_buffer_hits"], c["fwd_buffer_lookups"]), "ratio"),
        "mem.l1d_misses": (c["l1d_read_misses"] + c["l1d_write_misses"], "count"),
        "mem.l2_misses": (c["l2_read_misses"] + c["l2_write_misses"], "count"),
        "mem.memory_accesses": (c["mem_accesses"], "count"),
        "pred.branch_mispredictions": (c["branch_mispredictions"], "count"),
        "pred.store_set_squashes": (c["store_set_squashes"], "count"),
        "oracle.check_s": (self_s.get("oracle.check", 0.0), "s"),
        "oracle.divergences": (replay["divergences"], "count"),
        "trace.acquire_s": (self_s.get("trace.acquire", 0.0), "s"),
        "trace.decode_s": (self_s.get("trace.decode", 0.0), "s"),
        "trace.hits": (replay["trace_hits"], "count"),
        "trace.misses": (replay["trace_misses"], "count"),
        "trace.bytes": (replay["trace_bytes"], "bytes"),
        "workloads.generate_s": (self_s.get("workloads.generate", 0.0), "s"),
        "sim.registry_s": (self_s.get("sim.registry", 0.0), "s"),
        "sim.plan_s": (self_s.get("sim.plan", 0.0), "s"),
        "sim.cache_lookup_s": (self_s.get("sim.cache_lookup", 0.0), "s"),
        "sim.cache_hit_ratio": (hit_ratio, "ratio"),
        "sim.cache_store_s": (self_s.get("sim.cache_store", 0.0), "s"),
        "sim.render_s": (self_s.get("sim.render", 0.0), "s"),
        "sim.report_s": (self_s.get("sim.report", 0.0), "s"),
        "tracing.pass_s": (traced_wall, "s"),
        "tracing.untraced_pass_s": (untraced_wall, "s"),
        "tracing.overhead_ratio": (ratio(traced_wall, untraced_wall) - 1.0, "ratio"),
        "tracing.self_sum_s": (self_sum, "s"),
        "tracing.cover_ratio": (ratio(self_sum, traced_wall), "ratio"),
        "tracing.cli_pass_s": (cli_wall, "s"),
    }
    for layer in SETUP_LAYERS:
        m[f"setup.{layer}_s"] = (setup_self.get(layer, 0.0), "s")
    return m


def median_layers(samples, layers):
    return {layer: median([s.get(layer, 0.0) for s in samples]) for layer in layers}


# ------------------------------------------------------------------ modes


def untraced_run(svwsim, perfbench, name, wl, refs, seed, seconds, tally):
    setups, dirs = set_up(perfbench, name, wl, seed)
    walls, rss = [], []
    start = time.perf_counter()
    # Start another pass only if it is expected to end within the budget.
    while len(walls) < MIN_PASSES or time.perf_counter() - start + median(walls) <= seconds:
        wall, peak, _, _, _ = cli_pass(svwsim, wl, refs, seed, dirs, len(walls), tally)
        walls.append(wall)
        rss.append(peak)
    log(f"{len(walls)} pass(es): wall " + " ".join(f"{w:.3f}" for w in walls))
    # Other tenants of a shared host only ever add time, and they come and go
    # within seconds, so the fastest pass is the steadiest estimate of what the
    # code costs; the same holds for set-up.
    return {
        "wall_s": (min(walls), "s"),
        "peak_rss_mb": (median(rss) / 1024.0, "MiB"),
        "setup_s": (min(s["setup_s"] for s in setups), "s"),
    }


def traced_run(svwsim, perfbench, name, wl, refs, seed, seconds, tally):
    start = time.perf_counter()
    setups, dirs = set_up(perfbench, name, wl, seed)
    out_dir = os.path.join(WORK, "jsonl")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    cli_wall, _, cycles, hits, lookups = cli_pass(svwsim, wl, refs, seed, dirs, 0, tally, out_dir)
    cli_counts = jsonl_counts(out_dir)

    budget = max(1.0, seconds - (time.perf_counter() - start))
    extra = ["--result-cache", dirs["rc"] if not wl["cold"] else os.path.join(dirs["root"], "rc-replay"),
             "--seconds", f"{budget:.3f}"]
    if wl["cold"]:
        extra.append("--cold")
    if wl["oracle"]:
        extra.append("--oracle")
    replay = helper(perfbench, "replay", wl, seed, dirs, extra)

    cells = replay["cells"]
    tally.attempted += cells * len(replay["passes"])
    if replay["failures"]:
        tally.fail(replay["failures"], f"replay: {replay['divergences']} divergence(s), "
                   f"{replay['render_misses']} render miss(es), {replay['stats_mismatches']} "
                   "oracle/plain statistics mismatch(es) or unexpected cache hits")
    if replay["unstable_passes"]:
        tally.fail(cells * replay["unstable_passes"], "replay passes disagree with each other")
    for render in replay["renders"]:
        ref = refs[render["source"]]
        for fmt in ("text", "json"):
            if digest(render[fmt].encode()) != ref[fmt]:
                tally.fail(ref["cells"], f"replay {render['source']} ({fmt}): digest differs from the reference")
    if replay["counts"] != cli_counts:
        diff = {k: (replay["counts"].get(k), cli_counts.get(k)) for k in COUNT_KEYS
                if replay["counts"].get(k) != cli_counts.get(k)}
        tally.fail(cells, f"replay counts differ from the CLI pass (replay, cli): {diff}")
    if cli_counts["cycles"] != sum(r["cycles"] for r in refs.values()):
        tally.fail(cells, "CLI pass cycles differ from the reference")

    # The traced pass of median wall time stands for the run, so its self
    # times add up exactly as measured.
    traced = sorted((p for p in replay["passes"] if p["traced"]), key=lambda p: p["wall_s"])
    self_s = {layer: traced[len(traced) // 2]["self"].get(layer, 0.0) for layer in LAYERS}
    setup_self = median_layers([s["self"] for s in setups], SETUP_LAYERS)
    metrics = layer_metrics(replay["counts"], self_s, setup_self, replay, cli_wall, ratio(hits, lookups))
    metrics["sim_mcycles_per_s"] = (cycles / cli_wall / 1e6, "Mcycles/s")
    for p in replay["passes"]:
        if p["traced"] and sum(p["self"].values()) > p["wall_s"] * 1.001:
            tally.fail(cells, f"traced self times sum to {sum(p['self'].values()):.4f} s, "
                       f"more than the pass wall {p['wall_s']:.4f} s")
    log(f"{len(replay['passes'])} replay pass(es), traced median {metrics['tracing.pass_s'][0]:.4f} s, "
        f"untraced median {metrics['tracing.untraced_pass_s'][0]:.4f} s")
    return metrics


# ------------------------------------------------------------------ bless


def bless():
    """Rewrites reference.json from the current svwsim: digests, cells, cycles."""
    svwsim, _ = build()
    reference = {"pools": POOLS}
    os.makedirs(WORK, exist_ok=True)
    traces = os.path.join(WORK, "bless-traces")
    for name, wl in WORKLOADS.items():
        reference[name] = {}
        for seed in POOLS[name]:
            per_source = {}
            for source in wl["sources"]:
                entry = {}
                for as_json in (False, True):
                    out = os.path.join(WORK, "bless.jsonl")
                    if os.path.exists(out):
                        os.remove(out)
                    cmd = svwsim_cmd(svwsim, wl, source, seed, None, as_json, ["--out", out])
                    cmd[cmd.index("--jobs") + 1] = "0"
                    _, _, code, stdout, stderr = run_child(cmd, child_env(traces))
                    if code != 0:
                        raise BenchError(f"bless: {' '.join(cmd)} failed: {stderr[-300:]}")
                    entry["json" if as_json else "text"] = digest(stdout)
                    with open(out) as f:
                        cells = [json.loads(line) for line in f]
                    entry["cells"] = len(cells)
                    entry["cycles"] = sum(c["cycles"] for c in cells)
                per_source[source_name(source)] = entry
            reference[name][str(seed)] = per_source
            log(f"blessed {name} seed {seed}")
    shutil.rmtree(WORK, ignore_errors=True)
    with open(REFERENCE, "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")


# ------------------------------------------------------------------ main


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--bless", action="store_true", help="rewrite reference.json")
    args = parser.parse_args()

    try:
        if args.bless:
            bless()
            return 0
        if not args.workload:
            parser.error("--workload is required")
        with open(REFERENCE) as f:
            reference = json.load(f)
        svwsim, perfbench = build()
        name = args.workload
        wl = WORKLOADS[name]
        pool = reference["pools"][name]
        seed = pool[args.seed % len(pool)]
        refs = reference[name][str(seed)]
        shutil.rmtree(WORK, ignore_errors=True)
        os.makedirs(WORK)
        facts = host_facts()
        log(f"workload {name}, workload seed {seed}, host {json.dumps(facts)}")
        tally = Tally()
        run = traced_run if args.trace else untraced_run
        metrics = run(svwsim, perfbench, name, wl, refs, seed, args.seconds, tally)
    except (BenchError, OSError, KeyError, ValueError) as e:
        log(f"error: {e}")
        return 2
    finally:
        if not args.bless:
            shutil.rmtree(WORK, ignore_errors=True)

    for key, (value, unit) in metrics.items():
        print(f"{key} = {value:.6g} {unit}")
    print("host " + json.dumps(facts, sort_keys=True))
    if tally.reasons:
        print("failures: " + "; ".join(tally.reasons))
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
