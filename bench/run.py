"""rasesim benchmark: one workload, timed end to end or traced layer by layer.

    python3 bench/run.py --workload greedy-oversub --seed 1 --seconds 35 --trace 0

The workload's config is generated from the seed (bench/workloads.py) and
run through the public library path in this one process with parallel=1,
as a closed loop: each repetition (run_experiment, then write_report of json
and csv into a scratch directory) starts when the previous one has finished.

--trace 0 repeats the workload for --seconds (at least MIN_REPS times),
timing a batch of back-to-back setups (load_config + build_network) lasting
at least SETUP_BATCH_S before each repetition, then runs it once more in a
fresh child process for its peak RSS. Timings are host wall-clock seconds
with their sample count n: setup_s is the median over batches of a batch's
time per setup, wall_s the fastest repetition (its median is printed next
to it). A repetition is deterministic CPU-bound work, so other tenants of
the machine can only add to its time. On a shared 2-vCPU VM, repetitions of
the same work took up to 1.7x their fastest time, in CPU time as in wall
time. Over eight 35 s runs of 0.6-0.7 s repetitions, the fastest
repetition spread by 0.03-0.06 (quartile distance over median) across
runs and the median repetition by 0.13-0.17; with 0.8-0.9 s repetitions
the fastest spread by 0.17, as fewer of them met a fast window.

--trace 1 makes UNTRACED_REPS plain repetitions, then repeats setup and the
workload with every layer's public functions wrapped from outside
(bench/tracer.py) for --seconds (at least MIN_TRACED_REPS times), and
reports per-layer counts and times. The spans of the last traced repetition
are written to bench/out/spans-<workload>.jsonl.

Every repetition is checked. For the default seed the report files must
match the digests pinned in bench/pinned_digests.json; for any seed, the
scheme solved stage by stage must pass verify_scheme and accept the same
SFCRs as the report, and every repetition (the child process's and the
traced ones too) must write the same bytes. Traced repetitions must also
repeat every count exactly.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics named in BENCHMARK.json for the chosen --trace. The exit status
is 0 only if every check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
PINNED = BENCH / "pinned_digests.json"

if not (SRC / "rasesim").is_dir():
    sys.exit(f"error: no rasesim sources at {SRC}; run this from a checkout of the repository")
sys.path.insert(0, str(SRC))

import lifecycle  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_BATCH_S = 0.04
MIN_REPS = 3
UNTRACED_REPS = 2
MIN_TRACED_REPS = 2
CHILD_TIMEOUT_S = 150


class Checker:
    """Counts checked steps and failures; every repetition must write the `expected` files."""

    def __init__(self, expected: dict | None):
        self.expected = expected
        self.attempted = 0
        self.failed = 0

    def attempt(self, fn, *args):
        """fn(*args), counted; None if it raised."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None

    def same_files(self, got: dict) -> bool:
        """Compare one repetition's digests with the expected ones; the first sets them if none are pinned."""
        if self.expected is None:
            self.expected = got
        if got == self.expected:
            return True
        print(f"check: report files differ from the expected digests: {json.dumps(got)}", file=sys.stderr)
        self.failed += 1
        return False


def timed(fn, *args):
    gc.collect()
    started = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - started


def per_call_seconds(fn, *args, at_least: float) -> float:
    """Seconds per call of fn(*args), called back to back until `at_least` seconds have passed."""
    gc.collect()
    calls = 0
    started = time.perf_counter()
    while (elapsed := time.perf_counter() - started) < at_least:
        fn(*args)
        calls += 1
    return elapsed / calls


def closed_loop(step, minimum: int, seconds: float, checker: Checker) -> list:
    """Repeat step for `seconds` and at least `minimum` times; stop at the first failure.

    Successive steps take turns on the CPUs this process may use. On a shared
    VM each CPU slows down on its own, when its host core is contended, so
    one slow CPU cannot set every sample of a run.
    """
    cpus = sorted(os.sched_getaffinity(0))
    results = []
    started = time.perf_counter()
    try:
        while checker.failed == 0 and (len(results) < minimum or time.perf_counter() - started < seconds):
            pin({cpus[len(results) % len(cpus)]})
            result = step()
            if result is not None:
                results.append(result)
    finally:
        pin(set(cpus))
    return results


def pin(cpus: set) -> None:
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass  # not permitted here: the run stays where the scheduler puts it


def plain_rep(cfg, outdir, checker):
    """One untraced repetition: (report, wall seconds), or None if it failed."""
    result = checker.attempt(timed, lifecycle.repetition, cfg, outdir)
    if result is None:
        return None
    (report, written), wall = result
    return (report, wall) if checker.same_files(lifecycle.digests(written)) else None


def traced_rep(config_path, outdir, checker):
    """Setup and one repetition under a fresh tracer: (tracer, metrics, wall seconds, report), or None."""
    spans = tracer.Tracer()

    def cycle():
        gc.collect()
        with tracer.patched(spans):
            cfg = lifecycle.setup(config_path)
            start = time.perf_counter()
            report, written = lifecycle.repetition(cfg, outdir)
            end = time.perf_counter()
        return report, written, start, end

    result = checker.attempt(cycle)
    if result is None:
        return None
    report, written, start, end = result
    if not checker.same_files(lifecycle.digests(written)):
        return None
    metrics = tracer.layer_metrics(spans, start, end)
    metrics["experiment.report_bytes"] = sum(Path(p).stat().st_size for p in written)
    metrics["solver.accept_ratio"] = report.acceptance_ratio or 0.0
    return spans, metrics, end - start, report


def child_run(config_path, outdir):
    """One setup and repetition in a fresh interpreter: (peak RSS in KiB, report digests)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(BENCH / "lifecycle.py"), str(config_path), str(outdir)],
                          capture_output=True, text=True, env=env, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"child run exited with {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["peak_rss_kb"], result["digests"]


def measure(cfg, config_path, outdir, checker, seconds):
    """--trace 0: end-to-end metrics as {name: (value, n, what the value is)}, and the last report."""
    setup = []

    def step():
        # Setup is timed between repetitions, so its samples span the whole run like wall_s's;
        # a batch lasts tens of milliseconds, well above timer and scheduler noise.
        setup.append(per_call_seconds(lifecycle.setup, config_path, at_least=SETUP_BATCH_S))
        return plain_rep(cfg, outdir, checker)

    reps = closed_loop(step, MIN_REPS, seconds, checker)
    report = reps[-1][0] if reps else None
    child = checker.attempt(child_run, config_path, outdir.parent / "child") if reps else None
    if child is None:
        return None, report
    checker.same_files(child[1])
    wall = min(w for _, w in reps)
    fastest = f"fastest repetition; median {statistics.median(w for _, w in reps):.6g} s"
    samples = len(report.frames) * sum(o.accepted for o in report.outcomes)
    return {
        "setup_s": (statistics.median(setup), len(setup), f"median over batches of at least {SETUP_BATCH_S:g} s"),
        "wall_s": (wall, len(reps), fastest),
        "sfcrs_per_s": (len(report.outcomes) / wall, len(reps), "at the fastest repetition"),
        "samples_per_s": (samples / wall, len(reps), "at the fastest repetition"),
        "peak_rss_mb": (child[0] / 1024.0, 1, "one child process"),
    }, report


def counts_of(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if not k.endswith("_s")}


def trace_layers(name, cfg, config_path, outdir, checker, seconds):
    """--trace 1: per-layer metrics as {name: (value, n, what the value is)}, and the last report."""
    plain = [r for r in (plain_rep(cfg, outdir, checker) for _ in range(UNTRACED_REPS)) if r is not None]
    runs = closed_loop(lambda: traced_rep(config_path, outdir, checker), MIN_TRACED_REPS, seconds, checker)
    report = runs[-1][3] if runs else None
    if len(plain) < UNTRACED_REPS or not runs:
        return None, report
    for run in runs[1:]:
        if counts_of(run[1]) != counts_of(runs[0][1]):
            print(f"check: traced counts differ between repetitions: {counts_of(run[1])}", file=sys.stderr)
            checker.failed += 1

    OUT.mkdir(exist_ok=True)
    runs[-1][0].write(OUT / f"spans-{name}.jsonl")
    metrics = {}
    for key, value in runs[0][1].items():
        if key.endswith("_s"):
            metrics[key] = (statistics.median(r[1][key] for r in runs), len(runs), "median")
        else:
            metrics[key] = (value, len(runs), "equal in every repetition")
    traced_wall = statistics.median(r[2] for r in runs)
    metrics["trace.overhead_s"] = (traced_wall - statistics.median(w for _, w in plain), len(runs),
                                   f"median traced minus median of {len(plain)} untraced")
    for text, holds in predictions(name, {k: v for k, (v, _, _) in metrics.items()}, traced_wall):
        print(f"prediction {text}: {'holds' if holds else 'does not hold'}")
    return metrics, report


def predictions(name: str, m: dict, wall: float) -> list[tuple[str, bool]]:
    """What each workload was chosen to show, checked on the traced run; a miss is printed, not a failure."""
    return {
        "greedy-oversub": [
            ("solver.solve_s is the largest share of wall_s",
             m["solver.solve_s"] > max(m["engine.simulate_s"], m["experiment.write_report_s"])),
            ("routing.no_path_ratio > 0", m["routing.no_path_ratio"] > 0),
        ],
        "engine-long": [
            ("engine.simulate_s + experiment.write_report_s > 80% of wall_s",
             m["engine.simulate_s"] + m["experiment.write_report_s"] > 0.8 * wall),
        ],
        "ga-search": [
            ("solver.ga_evals >= 300", m["solver.ga_evals"] >= 300),
            ("solver.verify_calls == engine.simulate_calls + 1",
             m["solver.verify_calls"] == m["engine.simulate_calls"] + 1),
        ],
    }[name]


def describe(name: str, cfg, seed: int) -> str:
    solver = cfg.solver.kind
    if solver == "ga":
        solver += f" (population {cfg.solver.ga.population}, {cfg.solver.ga.generations} generations)"
    ticks = int(cfg.engine.duration_s / cfg.engine.sample_interval_s + 1e-9)
    return (f"workload {name} seed {seed}: {len(cfg.network.hosts)} hosts, "
            f"{len(cfg.templates) * cfg.duplicates} SFCRs, {ticks} ticks, {solver}")


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    pinned = json.loads(PINNED.read_text("utf-8"))
    checker = Checker(pinned[args.workload] if args.seed == workloads.DEFAULT_SEED else None)

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        config_path = work / "config.json"
        workloads.write_config(args.workload, args.seed, config_path)
        cfg = lifecycle.setup(config_path)
        print(describe(args.workload, cfg, args.seed))
        flags = checker.attempt(lifecycle.verified_accept_flags, cfg)
        outdir = work / "report"
        if args.trace:
            metrics, report = trace_layers(args.workload, cfg, config_path, outdir, checker, args.seconds)
        else:
            metrics, report = measure(cfg, config_path, outdir, checker, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if metrics is None:
        print(f"error: {checker.failed} of {checker.attempted} checked steps failed; no metrics", file=sys.stderr)
        return 1
    if flags != [o.accepted for o in report.outcomes]:
        print("check: the verified scheme and the report accept different SFCRs", file=sys.stderr)
        checker.failed += 1
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json", file=sys.stderr)
        return 1

    for key in units:
        value, n, what = metrics[key]
        print(f"metric {key} {value:.6g} {units[key]} n={n} ({what})")
    print(f"failed {checker.failed} of {checker.attempted} checked steps "
          f"(failed_ratio {checker.failed / checker.attempted:g})")
    for key in ("acceptance_ratio", "mean_latency_ms"):
        print(f"simulated {key} {getattr(report, key)!r} (a simulated result, not a performance metric)")
    print("check: verify_scheme, byte-identical repetitions"
          + (", pinned digests" if args.seed == workloads.DEFAULT_SEED else ""))
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {key: {"value": metrics[key][0], "unit": units[key]} for key in units},
    }))
    return 0 if checker.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
