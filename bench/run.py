#!/usr/bin/env python3
"""bridgeosc benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root: the package is imported from ./src. Each
workload runs in its own process. With --trace 0 the timed phase runs
seeded inputs for S seconds of run time at the reference host speed
(ending on a whole block) with tracing off and reports the end-to-end
metrics. Their times (setup_s,
runs_per_s, run_p50_ms, run_tail_ms) are scaled to a reference host speed
by a fixed kernel timed next to every run (see hostspeed.py), because this
shared host's speed drifts by tens of percent within a minute; the raw
wall-clock median is printed beside them. With --trace 1 a fixed,
seeded set of inputs (its size set by S alone, so counts repeat exactly for
a seed) runs once untraced and once traced, and the per-layer metrics come
from the traced pass. Every run's outputs are checked outside the timed
region; a run that raises, exits non-zero or fails its check is counted in
`failed`. The last line of standard output is the JSON result.

Counts that must repeat for a seed (steps, zeros, switch flips, bytes
written) are compared between a re-run and the first run in the same
process, and with earlier runs of the same code and seed recorded under
.bench_out/; any difference makes the result incorrect.
"""
import os

# OpenBLAS is threaded here; pin every workload process and sweep worker to
# one thread so 2 sweep workers never oversubscribe 2 cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from itertools import islice  # noqa: E402

from hostspeed import reference_ms, scaled, scaled_runs  # noqa: E402
from stats import fail_rate, percentile, tail_percentile  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 7

END_TO_END = {"setup_s": "s", "runs_per_s": "1/s", "run_p50_ms": "ms",
              "run_tail_ms": "ms", "peak_rss_mb": "MB"}
MODES = (1, 4, 8)
PER_LAYER = {
    "rk.calls": "count", "rk.accepted_steps": "count",
    "rk.rejected_steps": "count", "rk.rhs_evals": "count",
    "rk.accept_ratio": "ratio", "rk.self_s": "s", "rk.rhs_s": "s",
    "rk.us_per_step": "us",
    **{f"truebeam.m{M}.{key}": unit for M in MODES for key, unit in (
        ("accepted_steps", "count"), ("rejected_steps", "count"),
        ("us_per_step", "us"), ("run_ms", "ms"))},
    "nonlin.f_calls": "count", "nonlin.f_s": "s",
    "ode4.zero_find_s": "s", "ode4.zeros": "count",
    "ode4.detect_blowup_s": "s",
    "systems.integrate_s": "s", "systems.to_fourth_order_s": "s",
    "truebeam.integrate_s": "s", "truebeam.switch_events": "count",
    "truebeam.gust_amp_calls": "count", "truebeam.gust_amp_s": "s",
    "energy.gust_energy_calls": "count", "energy.gust_energy_s": "s",
    "io.csv_s": "s", "io.csv_bytes": "B", "io.svg_s": "s",
    "io.svg_bytes": "B", "io.json_bytes": "B",
    "scenarios.run_s": "s", "scenarios.self_s": "s",
    "cli.main_s": "s", "cli.self_s": "s", "cli.parallel_efficiency": "ratio",
    "trace.overhead_ms": "ms", "trace.overhead_ratio": "ratio",
}
# per-layer metrics that must repeat exactly for a seed
EXACT = [name for name, unit in PER_LAYER.items() if unit in ("count", "B")]


@dataclass
class Run:
    label: str
    group: object
    ms: float
    problems: list
    fingerprint: object


def load_package():
    """Import bridgeosc from ./src, and only from there."""
    if not os.path.isfile(os.path.join(SRC, "bridgeosc", "__init__.py")):
        sys.exit(f"bench: no src/bridgeosc in {ROOT}; run from the repository root")
    sys.path.insert(0, SRC)
    import bridgeosc
    if not os.path.abspath(bridgeosc.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: bridgeosc imported from {bridgeosc.__file__}, not {SRC}")


def code_hash():
    """Digest of the package and benchmark sources: 'the same code'."""
    h = hashlib.sha256()
    here = os.path.dirname(os.path.abspath(__file__))
    for base in (os.path.join(SRC, "bridgeosc"), here):
        for name in sorted(os.listdir(base)):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def environment(seed):
    import numpy
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu, "commit": commit,
            "code": code_hash(), "seed": seed,
            "loadavg": [round(v, 2) for v in os.getloadavg()]}


def execute(wl, item, tracer=None):
    """One closed-loop run: time wl.run, then check its outputs untimed."""
    label, group, payload = item
    if tracer is not None:
        tracer.run_id = label
    t0 = time.perf_counter()
    try:
        output = wl.run(payload)
    except Exception as exc:  # a failed run is counted, not fatal
        return Run(label, group, (time.perf_counter() - t0) * 1e3,
                   [f"{label}: raised {exc!r}"], None)
    ms = (time.perf_counter() - t0) * 1e3
    try:
        problems, fp = wl.inspect(label, payload, output)
    except Exception as exc:  # a check that cannot read the outputs fails the run
        problems, fp = [f"{label}: check raised {exc!r}"], None
    return Run(label, group, ms, problems, fp)


def timed_phase(wl, seconds):
    """Whole blocks of runs until `seconds` of scaled run time have been
    spent, so that how many blocks run, and so the mix of inputs, does not
    follow the host's speed.

    The reference kernel is timed before the first run and after each run,
    so every run sits between two kernel timings; returns (runs, kernel ms).
    """
    runs, refs, spent = [], [reference_ms()], 0.0
    for block in wl.blocks():
        if spent >= seconds * 1e3:
            break
        for item in block:
            runs.append(execute(wl, item))
            refs.append(reference_ms())
            spent += scaled(runs[-1].ms, (refs[-2] + refs[-1]) / 2.0)
    return runs, refs


def mismatches(first, again, what):
    """Problems for runs whose exact counts differ between two passes."""
    return [f"{a.label}: counts differ {what}: {a.fingerprint} vs {b.fingerprint}"
            for a, b in zip(first, again)
            if a.fingerprint is not None and b.fingerprint is not None
            and a.fingerprint != b.fingerprint]


def check_recorded(key, counts):
    """Compare counts with those recorded for the same key by an earlier
    run, recording them if there are none; returns a list of problems."""
    path = os.path.join(OUT, "counts.json")
    try:
        with open(path) as fh:
            seen = json.load(fh)
    except (OSError, ValueError):
        seen = {}
    if key in seen:
        return [] if seen[key] == counts else [
            f"counts differ from an earlier run of the same code and seed: "
            f"{seen[key]} vs {counts}"]
    seen[key] = counts
    os.makedirs(OUT, exist_ok=True)
    with open(path + ".tmp", "w") as fh:
        json.dump(seen, fh)
    os.replace(path + ".tmp", path)
    return []


def setup_seconds(args):
    """Median over fresh processes of the time from spawn to the end of
    set-up (imports, input generation and one warm-up run per model),
    scaled by the median of the reference kernel timed between the probes."""
    vals, refs = [], [reference_ms()]
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        vals.append(float(proc.stdout.split()[-1]) - t0)
        refs.append(reference_ms())
    return scaled(statistics.median(vals), statistics.median(refs))


def peak_rss_mb(wl):
    """Peak resident set of this process, plus `jobs` times the largest
    child's when the workload fans out to worker processes."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + getattr(wl, "jobs", 0) * kids) / 1024.0


def group_medians(runs, ms=None):
    groups = {}
    for r, t in zip(runs, ms or [r.ms for r in runs]):
        if r.group is not None:
            groups.setdefault(r.group, []).append(t)
    return {g: statistics.median(v) for g, v in groups.items()}


def untraced(wl, args, key):
    runs, refs = timed_phase(wl, args.seconds)
    rss = peak_rss_mb(wl)
    first = runs[:wl.recheck]
    again = [execute(wl, item) for item in
             islice((it for block in wl.blocks() for it in block), len(first))]
    extra = mismatches(first, again, "on a re-run")
    extra += check_recorded(key, [r.fingerprint for r in first])
    # run times scaled to the reference host; wall times are printed as notes
    ms = scaled_runs([r.ms for r in runs], refs)
    done = sum(wl.units_per_run for r in runs if not r.problems)
    tail_p = tail_percentile(len(ms))
    metrics = {"setup_s": setup_seconds(args),
               "runs_per_s": done / (sum(ms) / 1e3),
               "run_p50_ms": percentile(ms, 50),
               "run_tail_ms": percentile(ms, tail_p),
               "peak_rss_mb": rss}
    notes = {"tail_percentile": tail_p, "timed_runs": len(ms)}
    notes.update({f"{g}_run_ms": v for g, v in group_medians(runs, ms).items()})
    notes["wall_run_p50_ms"] = percentile([r.ms for r in runs], 50)
    notes["kernel_p50_ms"] = statistics.median(refs)
    return runs + again, extra, metrics, notes


def traced(wl, args, key):
    from tracer import Tracer, instrument

    n_blocks = max(1, int(args.seconds / wl.trace_block_s))
    items = [it for block in islice(wl.blocks(), n_blocks) for it in block]
    if hasattr(wl, "jobs"):
        wl.jobs = 1  # pool workers are not traced; layers come from serial runs
    plain = [execute(wl, it) for it in items]
    tracer = Tracer()
    restore = instrument(tracer)
    try:
        spans = [execute(wl, it, tracer) for it in items]
    finally:
        restore()
    runs = plain + spans
    extra = mismatches(plain, spans, "between the untraced and traced pass")
    efficiency = 0.0
    if hasattr(wl, "jobs"):
        wl.jobs = 2
        fan = [execute(wl, it) for it in items]
        runs += fan
        efficiency = sum(r.ms for r in plain) / (2.0 * sum(r.ms for r in fan))
        extra += mismatches(plain, fan, "between --jobs 1 and --jobs 2")
    metrics = layer_metrics(tracer)
    medians = group_medians(plain)
    for M in MODES:
        metrics[f"truebeam.m{M}.run_ms"] = medians.get(f"m{M}", 0.0)
    metrics["cli.parallel_efficiency"] = efficiency
    metrics["trace.overhead_ms"] = statistics.median(
        b.ms - a.ms for a, b in zip(plain, spans))
    metrics["trace.overhead_ratio"] = (sum(r.ms for r in spans)
                                       / sum(r.ms for r in plain) - 1.0)
    extra += check_recorded(key + f"/trace{len(items)}",
                            {name: metrics[name] for name in EXACT})
    tracer.write(os.path.join(OUT, f"spans-{wl.name}-{args.seed}.jsonl"))
    return runs, extra, metrics, {"traced_runs": len(items)}


def layer_metrics(t):
    acc = t.counts.get("rk.accepted_steps", 0)
    rej = t.counts.get("rk.rejected_steps", 0)
    m = {
        "rk.calls": t.calls("rk.integrate_adaptive"),
        "rk.accepted_steps": acc, "rk.rejected_steps": rej,
        "rk.rhs_evals": t.calls("rk.rhs"),
        "rk.accept_ratio": acc / (acc + rej) if acc + rej else 0.0,
        "rk.self_s": t.self_s("rk.integrate_adaptive"),
        "rk.rhs_s": t.total_s("rk.rhs"),
        "rk.us_per_step": t.total_s("rk.integrate_adaptive") / acc * 1e6 if acc else 0.0,
        "nonlin.f_calls": t.calls("nonlin.f"), "nonlin.f_s": t.total_s("nonlin.f"),
        "ode4.zero_find_s": t.total_s("ode4.zero_find"),
        "ode4.zeros": t.counts.get("ode4.zeros", 0),
        "ode4.detect_blowup_s": t.total_s("ode4.detect_blowup"),
        "systems.integrate_s": t.total_s("systems.integrate"),
        "systems.to_fourth_order_s": t.total_s("systems.to_fourth_order"),
        "truebeam.integrate_s": t.total_s("truebeam.integrate"),
        "truebeam.switch_events": t.counts.get("truebeam.switch_events", 0),
        "truebeam.gust_amp_calls": t.calls("truebeam.gust_amp"),
        "truebeam.gust_amp_s": t.total_s("truebeam.gust_amp"),
        "energy.gust_energy_calls": t.calls("energy.gust_energy"),
        "energy.gust_energy_s": t.total_s("energy.gust_energy"),
        "io.csv_s": t.total_s("io.csv"),
        "io.csv_bytes": t.counts.get("io.csv_bytes", 0),
        "io.svg_s": t.total_s("io.svg"),
        "io.svg_bytes": t.counts.get("io.svg_bytes", 0),
        "io.json_bytes": t.counts.get("io.json_bytes", 0),
        "scenarios.run_s": t.total_s("scenarios.run"),
        "scenarios.self_s": t.self_s("scenarios.run"),
        "cli.main_s": t.total_s("cli.main"), "cli.self_s": t.self_s("cli.main"),
    }
    for M in MODES:
        tag = f"truebeam.m{M}"
        acc_m = t.counts.get(tag + ".accepted_steps", 0)
        m[tag + ".accepted_steps"] = acc_m
        m[tag + ".rejected_steps"] = t.counts.get(tag + ".rejected_steps", 0)
        m[tag + ".us_per_step"] = t.counts.get(tag + ".rk_s", 0.0) / acc_m * 1e6 if acc_m else 0.0
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        ap.error("--seconds must be positive and --seed non-negative")
    load_package()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(WORKLOADS)}")

    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    try:
        wl = WORKLOADS[args.workload](args.seed, work)
        wl.warm_up()
        if args.setup_probe:
            print(time.monotonic())
            return 0
        env = environment(args.seed)
        key = f"{env['code']}/{wl.name}/{args.seed}"
        phase = traced if args.trace else untraced
        runs, extra, metrics, notes = phase(wl, args, key)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = [p for r in runs for p in r.problems] + extra
    failed = sum(1 for r in runs if r.problems)
    units = PER_LAYER if args.trace else END_TO_END
    print(f"bench {wl.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env " + json.dumps(env))
    for name, unit in units.items():
        print(f"  {name:28s} {metrics[name]:14.6g} {unit}")
    print(f"  {'fail_rate':28s} {fail_rate(failed, len(runs)):14.6g} ratio "
          f"({failed}/{len(runs)} runs)")
    for name, value in notes.items():
        unit = "ms" if name.endswith("_ms") else ""
        print(f"  {name:28s} {value:14.6g} {unit}")
    for p in problems[:20]:
        print("problem: " + p, file=sys.stderr)
    print(json.dumps({
        "correct": not problems, "attempted": len(runs), "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
