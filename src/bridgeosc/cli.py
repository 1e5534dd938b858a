"""Command line front end: `bridge run|list|sweep`.

Exit codes: 0 success, 1 runtime failure, 2 config/parse error,
3 precondition (parameter validation) failure. BRIDGE_OUT overrides the
default output directory.
"""
from __future__ import annotations

import argparse
import copy
import json
import math
import os
import sys
from contextlib import nullcontext
from typing import List, Optional, Tuple

from .errors import ConfigError, InvalidParameterError
from .scenarios import (BUILTINS, integrate_ode4, list_builtins, out_paths,
                        parse_scenario, run_scenario)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
MAX_SWEEP_POINTS = 100_000
# points of a sweep batch: its trajectories are in memory until it writes
BATCH_POINTS = 16


def _load_config(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _run(config: dict, out_dir: str, integrated=None) -> Tuple[int, str]:
    """(exit code, summary line or error message) of one scenario run;
    printing is left to the caller."""
    try:
        result = run_scenario(config, out_dir, integrated)
    except InvalidParameterError as exc:
        return EXIT_PRECONDITION, f"precondition violation: {exc}"
    except ConfigError as exc:
        return EXIT_PARSE, f"config error: {exc}"
    except Exception as exc:
        return EXIT_RUNTIME, f"runtime failure: {exc}"
    return EXIT_OK, f"{result.name}: {result.summary}"


def _run_batch(configs: List[dict], out_dir: str) -> List[Tuple[int, str]]:
    """_run of each config, the ode4 ones integrated as lanes of one state;
    if that fails, each config runs on its own, so that a failure stays with
    the points that meet it."""
    try:
        integrated = integrate_ode4(configs)
    except Exception:
        integrated = [None] * len(configs)
    return [_run(c, out_dir, traj) for c, traj in zip(configs, integrated)]


def _report(outcome: Tuple[int, str]) -> int:
    """Print a run's line (errors to stderr) and return its exit code."""
    code, message = outcome
    print(message, file=sys.stdout if code == EXIT_OK else sys.stderr)
    return code


def _cmd_run(args) -> int:
    out_dir = args.out or os.environ.get("BRIDGE_OUT", "out")
    if args.builtin:
        if args.builtin not in BUILTINS:
            print(f"unknown builtin {args.builtin!r}; see `bridge list`",
                  file=sys.stderr)
            return EXIT_PARSE
        return _report(_run(copy.deepcopy(BUILTINS[args.builtin]), out_dir))
    if not args.config:
        print("run needs a config path or --builtin NAME", file=sys.stderr)
        return EXIT_PARSE
    try:
        config = _load_config(args.config)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_PARSE
    return _report(_run(config, out_dir))


def _cmd_list(_args) -> int:
    for name in list_builtins():
        print(name)
    return EXIT_OK


def _parse_param_spec(spec: str):
    """'k=2:4:0.1' -> ('k', [2.0, 2.1, ..., 4.0]); dotted names descend
    into the parameters object. A grid is at most MAX_SWEEP_POINTS long."""
    try:
        name, rng = spec.split("=", 1)
        parts = [float(v) for v in rng.split(":")]
    except ValueError as exc:
        raise ValueError(f"bad --param spec {spec!r}; expected name=a:b:step") from exc
    if len(parts) == 1:
        return name, [parts[0]]
    if len(parts) != 3 or not all(map(math.isfinite, parts)):
        raise ValueError(f"bad --param spec {spec!r}; expected name=a:b:step "
                         "with finite a, b and step")
    a, b, step = parts
    if step <= 0 or b < a:
        raise ValueError("sweep range must have b >= a and step > 0")
    top = b + 1e-12 * max(1.0, abs(b))
    if (top - a) / step >= MAX_SWEEP_POINTS:
        raise ValueError(f"bad --param spec {spec!r}; the grid has more than "
                         f"{MAX_SWEEP_POINTS} points")
    vals, k = [], 0
    while a + k * step <= top:
        vals.append(round(a + k * step, 12))
        k += 1
    return name, vals


def _set_param(config: dict, dotted: str, value: float) -> None:
    """Set parameters[dotted.path] = value, each name a key of an object or
    the index of a list entry; a bare name that is absent at the top level
    is resolved against nested parameter objects when the match is unique."""
    node = config["parameters"]
    keys = dotted.split(".")
    if len(keys) == 1 and keys[0] not in node:
        hits = [sub for sub in node.values()
                if isinstance(sub, dict) and keys[0] in sub]
        if len(hits) == 1:
            hits[0][keys[0]] = value
            return
        raise KeyError(dotted)
    for name in keys:  # a list index: a non-negative integer in range
        key = int(name) if isinstance(node, list) and name.isdecimal() else name
        parent, node = node, node[key]
    parent[key] = value


def _cmd_sweep(args) -> int:
    out_dir = args.out or os.environ.get("BRIDGE_OUT", "out")
    try:
        if args.jobs < 1:
            raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
        config = _load_config(args.config)
        name, values = _parse_param_spec(args.param)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"cannot set up sweep: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if not isinstance(config, dict):  # as parse_scenario words it
        print("config error: scenario config must be an object", file=sys.stderr)
        return EXIT_PARSE
    points = []
    base_name = config.get("name", "sweep")
    for v in values:
        pt = copy.deepcopy(config)
        try:
            _set_param(pt, name, v)
        except (LookupError, TypeError, AttributeError):  # a node that is no object
            print(f"parameter path {name!r} not found in config", file=sys.stderr)
            return EXIT_PARSE
        # %g names, at repr precision where %g would merge distinct points
        label = f"{v:g}" if float(f"{v:g}") == v else repr(v)
        pt["name"] = f"{base_name}_{name.replace('.', '-')}={label}"
        points.append(pt)
    writers = {}  # by path: two points writing one file would overwrite it
    for pt in points:
        try:
            paths = out_paths(parse_scenario(pt), out_dir).values()
        except ValueError:
            continue  # the point reports it when it runs
        for path in map(os.path.realpath, paths):
            if writers.setdefault(path, pt["name"]) != pt["name"]:
                print(f"sweep points {writers[path]} and {pt['name']} both write "
                      f"{path}", file=sys.stderr)
                return EXIT_PARSE
    # contiguous batches, at most BATCH_POINTS and at least one per worker (one
    # per usable CPU at most), handed out one at a time; only this one prints
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count()) or 1
    jobs = min(args.jobs, len(points), cpus)
    size = min(BATCH_POINTS, -(-len(points) // jobs))
    batches = [points[lo:lo + size] for lo in range(0, len(points), size)]
    # imported here: it loads multiprocessing, which only a sweep's pool needs
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(jobs) if jobs > 1 else nullcontext() as pool:
        done = (pool.map if pool else map)(_run_batch, batches,
                                           [out_dir] * len(batches))
        codes = [_report(o) for batch in done for o in batch]
    return max(codes) if codes else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="bridge",
                                 description="Oscillating-bridge scenario runner")
    sub = ap.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario config or builtin")
    run_p.add_argument("config", nargs="?", help="path to a scenario JSON")
    run_p.add_argument("--builtin", help="name of a builtin scenario")
    run_p.add_argument("--out", help="output directory (default: BRIDGE_OUT or ./out)")
    run_p.set_defaults(func=_cmd_run)

    list_p = sub.add_parser("list", help="list builtin scenarios")
    list_p.set_defaults(func=_cmd_list)

    sweep_p = sub.add_parser("sweep", help="run a config across a parameter range")
    sweep_p.add_argument("config", help="path to a scenario JSON")
    sweep_p.add_argument("--param", required=True,
                         help="sweep spec name=start:stop:step "
                              "(dotted names descend into parameters and lists)")
    sweep_p.add_argument("--jobs", type=int, default=1,
                         help="parallel worker processes")
    sweep_p.add_argument("--out", help="output directory")
    sweep_p.set_defaults(func=_cmd_sweep)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
