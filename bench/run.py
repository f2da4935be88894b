"""pebblekit benchmark runner.

Usage, from the root of a checkout:

    python3 bench/run.py --workload cascade|search|lp|weights|all \
        [--seed N] [--seconds S] [--trace 0|1]

Runs closed-loop passes of the workload for about S seconds.  Each pass is
a fresh process (``worker.py``): one thread, each op starting when the
previous one returns, so every pass starts cold.  With ``--workload all``
the workloads' passes are interleaved in rounds.  The seed sets the op
order inside each pass and the order of passes inside each round; the
instances themselves are fixed, so their exact answers stay frozen.

``--trace 0`` prints the end-to-end metrics (see README.md); ``--trace 1``
alternates traced and untraced passes and prints the per-layer metrics,
with the tracing overhead.  Before the result come a stamp line (git
revision, nproc, Python, gmpy2, seed, load average) and one summary line
per workload.  The last line is one JSON object.  The exit code is 0 only
if every op of every pass gave its frozen answer and passed the checker.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Every pass must end before this many seconds after the start, so the run
# exits within its 180-second limit even when a pass hangs.
HARD_LIMIT_S = 170

# Times are reported at a fixed reference speed: the speed at which the
# reference kernel in worker.py takes REF_S seconds (its typical time on a
# 2-core x86 box under Python 3.11).
REF_S = 0.020

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio"}


def stamp(seed: int) -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent), GIT_OPTIONAL_LOCKS="0")

    def git(*args):
        try:
            proc = subprocess.run(
                ["git", *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=20
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc

    head = git("rev-parse", "HEAD")
    revision = head.stdout.strip() if head is not None and head.returncode == 0 else None
    dirty = None
    if revision is not None:
        diff = git("diff", "--quiet", "HEAD", "--")
        dirty = None if diff is None else diff.returncode != 0
    return {
        "git_revision": revision,
        "git_dirty": dirty,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "seed": seed,
        "loadavg_1m": os.getloadavg()[0],
    }


def run_pass(workload: str, seed: int, pass_no: int, traced: bool, timeout: float):
    """The worker's JSON report, or None if it crashed or timed out."""
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(seed), str(pass_no)]
    cmd.append("1" if traced else "0")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"{workload} pass {pass_no}: timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"{workload} pass {pass_no}: worker exited {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workloads: list, seed: int, seconds: float, trace: bool) -> dict:
    """Passes by workload and kind (traced or not), each a worker report.
    A crashed pass is recorded as None and ends the run."""
    rng = random.Random(seed)
    kinds = (False, True) if trace else (False,)
    passes = {(w, k): [] for w in workloads for k in kinds}
    took = {key: [] for key in passes}
    start = time.monotonic()
    pass_no = 0
    while True:
        order = list(passes)
        rng.shuffle(order)
        ran = False
        for key in order:
            now = time.monotonic() - start
            guess = statistics.median(took[key]) if took[key] else 0.0
            if passes[key] and now + guess > seconds:
                continue  # every kind has a pass; start none that would end late
            t = time.monotonic()
            report = run_pass(key[0], seed, pass_no, key[1], max(HARD_LIMIT_S - now, 1))
            took[key].append(time.monotonic() - t)
            passes[key].append(report)
            pass_no += 1
            ran = True
            if report is None:
                return passes
        if not ran:
            return passes


def scaled(report: dict) -> dict:
    """The pass's times rescaled to the reference host speed: each op's
    wall and CPU time and the set-up time, multiplied by REF_S over the
    mean of the reference timings taken just before and just after it."""
    refs = report["ref_s"]

    def factor(k):
        return REF_S / statistics.mean(refs[k] + refs[k + 1])

    out = {"setup_s": report["setup_s"] * factor(0)}
    for k, op in enumerate(report["ops"], start=1):
        out[op["op"]] = {"wall_s": op["wall_s"] * factor(k), "cpu_s": op["cpu_s"] * factor(k)}
    return out


def pass_s(report: dict) -> float:
    times = scaled(report)
    return sum(times[op["op"]]["wall_s"] for op in report["ops"])


def end_to_end(reports: list) -> dict:
    """Medians over untraced passes: the per-op medians summed into one
    pass, the set-up time and the peak RSS."""
    op_names = [op["op"] for op in reports[0]["ops"]]
    per_op = [scaled(r) for r in reports]

    def op_median(field):
        return sum(statistics.median(p[name][field] for p in per_op) for name in op_names)

    raw = [{op["op"]: op["wall_s"] for op in r["ops"]} for r in reports]
    return {
        "wall_s": op_median("wall_s"),
        "cpu_s": op_median("cpu_s"),
        "setup_s": statistics.median(p["setup_s"] for p in per_op),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
        "raw_wall_s": sum(statistics.median(p[name] for p in raw) for name in op_names),
        "ref_ms": 1000 * statistics.median(t for r in reports for ts in r["ref_s"] for t in ts),
    }


def per_layer(workload: str, traced: list, untraced: list) -> tuple[dict, list]:
    """Per-layer medians over traced passes, the op times of the untraced
    passes and the tracing overhead; plus notes on counts that differed."""
    from layers import EXACT, LAYER_METRICS

    notes = []
    out = {}
    for name, _, _ in LAYER_METRICS:
        if name.startswith(("op.", "host.", "trace.")):
            continue
        values = [r["layers"][name] for r in traced]
        if any(v is None for v in values):
            out[name] = None
            continue
        if len(set(values)) == 1:
            out[name] = values[0]
            continue
        if name in EXACT:
            notes.append(f"{workload}: {name} differs between traced passes: {sorted(set(values))}")
        out[name] = statistics.median(values)
    per_op = [scaled(r) for r in untraced]
    for name, _, _ in LAYER_METRICS:
        if name.startswith("op."):
            _, w, op, _ = name.split(".")
            out[name] = statistics.median(p[op]["wall_s"] for p in per_op) if w == workload else 0.0
    out["host.ref_ms"] = 1000 * statistics.median(
        t for r in traced + untraced for ts in r["ref_s"] for t in ts
    )
    out["trace.overhead_s"] = statistics.median(map(pass_s, traced)) - statistics.median(
        map(pass_s, untraced)
    )
    return out, notes


def main(argv=None) -> int:
    if not (ROOT / "src" / "pebblekit" / "__init__.py").is_file():
        print(f"no pebblekit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(BENCH), str(ROOT / "src")]
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    print(json.dumps({"stamp": stamp(args.seed)}), flush=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    passes = measure(names, args.seed, args.seconds, bool(args.trace))

    attempted = failed = 0
    crashed = False
    metrics = {}
    for w in names:
        w_attempted = w_failed = 0
        for r in (r for (pw, _), reports in passes.items() if pw == w for r in reports):
            if r is None:  # a crashed pass fails all its ops
                crashed = True
                w_attempted += len(WORKLOADS[w].ops)
                w_failed += len(WORKLOADS[w].ops)
                continue
            for op in r["ops"]:
                w_attempted += 1
                if op["error"] is not None:
                    w_failed += 1
                    print(f"{w} {op['op']}: FAILED: {op['error']}")
        attempted += w_attempted
        failed += w_failed
        untraced = [r for r in passes[(w, False)] if r is not None]
        traced = [r for r in passes.get((w, True), ()) if r is not None]
        if crashed or not untraced or (args.trace and not traced):
            continue
        prefix = f"{w}." if args.workload == "all" else ""
        values = end_to_end(untraced)
        values["ok_ratio"] = (w_attempted - w_failed) / w_attempted
        print(
            f"{w:8s} wall_s={values['wall_s']:.4f} s (median pass, n={len(untraced)})"
            f"  cpu_s={values['cpu_s']:.4f} s  setup_s={values['setup_s']:.4f} s"
            f"  peak_rss_mb={values['peak_rss_mb']:.1f} MB"
            f"  fail_ratio={w_failed / w_attempted:.4f} ({w_failed}/{w_attempted} ops)"
            f"  [unscaled wall {values['raw_wall_s']:.4f} s, reference {values['ref_ms']:.2f} ms]"
        )
        if args.trace:
            from layers import LAYER_METRICS

            layer_values, notes = per_layer(w, traced, untraced)
            for note in notes:
                print(note)
            absent = sorted({m for r in traced for m in r["absent"]})
            if absent:
                print(f"{w}: absent (hook gone): {', '.join(absent)}")
            print(f"{w:8s} trace overhead {layer_values['trace.overhead_s']:+.4f} s per pass")
            for name, unit, _ in LAYER_METRICS:
                metrics[prefix + name] = {"value": layer_values[name], "unit": unit}
        else:
            for name, unit in E2E_UNITS.items():
                metrics[prefix + name] = {"value": values[name], "unit": unit}
    correct = failed == 0 and not crashed
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
