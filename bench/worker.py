"""One pass over a workload, in a fresh process.

Usage: python3 bench/worker.py WORKLOAD SEED PASS TRACED

Every pass starts cold, so no pass inherits another's heap or a module
``lru_cache``: set-up time covers importing pebblekit and building the
instances, and the peak RSS is this pass's own.  The ops run one after
the other in an order drawn from (SEED, PASS), in one thread, each
starting when the previous one returns.  The answers are checked after
the timed section and the pass is printed as one JSON line.
"""

import json
import random
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def reference_s():
    """Seconds taken by a fixed piece of pure-Python work in the mix
    pebblekit runs: Fraction sums over power-of-two denominators, dict and
    frozenset churn and small sorts.  Run between the ops, it tracks the
    host's speed at that moment."""
    t = time.perf_counter()
    total = Fraction(0)
    state = {}
    seen = set()
    for i in range(1500):
        total += Fraction(i % 7 + 1, 1 << (i % 23))
        key = (i % 13, i % 17)
        state[key] = state.get(key, 0) + 1
        seen.add(frozenset(list(state.items())[:6]))
        sorted(((i * 7919) % 101, j) for j in range(6))
    return time.perf_counter() - t


def reference_times():
    """Three reference timings in a row: ~60 ms of host-speed sampling."""
    return [reference_s() for _ in range(3)]


def cpu_s():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main(workload_name, seed, pass_no, traced):
    refs = [reference_times()]
    t0 = time.perf_counter()
    import pebblekit.grid

    tracer = None
    if traced:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    instances = workload.setup()
    setup_s = time.perf_counter() - t0
    refs.append(reference_times())

    ops = list(workload.ops)
    random.Random(f"{seed}/{pass_no}").shuffle(ops)
    results = []
    for op in ops:
        error = answer = witness = None
        c = cpu_s()
        t = time.perf_counter()
        try:
            answer, witness = op.run(instances)
        except Exception as e:  # a raising op is a failed op, not a crash
            error = f"{type(e).__name__}: {e}"
        wall = time.perf_counter() - t
        results.append((op, answer, witness, error, wall, cpu_s() - c))
        refs.append(reference_times())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    layer_values = absent = None
    if tracer is not None:
        tracer.uninstall()
        from layers import grid_micro_ns

        layer_values = tracer.metrics()
        layer_values.update(grid_micro_ns(pebblekit.grid))
        absent = tracer.absent

    from checker import check

    report = []
    for op, answer, witness, error, wall, cpu in results:
        if error is None:
            try:
                error = check(op, answer, witness)
            except Exception as e:  # a checker that cannot read the witness rejects it
                error = f"checker: {type(e).__name__}: {e}"
        report.append({"op": op.name, "wall_s": wall, "cpu_s": cpu, "error": error})
    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "peak_rss_mb": peak_rss_mb,
                "ops": report,
                "ref_s": refs,
                "layers": layer_values,
                "absent": absent,
            }
        )
    )


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4] == "1")
