"""Benchmark of onebitfb: one workload per process, result as a JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  The run

1. times ``SETUP_REPEATS`` fresh processes that each import the package,
   build the workload's inputs and warm it up, half of them before step 2
   and half after (``setup_s`` is their median);
2. repeats whole rounds of the workload's fixed operations until ``--seconds``
   have passed (at least one round);
3. checks every output against independent references, outside the timed
   region, and that every round gave the same outputs;
4. prints one JSON object as its last line: the end-to-end metrics with
   ``--trace 0``, the per-layer metrics with ``--trace 1``.

A traced run spends half of ``--seconds`` untraced and half traced, and
reports the difference of the two median round times as tracing overhead.
Spans go to ``.perfbench/``.
"""

from __future__ import annotations

import os

# One compute thread per process: BLAS and OpenMP pools would otherwise add
# a thread per core to the interpreter's own.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 9

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"), ("query_p50_ms", "ms")]


def import_package():
    """Import onebitfb from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "onebitfb" / "__init__.py").is_file():
        sys.exit(f"error: no package at {SRC / 'onebitfb'}; run from a onebitfb checkout")
    sys.path.insert(0, str(SRC))
    import onebitfb
    from onebitfb import channel, cli, ergodic, mcsim, outage, specfun

    if Path(onebitfb.__file__).resolve().parent != SRC / "onebitfb":
        sys.exit(f"error: imported onebitfb from {onebitfb.__file__}, not from {SRC}")
    return types.SimpleNamespace(channel=channel, cli=cli, ergodic=ergodic, mcsim=mcsim,
                                 outage=outage, specfun=specfun)


def steal_seconds() -> float | None:
    """Host CPU time stolen from this machine so far, from /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def output_key(out):
    """What must repeat exactly between rounds; exceptions by type and message."""
    return (type(out), str(out)) if isinstance(out, Exception) else out


def run_rounds(ops, seconds: float, first=None):
    """Whole rounds of ``ops`` within ``seconds``: (times, first, differs).

    ``times`` has one list of operation times per round.  Outputs of the
    first round (or ``first``, if given) are kept; a later output is only
    compared with them, and ``differs`` counts the outputs that did not
    repeat.  The first round always runs; a further round starts only if a
    round of the median length so far would end before the deadline.
    """
    times, lengths, differs = [], [], 0
    deadline = time.perf_counter() + seconds
    while not times or time.perf_counter() + statistics.median(lengths) <= deadline:
        start = time.perf_counter()
        round_times, outputs = [], []
        for op in ops:
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # the program failed this operation; count it
                round_times.append(time.perf_counter() - t0)
                outputs.append(exc)
                continue
            round_times.append(time.perf_counter() - t0)
            outputs.append(op.collect(out))
        lengths.append(time.perf_counter() - start)
        times.append(round_times)
        if first is None:
            first = outputs
        else:
            differs += sum(output_key(o) != output_key(f) for o, f in zip(outputs, first))
    return times, first, differs


def check_outputs(workload, first, rounds: int, differs: int):
    """(failed operations, wrong-output messages, failure messages).

    The first round's outputs are checked against the references; every
    other round had to reproduce them exactly.
    """
    from workloads import Failed

    status = [Failed(f"{type(out).__name__}: {out}") if isinstance(out, Exception) else op.check(out)
              for op, out in zip(workload.ops, first)]
    errors = [f"{op.label}: {s}" for op, s in zip(workload.ops, status) if isinstance(s, str)]
    failures = [f"{op.label}: {s.msg}" for op, s in zip(workload.ops, status) if isinstance(s, Failed)]
    if differs:
        errors.append(f"{differs} outputs of later rounds differ from round 1")
    errors += workload.extra_checks(first)
    failed = rounds * sum(isinstance(s, Failed) for s in status)
    return failed, errors, failures


def time_setups(args, n: int) -> list[float]:
    """Wall times of ``n`` fresh processes doing import, inputs and warm-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    pkg = import_package()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        workload = workloads.WORKLOADS[args.workload](pkg, args.seed, workdir)
        workload.warm_up()
        if args.setup_only:
            return 0
        return measure(args, pkg, workload, tracing)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, pkg, workload, tracing) -> int:
    # Half the set-up samples before the timed rounds and half after, so that
    # their median spans the run rather than one moment of the host's load.
    setup_times = time_setups(args, SETUP_REPEATS // 2)
    steal0 = steal_seconds()
    if args.trace:
        plain, first, differs = run_rounds(workload.ops, args.seconds / 2)
        tracer = tracing.Tracer()
        tracing.install(tracer, pkg)
        try:
            traced, _, traced_differs = run_rounds(workload.ops, args.seconds / 2, first)
        finally:
            tracer.restore()
        rounds = plain + traced
        differs += traced_differs
    else:
        rounds, first, differs = run_rounds(workload.ops, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    steal1 = steal_seconds()
    setup_times += time_setups(args, SETUP_REPEATS - len(setup_times))

    failed, errors, failures = check_outputs(workload, first, len(rounds), differs)
    for msg in errors:
        print(f"WRONG {msg}", file=sys.stderr)
    for msg in failures:
        print(f"failed: {msg}")

    def median_round(rs):
        return statistics.median(sum(times) for times in rs)

    op_times = [t for times in rounds for t in times]
    attempted = len(op_times)
    print(f"workload={workload.name} seed={args.seed} rounds={len(rounds)} operations={attempted}")
    if steal0 is not None and steal1 is not None:
        print(f"host steal during the timed rounds: {steal1 - steal0:.2f} s")
    if args.trace:
        overhead = median_round(traced) - median_round(plain)
        print(f"tracing overhead (traced minus untraced median round): {overhead:.4f} s")
        metrics = tracing.layer_metrics(tracer, len(traced), workload.output_counts(first))
        units = dict(tracing.LAYER_METRICS)
        tracer.write(OUT_DIR / f"trace-{workload.name}-seed{args.seed}.json", {
            "workload": workload.name, "seed": args.seed, "traced_rounds": len(traced),
            "tracing_overhead_s": overhead, "metrics": metrics,
        })
    else:
        metrics = {
            "wall_s": median_round(rounds),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
            "query_p50_ms": statistics.median(op_times) * 1e3,
        }
        units = dict(END_TO_END)
        # The highest percentile with at least ten samples beyond it.
        for pct in (99.9, 99.0, 90.0):
            if attempted * (100.0 - pct) / 100.0 >= 10:
                tail = statistics.quantiles(op_times, n=1000)[round(pct * 10) - 1]
                print(f"operation latency p{pct:g} = {tail * 1e3:.3f} ms over {attempted} samples")
                break
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
