"""Benchmark of the ``dispersim`` CLI: seeded closed-loop workloads.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --oracle-rtol 5e-4 --workload sweep-grid \\
        --seed 1 --seconds 30 --trace 0

One client in one process calls ``dispersim.cli.main(argv)`` in-process on
configs generated from ``--seed`` and sends the next op only after the
previous one returns (closed loop, CLI defaults, one worker). A run makes a
fixed number of ops, the number that fills ``--seconds`` on the reference
host (``op_count``), so the same seed gives the same ops, and the same
failed ops, however fast the host is at the time. Each op's
outputs are checked against the independent reference in ``oracle.py``
outside the timed interval. An op fails when an exception escapes ``main``,
``main`` returns non-zero, or the oracle rejects an output; failed ops are
counted and the loop goes on.

Op times are scaled to a nominal host speed measured by a probe before and
after every op (``speed.py``), because on a shared host the same work runs
up to half again as long in a slow phase as in a fast one; raw times stay in
the run record. ``setup_s`` is the median scaled wall time of several fresh
interpreters that import ``dispersim`` and parse the first config.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the same op
stream twice, half the ops each: untraced, then with span wrappers around
each layer's functions (``tracer.py``), and prints per-op means of the layer
metrics plus the tracing overhead. Human-readable lines come first; the last
line of stdout is one JSON object. Run records, per-op output hashes and
spans go to ``perfbench/_work/``. The benchmark's own tests run with
``python3 -m pytest perfbench/tests``.
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from itertools import islice
from pathlib import Path

import machine
import oracle
import speed
from tracer import Tracer
from workloads import WORKLOADS, config_docs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
SETUP_REPEATS = 7
TAIL_BEYOND = 10
#: A loop stops early once it has run this many times its nominal seconds,
#: so a run ends in time even on a host far slower than the reference host.
CAP_FACTOR = 4

SETUP_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import dispersim.cli; "
    "from dispersim.config import load_config; load_config(sys.argv[2])"
)


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a result."""


def import_program():
    """Import ``dispersim`` from this checkout's ``src`` and nowhere else."""
    package = SRC / "dispersim"
    if not (package / "__init__.py").is_file():
        raise BenchmarkError(f"no dispersim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import dispersim.cli

    if Path(dispersim.__file__).resolve().parent != package.resolve():
        raise BenchmarkError(f"imported dispersim from {dispersim.__file__}")
    return dispersim.cli


def measure_setup(config_path: Path, repeats: int, gauge) -> list:
    """(wall time, speed scale) of fresh interpreters that import dispersim and parse a config.

    The interpreters and the probes around them run on one CPU, so that a
    probe gauges the speed of the CPU the interpreter ran on; unpinned, the
    two often land on different CPUs of a shared host and the scale does not
    follow the set-up time.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        samples = []
        before = gauge.probe()
        for _ in range(repeats):
            start = time.perf_counter()
            # No timeout: with one, the wait polls with sleeps of up to 50 ms,
            # which quantizes the measured time.
            subprocess.run(
                [sys.executable, "-c", SETUP_PROBE, str(SRC), str(config_path)],
                check=True, stdout=subprocess.DEVNULL,
            )
            wall = time.perf_counter() - start
            after = gauge.probe()
            samples.append((wall, gauge.scale(before, after)))
            before = after
        return samples
    finally:
        os.sched_setaffinity(0, allowed)


def op_count(workload, seconds: float) -> int:
    """Ops in a run of ``seconds``: as many as fit on the reference host."""
    return max(1, round(seconds / workload.op_budget_s))


def run_ops(
    cli, workload, docs, workdir: Path, check, gauge, tracer=None, cap_s=float("inf")
):
    """Closed loop over ``docs``, one record per op; stops early after ``cap_s``."""
    config_path = workdir / "op-config.json"
    outdir = workdir / "op-out"
    ops = []
    start = time.perf_counter()
    before = gauge.probe()
    for index, doc in enumerate(docs):
        if ops and time.perf_counter() - start >= cap_s:
            print(f"# warning: loop capped after {len(ops)} ops", file=sys.stderr)
            break
        config_path.write_text(json.dumps(doc), encoding="utf-8")
        shutil.rmtree(outdir, ignore_errors=True)
        argv = [workload.command, "--config", str(config_path), "--out", str(outdir)]
        if tracer is not None:
            tracer.op_id = index
        failure = None
        cpu0, t0 = time.process_time(), time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # every escaping exception is a failed op
            code, failure = None, f"{type(exc).__name__}: {exc}"
        t1, cpu1 = time.perf_counter(), time.process_time()
        after = gauge.probe()
        if failure is None and code != 0:
            failure = f"exit code {code}"
        op = {
            "index": index, "wall_s": t1 - t0, "cpu_s": cpu1 - cpu0,
            "scale": gauge.scale(before, after), "rows": 0,
            "failure": failure, "mismatch": False, "hashes": {},
        }
        before = after
        if outdir.is_dir():
            op["hashes"] = oracle.output_hashes(outdir)
            written = sum(p.stat().st_size for p in outdir.iterdir() if p.is_file())
            if tracer is not None:
                tracer.count("experiments.bytes_written", written)
        if failure is None:
            try:
                op["rows"] = oracle.check(workload.command, doc, outdir, check)
            except Exception as exc:  # a malformed output is a rejected output
                op["failure"] = f"oracle: {type(exc).__name__}: {exc}"
                op["mismatch"] = True
        ops.append(op)
    if tracer is not None:
        tracer.op_id = None
    shutil.rmtree(outdir, ignore_errors=True)
    return ops


def tail(walls_sorted: list) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it: (value, pct)."""
    n = len(walls_sorted)
    if n <= TAIL_BEYOND:
        return walls_sorted[-1], 100.0
    return walls_sorted[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(ops: list) -> dict:
    """Loop metrics over successful ops, from speed-scaled times.

    Failed ops are left out of every metric here, rows_per_s included: how
    many of a run's ops hit a failing point varies from seed to seed, and
    failures are reported on their own as ``failed`` of ``attempted``.
    """
    ok = [op for op in ops if op["failure"] is None]
    if not ok:
        raise BenchmarkError("no op succeeded")
    walls = sorted(op["wall_s"] * op["scale"] for op in ok)
    tail_s, tail_pct = tail(walls)
    return {
        "op_p50_s": statistics.median(walls),
        "op_tail_s": tail_s,
        "op_tail_pct": tail_pct,
        "rows_per_s": sum(op["rows"] for op in ok) / sum(walls),
        "cpu_per_op_s": statistics.median(op["cpu_s"] * op["scale"] for op in ok),
        "raw_op_p50_s": statistics.median(op["wall_s"] for op in ok),
        "median_speed_scale": statistics.median(op["scale"] for op in ops),
        "n_ok": len(ok),
    }


def outputs_digest(ops: list) -> str:
    h = hashlib.sha256()
    for op in ops:
        for name, digest in sorted(op["hashes"].items()):
            h.update(f"{op['index']} {name} {digest}\n".encode())
    return h.hexdigest()


def run_benchmark(
    workload_name: str, seed: int, seconds: float, trace: bool, rtol: float,
    n_samples: int | None = None, setup_repeats: int = SETUP_REPEATS,
    workdir: Path | None = None,
) -> dict:
    """Run one workload; return the result record (see ``main`` for output)."""
    cli = import_program()
    workload = WORKLOADS[workload_name]
    n = workload.n_samples if n_samples is None else n_samples
    if workdir is None:
        workdir = WORK / f"{workload_name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    record = {
        "workload": workload_name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "oracle_rtol": rtol,
        "environment": machine.environment(seed, n),
    }
    first = workdir / "setup-config.json"
    first.write_text(json.dumps(next(config_docs(workload_name, seed, n))))
    gauge = speed.Gauge()
    setup = measure_setup(first, setup_repeats, gauge)
    record["setup_s_samples"] = [wall for wall, _ in setup]
    record["setup_s_scales"] = [scale for _, scale in setup]

    check = oracle.Check(rtol)
    budget = seconds / 2 if trace else seconds
    count = op_count(workload, budget)
    cap = CAP_FACTOR * budget

    def docs():
        return islice(config_docs(workload_name, seed, n), count)

    ops = run_ops(cli, workload, docs(), workdir, check, gauge, cap_s=cap)
    e2e = end_to_end(ops)
    e2e["setup_s"] = statistics.median(wall * scale for wall, scale in setup)
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["end_to_end"] = e2e
    all_ops = list(ops)
    if trace:
        with Tracer() as tracer:
            traced = run_ops(cli, workload, docs(), workdir, check, gauge, tracer, cap)
        tracer.write_spans(workdir / "spans.txt")
        layers = tracer.layer_metrics(len(traced))
        layers["cli.main.fail_frac"] = (
            sum(op["failure"] is not None for op in traced) / len(traced)
        )
        layers["tracing_overhead_s"] = end_to_end(traced)["op_p50_s"] - e2e["op_p50_s"]
        record["per_layer"] = layers
        record["traced_ops"] = traced
        all_ops += traced
    record["ops"] = ops
    record["ops_per_loop"] = count
    record["capped"] = any(
        len(loop) < count for loop in (ops, record.get("traced_ops", ops))
    )
    record["attempted"] = len(all_ops)
    record["failed"] = sum(op["failure"] is not None for op in all_ops)
    record["mismatches"] = sum(op["mismatch"] for op in all_ops)
    record["oracle_worst_rel"] = check.worst
    record["outputs_sha256"] = outputs_digest(ops)
    with open(workdir / "run.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return record


def load_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def report(record: dict, units: dict) -> dict:
    """Print the human-readable lines; return the final JSON object."""
    env = record["environment"]
    caches = " ".join(f"{k}={v}" for k, v in env["caches_cpu0"].items())
    print(
        f"# perfbench workload={record['workload']} seed={record['seed']} "
        f"seconds={record['seconds']} trace={record['trace']}"
    )
    print(
        f"# env nproc={env['nproc']} cpu={env['cpu_model']!r} {caches} "
        f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
        f"scipy_fft_workers={env['scipy_fft_workers_default']}"
    )
    print(
        f"# largest live array {env['largest_live_array_bytes']} B "
        f"({env['largest_live_array_note']}) vs L2 {env['caches_cpu0'].get('L2', '?')}"
    )
    attempted, failed = record["attempted"], record["failed"]
    print(
        f"# ops attempted={attempted} failed={failed} "
        f"fail_frac={failed / attempted:.4f} oracle_mismatches={record['mismatches']} "
        f"oracle_worst_rel={record['oracle_worst_rel']:.3g} "
        f"(rtol {record['oracle_rtol']:g})"
    )
    print(
        f"# {record['ops_per_loop']} ops per loop, fixed by --seconds"
        + (" (loop capped early: host far slower than the reference)" if record["capped"] else "")
    )
    reasons = Counter(
        op["failure"] for op in record["ops"] + record.get("traced_ops", [])
        if op["failure"]
    )
    for reason, count in reasons.most_common():
        print(f"# failure x{count}: {reason}")
    e2e = record["end_to_end"]
    print(
        f"# op_tail_s is the p{e2e['op_tail_pct']:.1f} of {e2e['n_ok']} successful ops; "
        f"raw setup_s samples {', '.join(f'{s:.4f}' for s in record['setup_s_samples'])}"
    )
    print(
        f"# times are scaled to nominal host speed (speed.py); median scale "
        f"{e2e['median_speed_scale']:.4f}, raw op_p50_s {e2e['raw_op_p50_s']:.6g}"
    )
    print(f"# outputs sha256 over all untraced ops: {record['outputs_sha256']}")
    kind = "per_layer" if record["trace"] else "end_to_end"
    values = record[kind]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units[kind].items()}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    return {
        "correct": record["mismatches"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--oracle-rtol", type=float, required=True,
        help="relative tolerance of the output check",
    )
    args = parser.parse_args(argv)
    try:
        units = load_units()
        record = run_benchmark(
            args.workload, args.seed, args.seconds, bool(args.trace), args.oracle_rtol
        )
    except (BenchmarkError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report(record, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
