"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench/tests``."""

import csv
import json
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, config_docs  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RTOL = float(SPEC["command"][SPEC["command"].index("--oracle-rtol") + 1])
SMALL_N = 16384

cli = run.import_program()


def run_one(tmp_path, name, doc):
    """Run one op; return its output directory, or None if the program failed."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    shutil.rmtree(out, ignore_errors=True)
    try:
        code = cli.main([WORKLOADS[name].command, "--config", str(cfg), "--out", str(out)])
    except ValueError:
        return None
    return out if code == 0 else None


def first_successful(tmp_path, name):
    for doc in config_docs(name, seed=5, n_samples=SMALL_N):
        out = run_one(tmp_path, name, doc)
        if out is not None:
            return doc, out
    raise AssertionError("unreachable: the stream is endless")


def first_docs(name, seed, count):
    return list(islice(config_docs(name, seed, SMALL_N), count))


def test_config_stream_is_seeded():
    for name in WORKLOADS:
        assert first_docs(name, 7, 3) == first_docs(name, 7, 3)
        assert first_docs(name, 7, 3) != first_docs(name, 8, 3)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_small_grid_smoke_run(tmp_path, name):
    record = run.run_benchmark(
        name, seed=3, seconds=1.0, trace=False, rtol=RTOL, n_samples=SMALL_N,
        setup_repeats=1, workdir=tmp_path / "work",
    )
    assert record["attempted"] >= 1
    assert record["mismatches"] == 0
    result = run.report(record, run.load_units())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert (tmp_path / "work" / "run.json").is_file()


def test_same_seed_makes_the_same_ops_and_failures(tmp_path):
    def failures(workdir):
        record = run.run_benchmark(
            "sweep-grid", seed=3, seconds=2.0, trace=False, rtol=RTOL,
            n_samples=SMALL_N, setup_repeats=1, workdir=workdir,
        )
        return [op["failure"] for op in record["ops"]]

    first = failures(tmp_path / "a")
    assert len(first) == run.op_count(WORKLOADS["sweep-grid"], 2.0)
    assert failures(tmp_path / "b") == first


def test_small_grid_traced_run_reports_layers(tmp_path):
    record = run.run_benchmark(
        "sweep-grid", seed=4, seconds=1.0, trace=True, rtol=RTOL, n_samples=SMALL_N,
        setup_repeats=1, workdir=tmp_path / "work",
    )
    result = run.report(record, run.load_units())
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    layers = record["per_layer"]
    assert layers["fiber.dispersion_tf.calls"] > 0
    assert layers["signal.fft.bytes_computed"] > 0
    assert 0 < layers["fiber.dispersion_tf.distinct_ratio"] <= 1
    assert (tmp_path / "work" / "spans.txt").is_file()


def perturb_csv_cell(path, row, col, factor):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows[row][col] = f"{float(rows[row][col]) * factor:.9g}"
    path.write_text("\n".join(",".join(r) for r in rows) + "\n", encoding="utf-8")


def test_oracle_rejects_perturbed_sweep(tmp_path):
    doc, out = first_successful(tmp_path, "sweep-grid")
    assert oracle.check("sweep-k", doc, out, oracle.Check(RTOL)) > 0
    lines = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()
    row = next(i for i, line in enumerate(lines) if i and ",diverged," not in line)
    perturb_csv_cell(out / "sweep.csv", row, 3, 1 + 10 * RTOL)
    with pytest.raises(oracle.OracleMismatch, match="factor"):
        oracle.check("sweep-k", doc, out, oracle.Check(RTOL))
    (out / "sweep.csv").write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
    with pytest.raises(oracle.OracleMismatch, match="missing"):
        oracle.check("sweep-k", doc, out, oracle.Check(RTOL))


def test_oracle_rejects_perturbed_scenario(tmp_path):
    doc, out = first_successful(tmp_path, "scenario-deep")
    assert oracle.check("scenario", doc, out, oracle.Check(RTOL)) == 41
    path = out / "scenario.json"
    report = json.loads(path.read_text(encoding="utf-8"))
    report["stage_search"]["k_table"][7]["broadening_factor"] *= 1 + 10 * RTOL
    path.write_text(json.dumps(report), encoding="utf-8")
    with pytest.raises(oracle.OracleMismatch, match="K=7 factor"):
        oracle.check("scenario", doc, out, oracle.Check(RTOL))


def test_oracle_rejects_perturbed_envelope(tmp_path):
    doc, out = first_successful(tmp_path, "propagate-dump")
    assert oracle.check("propagate", doc, out, oracle.Check(RTOL)) == 3 * SMALL_N
    path = out / "envelope_compensated.csv"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    data[:, 1:] *= 1 + 10 * RTOL
    lines = ["t_s,re,im"] + [",".join(f"{v:.9g}" for v in row) for row in data]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(oracle.OracleMismatch, match="compensated"):
        oracle.check("propagate", doc, out, oracle.Check(RTOL))


def test_oracle_ignores_bulk_delay_of_compensated_envelope(tmp_path):
    doc, out = first_successful(tmp_path, "propagate-dump")
    path = out / "envelope_compensated.csv"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    data[:, 1:] = np.roll(data[:, 1:], 123, axis=0)
    lines = ["t_s,re,im"] + [",".join(f"{v:.9g}" for v in row) for row in data]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    oracle.check("propagate", doc, out, oracle.Check(RTOL))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_untraced_outputs_are_byte_identical(tmp_path, name):
    def ops(tracer=None):
        return run.run_ops(
            cli, WORKLOADS[name], first_docs(name, 9, 4), tmp_path,
            oracle.Check(RTOL), speed.Gauge(), tracer,
        )

    plain = ops()
    with tracing.Tracer() as tracer:
        traced = ops(tracer)
    assert tracer.spans
    assert [op["hashes"] for op in plain] == [op["hashes"] for op in traced]
    assert [op["failure"] for op in plain] == [op["failure"] for op in traced]
    assert any(op["hashes"] for op in plain)


def test_tracer_wraps_every_binding_and_restores_them():
    import dispersim.compensator
    import dispersim.experiments

    original = dispersim.compensator.compensate
    with tracing.Tracer():
        assert dispersim.experiments.compensate is dispersim.compensator.compensate
        assert dispersim.compensator.compensate.__wrapped__ is original
    assert dispersim.experiments.compensate is original
    assert dispersim.compensator.compensate is original


def test_multilobe_warnings_are_counted():
    from dispersim.signal import Envelope, FrequencyGrid

    grid = FrequencyGrid(64, 1.0)
    samples = np.zeros(64)
    samples[[20, 30]] = 1.0
    with tracing.Tracer() as tracer:
        tracer.op_id = 0
        wrapped_fwhm = sys.modules["dispersim.signal"].intensity_fwhm
        wrapped_fwhm(Envelope(grid, samples))
    assert tracer.layer_metrics(1)["signal.fwhm_multilobe_warnings"] == 1


def test_missing_target_reads_zero(tmp_path, monkeypatch):
    targets = {k: v for k, v in tracing.TARGETS.items() if v != "signal.validate"}
    targets[("signal", "no_such_function")] = "signal.validate"
    monkeypatch.setattr(tracing, "TARGETS", targets)
    docs = first_docs("sweep-grid", 2, 1)
    with tracing.Tracer() as tracer:
        run.run_ops(
            cli, WORKLOADS["sweep-grid"], docs, tmp_path, oracle.Check(RTOL),
            speed.Gauge(), tracer,
        )
    layers = tracer.layer_metrics(1)
    assert layers["signal.validate.calls"] == 0
    assert layers["signal.validate.self_s"] == 0
    assert layers["fiber.dispersion_tf.calls"] > 0


def test_self_time_subtracts_child_cover():
    spans = [
        ["a", 0.0, 10.0, -1, 0],
        ["b", 1.0, 4.0, 0, 0],
        ["c", 2.0, 3.0, 1, 0],
        ["b", 5.0, 6.0, 0, 0],
    ]
    calls, self_s = tracing.span_totals(spans)
    assert calls == {"a": 1, "b": 2, "c": 1}
    assert self_s == pytest.approx({"a": 6.0, "b": 3.0, "c": 1.0})


def test_tail_percentile_keeps_ten_samples_beyond():
    walls = [float(i) for i in range(40)]
    value, pct = run.tail(walls)
    assert value == 29.0
    assert sum(w > value for w in walls) == 10
    assert pct == 75.0




def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "sweep-grid", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
