"""The benchmark's own tests: ``python3 -m pytest perfbench -q``.

The ``small`` fixture shrinks the models' size constants so the tests run
in seconds; results at those sizes only exercise the machinery and are not
benchmark figures.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import metric_table
import models
import run

run.import_repro()

from repro.validation import MM1  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def small(monkeypatch):
    for owner, attr, value in (
            (models.MMValidation, "MM1_JOBS", 5_000),
            (models.MMValidation, "MMC_JOBS", 2_000),
            (models.LhcT0T1, "HORIZON", 180.0),
            (models.LhcT0T1, "ANALYSIS_JOBS", 5),
            (models.DependabilityCampaign, "HORIZON", 100.0),
            (models.DependabilityCampaign, "TAIL_RUNS", 12),
            (run, "FLOOR_JOBS", 1_000),
            (run, "MIN_REPS", 2)):
        monkeypatch.setattr(owner, attr, value)


def _output(workload, seed: int) -> dict:
    return workload.run(workload.setup(seed))


def test_one_command_prints_every_metric_with_its_unit(small, capsys):
    assert run.main(["--workload", "all", "--seed", "5", "--seconds", "0",
                     "--trace", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    table = lines[:-1]
    end_to_end = [(m["name"], m["unit"]) for m in run.SPEC["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in run.SPEC["per_layer"]]
    # every metric is documented in metric_table, and nothing else is
    assert set(metric_table.END_TO_END) == {n for n, _ in end_to_end}
    assert set(metric_table.PER_LAYER) == {n for n, _ in per_layer}
    rows = end_to_end + [metric_table.FAILED_FRAC[:2]] + per_layer
    for wl in models.WORKLOADS:
        start = table.index(next(l for l in table if l.startswith(f"== {wl}:")))
        block = table[start + 1:]
        for name, unit in rows:
            assert any(l.split()[:1] == [name] and l.split()[2] == unit
                       for l in block), (wl, name)
            if name != "failed_frac":
                assert result["metrics"][f"{wl}:{name}"]["unit"] == unit
    tail = result["metrics"]
    assert 0 < tail["dependability_campaign:campaign.run_wall_p50_s"]["value"] \
        <= tail["dependability_campaign:campaign.run_wall_p90_s"]["value"]


@pytest.mark.parametrize("name", list(models.WORKLOADS))
def test_corrupted_expectation_raises_failed_frac(small, name):
    workload = models.WORKLOADS[name]()
    true = workload.expected()
    wrong = {
        # a wrong theory: rho 0.5 gives W = 2 and utilisation 0.5 against
        # the true 5 and 0.8
        "mm_validation": lambda: {**true, "mm1": MM1(0.5, 1.0)},
        "lhc_t0t1": lambda: {"diverged": False},
        "dependability_campaign": lambda: {"availability": 0.2},
    }[name]
    honest = run.Session(workload, 7)
    honest.warm_up()
    corrupted = run.Session(workload, 7)
    corrupted.w.expected = wrong
    corrupted.warm_up()
    assert corrupted.failed / len(corrupted.checks) > \
        honest.failed / len(honest.checks)


@pytest.mark.parametrize("name", list(models.WORKLOADS))
def test_seed_reaches_the_model(small, name):
    workload = models.WORKLOADS[name]()
    first = workload.digest(_output(workload, 1))
    assert workload.digest(_output(workload, 1)) == first
    assert workload.digest(_output(workload, 2)) != first


def test_tracing_restores_every_wrapped_attribute():
    import ledger

    with ledger.instrument(ledger.Tracer()) as inst:
        patched = [(owner, attr, original, owner.__dict__[attr])
                   for owner, attr, original in inst.patches._saved]
    assert patched
    for owner, attr, original, wrapped in patched:
        assert wrapped is not original
        assert owner.__dict__[attr] is original, (owner, attr)


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lhc_t0t1",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
