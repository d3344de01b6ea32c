#!/usr/bin/env python3
"""Layer-ledger benchmark: three paper models, end to end and per layer.

    python3 perfbench/run.py --workload mm_validation --seed 1 --seconds 20 --trace 0

``--workload`` is one of ``mm_validation``, ``lhc_t0t1``,
``dependability_campaign`` or ``all`` (every workload in one process, their
repetitions interleaved round by round).  One run:

1. with ``--trace 0`` (and always with ``all``), times set-up in fresh
   interpreters (``setup_s``, median of several);
2. runs one untimed warm-up repetition, then timed repetitions until
   ``--seconds`` have passed and at least ``MIN_REPS`` have run, with
   ``gc.collect()`` before each one outside the timed region; ``wall_s`` is
   their median and ``peak_rss_mb`` the process high-water mark after them;
3. times a fixed calibration loop (``probes.calibrate``) before and after
   every set-up and repetition.  A shared host's speed drifts by a third
   within minutes as its neighbours come and go, so every time the
   benchmark reports is scaled to a reference host on which that loop takes
   ``CALIB_REF_S``: seconds x CALIB_REF_S / (mean calibration time on
   either side).  The benchmark, its calibrator and its set-up children
   share one CPU, so every calibration measures the CPU the workloads run
   on.  ``host.calib_s`` is the median calibration time, and the table also
   prints the unscaled host seconds;
4. with ``--trace 1``, runs one more repetition with every layer wrapped
   (see ``ledger.py``), writes its spans under ``.perfbench_out/``, runs
   the process-layer floor probe and, for the campaign, a fixed-size extra
   campaign whose per-run walls give the per-run percentiles;
5. checks every output (theory, conservation and coverage checks, plus a
   byte-identical digest for every repetition and the traced run).

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` count the checks, and ``metrics`` holds the
end-to-end metrics (``--trace 0``) or the per-layer ones (``--trace 1``).
Metric names, units and workload descriptions come from ``BENCHMARK.json``;
``metric_table.py`` says what each metric means and moves.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import probes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_SAMPLES = 5
MIN_REPS = 5
#: customers of the process-layer floor probe's M/M/1
FLOOR_JOBS = 10_000
#: calibration time of the reference host the reported seconds refer to
CALIB_REF_S = 0.12


def import_repro() -> None:
    """Put the checkout's ``src`` first on the path and make sure ``repro``
    resolves there, so the benchmark never measures another copy."""
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no simulator sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: repro imported from {repro.__file__}, "
                 f"not from {package}")


class Clock:
    """Scales measured seconds to the reference host, using calibrations
    taken just before and just after each measurement."""

    def __init__(self, calibrator: probes.Calibrator) -> None:
        self._measure = calibrator.measure
        self.calibs = [self._measure()]

    def mark(self) -> None:
        """Calibrate now, before a measurement that follows other work."""
        self.calibs.append(self._measure())

    def factor(self) -> float:
        """Reference seconds per host second since the last calibration."""
        before = self.calibs[-1]
        self.calibs.append(self._measure())
        return CALIB_REF_S / ((before + self.calibs[-1]) / 2)

    def scale(self, seconds: float) -> float:
        return seconds * self.factor()


def setup_seconds(name: str, seed: int, clock: Clock) -> list[float]:
    """Set-up time of *name*, once per fresh interpreter, scaled."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_child.py"), name, str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
            check=False)
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up of {name} failed:\n{proc.stderr}")
        got = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append(clock.scale(got["setup_s"]))
    return samples


class Session:
    """One workload's repetitions, outputs and checks within a run."""

    def __init__(self, workload, seed: int) -> None:
        self.w = workload
        self.seed = seed
        self.walls: list[float] = []
        self.host_walls: list[float] = []
        self.host_wall_s = 0.0
        self.outputs: list[dict] = []
        self.warm = None
        self.checks: list[tuple[str, bool, str]] = []
        self.metrics: dict[str, float] = {}
        self.per_layer: dict[str, float] = {}
        self.samples: dict[str, int] = {}

    def repetition(self) -> tuple[dict, float]:
        state = self.w.setup(self.seed)
        gc.collect()
        t0 = perf_counter()
        out = self.w.run(state)
        return out, perf_counter() - t0

    def warm_up(self) -> None:
        self.warm, _ = self.repetition()
        self.checks.extend(self.w.checks(self.warm))

    def timed(self, clock: Clock) -> None:
        out, dt = self.repetition()
        self.walls.append(clock.scale(dt))
        self.host_walls.append(dt)
        self.outputs.append(out)

    def same_digest(self, label: str, out: dict) -> None:
        want, got = self.w.digest(self.warm), self.w.digest(out)
        self.checks.append((f"{label} digest equals the warm-up digest",
                            got == want, f"{got[:16]} vs {want[:16]}"))

    def finish_untraced(self) -> None:
        for i, out in enumerate(self.outputs):
            self.same_digest(f"repetition {i + 1}", out)
        self.metrics["wall_s"] = statistics.median(self.walls)
        self.samples["wall_s"] = len(self.walls)
        self.host_wall_s = statistics.median(self.host_walls)

    def traced(self, clock: Clock) -> None:
        import ledger

        tracer = ledger.Tracer()
        tracer.calibrate()
        state = self.w.setup(self.seed)
        gc.collect()
        clock.mark()
        with ledger.instrument(tracer) as inst:
            t0 = perf_counter()
            out = self.w.run(state)
            traced_wall = perf_counter() - t0
        traced_wall = clock.scale(traced_wall)
        self.same_digest("traced run", out)
        tracer.write(str(OUT_DIR), f"spans-{self.w.name}")
        wall = self.metrics["wall_s"]
        m = ledger.rollup(tracer, inst, wall)
        self.checks.append(("traced run fired events", m["engine.events"] > 0,
                            f"{m['engine.events']} events"))
        probe = probes.callback_floor(self.seed, n_jobs=FLOOR_JOBS)
        self.checks.append(("callback probe W equals process-model W",
                            probe["agree"], f"W={probe['W']:.6f}"))
        m["process.callback_ratio"] = probe["ratio"]
        m["campaign.run_wall_p50_s"] = m["campaign.run_wall_p90_s"] = 0.0
        if hasattr(self.w, "run_walls"):
            gc.collect()
            clock.mark()
            walls = self.w.run_walls(self.seed)
            factor = clock.factor()
            runs = sorted(w * factor for w in walls)
            m["campaign.run_wall_p50_s"] = statistics.median(runs)
            # nearest rank: of TAIL_RUNS = 100 runs, ten lie beyond it
            m["campaign.run_wall_p90_s"] = runs[math.ceil(0.9 * len(runs)) - 1]
        m["host.calib_s"] = statistics.median(clock.calibs)
        m["trace.overhead_frac"] = traced_wall / wall - 1.0
        self.per_layer = m
        self.samples["spans"] = tracer.span_count()

    @property
    def failed(self) -> int:
        return sum(1 for _, ok, _ in self.checks if not ok)


def measure(names: list[str], seed: int, seconds: float,
            trace: bool) -> list[Session]:
    import models

    sessions = [Session(models.WORKLOADS[name](), seed) for name in names]
    with probes.Calibrator() as calibrator:
        clock = Clock(calibrator)
        if not trace or len(names) > 1:
            for s in sessions:
                samples = setup_seconds(s.w.name, seed, clock)
                s.metrics["setup_s"] = statistics.median(samples)
                s.samples["setup_s"] = len(samples)
        for s in sessions:
            s.warm_up()
        # Interleave: each round runs one repetition of every workload.
        clock.mark()
        t0 = perf_counter()
        rounds = 0
        while rounds < MIN_REPS or perf_counter() - t0 < seconds:
            for s in sessions:
                s.timed(clock)
            rounds += 1
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for s in sessions:
            s.finish_untraced()
            s.metrics["peak_rss_mb"] = rss_mb
            s.metrics["host.calib_s"] = statistics.median(clock.calibs)
        if trace:
            for s in sessions:
                s.traced(clock)
    return sessions


def report(sessions: list[Session], trace: bool) -> dict:
    """Print the human-readable table; return the final JSON object."""
    import metric_table

    end_to_end = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]
    why = {w["name"]: w["why"] for w in SPEC["workloads"]}
    units = dict(end_to_end + per_layer)
    single = len(sessions) == 1
    # A driver run reports one metric family; ``all`` reports everything.
    wanted = [] if trace and single else [n for n, _ in end_to_end]
    if trace:
        wanted += [n for n, _ in per_layer]
    out_metrics = {}
    attempted = failed = 0
    for s in sessions:
        wl = s.w.name
        print(f"== {wl}: {why[wl]}")
        attempted += len(s.checks)
        failed += s.failed
        frac = s.failed / len(s.checks) if s.checks else 1.0
        for name, unit in end_to_end:
            if name in s.metrics:
                n = s.samples.get(name)
                note = f"  (median of {n})" if n else ""
                if name == "wall_s":
                    note += f"; {s.host_wall_s:.6g} s on this host"
                if name == "peak_rss_mb" and not single:
                    note = "  (whole process, all workloads so far)"
                print(f"   {name:<34} {s.metrics[name]:>14.6g} {unit}{note}")
        print(f"   {metric_table.FAILED_FRAC[0]:<34} {frac:>14.6g} "
              f"{metric_table.FAILED_FRAC[1]}  ({s.failed} of {len(s.checks)} "
              f"checks failed)")
        if not trace:
            print(f"   {'host.calib_s':<34} {s.metrics['host.calib_s']:>14.6g} s")
        for label, ok, detail in s.checks:
            if not ok:
                print(f"   FAILED {label}: {detail}")
        if trace:
            print(f"   -- traced run: {s.samples['spans']} spans")
            for name, unit in per_layer:
                print(f"   {name:<34} {s.per_layer[name]:>14.6g} {unit}")
        values = {**s.metrics, **s.per_layer}
        for name in wanted:
            key = name if single else f"{wl}:{name}"
            out_metrics[key] = {"value": values[name], "unit": units[name]}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": out_metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_repro()
    import models

    names = list(models.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    for name in names:
        if name not in models.WORKLOADS:
            parser.error(f"unknown workload {name!r}; choose from "
                         f"{', '.join(models.WORKLOADS)} or all")
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sessions = measure(names, args.seed, args.seconds, bool(args.trace))
    result = report(sessions, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
