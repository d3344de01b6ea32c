"""The benchmark's three workloads: paper models run as fixed-size batches.

Each workload is a closed loop of one client: a repetition builds the model
from the seed and the fixed parameters below (:meth:`setup`), runs it to
completion (:meth:`run`, the timed part), and the next repetition starts
only after that.  :meth:`checks` compares the output against the paper's
expectations and :meth:`digest` reduces it to bytes that must not change
between repetitions of one seed, traced or not.

Nothing here imports ``repro`` at module level, so a fresh interpreter can
time the import itself as part of set-up.
"""

from __future__ import annotations

import hashlib
import json

#: the relative-error threshold examples/validate_against_theory.py uses
THEORY_TOLERANCE = 0.15
#: confidence level of the availability CI.  A CI that is right 95% of
#: the time excludes the truth on one seed in twenty; the benchmark runs on
#: arbitrary seeds, so its CI must miss on almost none of them.
AVAILABILITY_CI_LEVEL = 0.9999


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


class MMValidation:
    """M/M/1 and M/M/4 at rho = 0.8, process style, against queueing theory."""

    name = "mm_validation"
    RHO, MU, SERVERS = 0.8, 1.0, 4
    #: customers per queue.  The mean sojourn of an M/M/1 at rho=0.8
    #: converges slowly (relative s.d. ~5.7% at 40k customers), so these
    #: sizes keep the 15% check about four standard deviations away.
    MM1_JOBS, MMC_JOBS = 100_000, 40_000

    def setup(self, seed: int) -> dict:
        import repro.validation  # noqa: F401  (the import is the set-up)

        return {"seed": seed}

    def run(self, state: dict) -> dict:
        from repro.validation import simulate_mm1, simulate_mmc

        lam, mu, c = self.RHO * self.MU, self.MU, self.SERVERS
        s1 = simulate_mm1(lam, mu, n_jobs=self.MM1_JOBS,
                          warmup=self.MM1_JOBS // 10, seed=state["seed"])
        sc = simulate_mmc(lam * c, mu, c, n_jobs=self.MMC_JOBS,
                          warmup=self.MMC_JOBS // 10, seed=state["seed"])
        return {"mm1": s1.to_dict(), "mmc": sc.to_dict()}

    def digest(self, out: dict) -> str:
        return _sha([out["mm1"], out["mmc"]])

    def expected(self) -> dict:
        from repro.validation import MM1, MMc

        return {"mm1": MM1(self.RHO * self.MU, self.MU),
                "mmc": MMc(self.RHO * self.SERVERS * self.MU, self.MU,
                           self.SERVERS)}

    def checks(self, out: dict, expected: dict | None = None) -> list:
        exp = expected or self.expected()
        rows = []
        for key in ("mm1", "mmc"):
            model, got = exp[key], out[key]
            for qty, want in (("W", model.W), ("utilization", model.rho)):
                err = abs(got[qty] - want) / want
                rows.append((f"{key}.{qty} within {THEORY_TOLERANCE:.0%}",
                             err <= THEORY_TOLERANCE,
                             f"{got[qty]:.4f} vs theory {want:.4f} "
                             f"({err:.2%})"))
        return rows


class LhcT0T1:
    """The MONARC T0/T1 study at 2.5 Gbps with analysis beside replication."""

    name = "lhc_t0t1"
    N_TIER1, N_TIER2_PER_T1, UPLINK_GBPS = 6, 2, 2.5
    HORIZON, ANALYSIS_JOBS, THINK_TIME = 3600.0, 100, 30.0

    def setup(self, seed: int) -> dict:
        from repro.core import Simulator
        from repro.simulators import MonarcModel

        sim = Simulator(seed=seed)
        model = MonarcModel(sim, n_tier1=self.N_TIER1,
                            n_tier2_per_t1=self.N_TIER2_PER_T1,
                            uplink_gbps=self.UPLINK_GBPS, agent_enabled=True)
        for centre in model.t1_names + model.t2_names:
            model.analysis_activity(centre, self.ANALYSIS_JOBS,
                                    think_time=self.THINK_TIME)
        state = {"sim": sim, "model": model}

        def snapshot() -> None:
            state["at_horizon"] = [len(model.produced), model.agent.shipped,
                                   model.replication_backlog()]
        sim.schedule_at(self.HORIZON, snapshot, label="perfbench_snapshot")
        return state

    def run(self, state: dict) -> dict:
        from repro.workloads import ATLAS_2005, CMS_2005

        model = state["model"]
        r = model.run_t0_t1_study(horizon=self.HORIZON,
                                  experiments=[CMS_2005, ATLAS_2005])
        turnaround = model.monitor.tally("analysis_turnaround")
        return {
            "produced": r.produced_files, "replicated": r.replicated_files,
            "final_backlog": r.final_backlog_files,
            "peak_backlog": r.peak_backlog_files,
            "diverged": r.diverged,
            "mean_transfer_time": r.mean_transfer_time,
            "backlog_series": r.backlog_series,
            "backlog_after_run": model.replication_backlog(),
            "at_horizon": state["at_horizon"],
            "targets": len(model.t1_names),
            "remote_reads": model.monitor.counter(
                "analysis_remote_reads").count,
            "analysis_jobs": turnaround.count,
            "analysis_turnaround": turnaround.mean,
            "events": state["sim"].events_executed,
        }

    def digest(self, out: dict) -> str:
        return _sha(out)

    def expected(self) -> dict:
        return {"diverged": True}

    def checks(self, out: dict, expected: dict | None = None) -> list:
        exp = expected or self.expected()
        produced, shipped, backlog = out["at_horizon"]
        targets = out["targets"]
        return [
            ("2.5 Gbps verdict is diverged",
             out["diverged"] == exp["diverged"],
             f"diverged={out['diverged']} (peak backlog "
             f"{out['peak_backlog']}, final {out['final_backlog']})"),
            ("produced x T1 = replicated + backlog at the horizon",
             produced * targets == shipped + backlog,
             f"{produced} x {targets} vs {shipped} + {backlog}"),
            ("produced x T1 = replicated + backlog after the run",
             out["produced"] * targets
             == out["replicated"] + out["backlog_after_run"],
             f"{out['produced']} x {targets} vs {out['replicated']} + "
             f"{out['backlog_after_run']}"),
        ]


class DependabilityCampaign:
    """A serial Monte Carlo campaign of the correlated-fault scenario."""

    name = "dependability_campaign"
    REPLICATIONS, HORIZON = 12, 2000.0
    #: replications of the extra campaign that gives the per-run wall
    #: percentiles: its p90 is the run with exactly ten runs beyond it
    TAIL_RUNS = 100

    def spec(self, seed: int, replications: int):
        from repro.campaign import CampaignSpec

        return CampaignSpec("dependability", base={"horizon": self.HORIZON},
                            replications=replications, root_seed=seed)

    def setup(self, seed: int) -> dict:
        spec = self.spec(seed, self.REPLICATIONS)
        spec.expand()
        return {"spec": spec}

    def run(self, state: dict) -> dict:
        from repro.campaign import runner

        spec = state["spec"]
        result = runner.run_campaign(spec, workers=1)
        summary = result.summaries(["availability"],
                                   level=AVAILABILITY_CI_LEVEL)["availability"]
        return {"metrics_bytes": result.metrics_bytes(),
                "availability": summary.to_dict(),
                "runs": len(result.records), "ok": result.n_ok}

    def run_walls(self, seed: int) -> list[float]:
        """Host seconds of each run of a serial campaign of ``TAIL_RUNS``
        replications on *seed*."""
        from repro.campaign import runner

        result = runner.run_campaign(self.spec(seed, self.TAIL_RUNS),
                                     workers=1)
        if result.n_ok != self.TAIL_RUNS:
            raise RuntimeError(f"tail campaign: {result.n_ok} of "
                               f"{self.TAIL_RUNS} runs ok")
        return [r.wall_seconds for r in result.records]

    def digest(self, out: dict) -> str:
        return hashlib.sha256(out["metrics_bytes"]).hexdigest()

    def expected(self) -> dict:
        from repro.campaign import theory_for

        return theory_for("dependability", {"horizon": self.HORIZON})

    def checks(self, out: dict, expected: dict | None = None) -> list:
        from repro.campaign import MetricSummary, stats

        exp = expected or self.expected()
        a = dict(out["availability"])
        del a["lo"], a["hi"]
        verdict = stats.coverage_verdict(
            {"availability": MetricSummary(**a)}, exp)["availability"]
        return [
            ("every campaign run finished ok", out["ok"] == out["runs"],
             f"{out['ok']}/{out['runs']} ok"),
            (f"availability {AVAILABILITY_CI_LEVEL:.2%} CI contains "
             f"mtbf/(mtbf+mttr)", verdict["contains"],
             f"[{verdict['lo']:.4f}, {verdict['hi']:.4f}] vs "
             f"{verdict['theory']:.4f}"),
        ]


WORKLOADS = {w.name: w for w in (MMValidation, LhcT0T1, DependabilityCampaign)}
