"""Golden trajectories of the flow-network layer.

Three flow-heavy models are run at fixed seeds with a
:class:`~repro.core.trace.TraceRecorder` attached: a MONARC T0/T1 study
with analysis beside replication, the ``dependability`` campaign scenario
at three seeds, and a deterministic flow-churn run.  For each one the test
pins the SHA-256 of the executed ``(time, priority, label)`` stream and the
SHA-256 of its outputs, every float written with ``float.hex``.  A change to
max-min sharing, completion timing or the transfer layers that moves one
firing, or one output in its last bit, fails here.

The stream leaves out each event's ``seq``: that is the kernel's scheduling
counter, which moves whenever the flow layer schedules more or fewer
events, not only when it changes what fires.

Regenerate the constants only for a deliberate behaviour change::

    PYTHONPATH=src python tests/test_flow_trajectory_pin.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.campaign import scenarios
from repro.core import Simulator
from repro.core.trace import TraceRecorder
from repro.workloads import build_flow_churn

#: telemetry fields of the dependability scenario that are fixed by the
#: seed; the rest are wall-clock readings or raw queue lengths.
_DEPENDABILITY_TELEMETRY = ("events", "sim_time", "reallocs",
                            "realloc_flows_touched", "realloc_rescheduled",
                            "realloc_preserved")


def _hexed(value):
    """*value* with every float replaced by its ``float.hex`` string."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: _hexed(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_hexed(v) for v in value]
    return value


def _stream_digest(records) -> str:
    h = hashlib.sha256()
    for rec in records:
        h.update(f"{rec.time.hex()} {rec.value.hex()} {rec.kind}\n".encode())
    return h.hexdigest()


def _output_digest(outputs) -> str:
    return hashlib.sha256(
        json.dumps(_hexed(outputs), sort_keys=True).encode()).hexdigest()


def model_monarc():
    """3 T1 x 1 T2 centres, 600 s, analysis jobs at every centre."""
    from repro.simulators import MonarcModel

    sim = Simulator(seed=1)
    recorder = TraceRecorder().attach(sim)
    model = MonarcModel(sim, n_tier1=3, n_tier2_per_t1=1, uplink_gbps=2.5,
                        agent_enabled=True)
    for centre in model.t1_names + model.t2_names:
        model.analysis_activity(centre, 20, think_time=30.0)
    r = model.run_t0_t1_study(horizon=600.0)
    net = model.grid.network
    outputs = {
        "mean_transfer_time": r.mean_transfer_time,
        "backlog_series": [[float(t), float(v)] for t, v in r.backlog_series],
        "produced": r.produced_files, "replicated": r.replicated_files,
        "turnaround": model.monitor.tally("analysis_turnaround").mean,
        "sharing": net.sharing.as_dict(),
        "completed": net.completed,
        "transfer_time": net.monitor.tally("transfer_time").mean,
        "throughput": net.monitor.tally("throughput").mean,
    }
    return recorder, outputs


def model_dependability(seed: int, monkeypatch):
    """The correlated-fault scenario, recorded through its own simulator."""
    recorders = []
    build = scenarios._build_observation

    def recording_observation():
        obs = build()
        attach = obs.attach

        def attach_and_record(sim, *args, **kwargs):
            recorders.append(TraceRecorder().attach(sim))
            return attach(sim, *args, **kwargs)
        obs.attach = attach_and_record
        return obs

    monkeypatch.setattr(scenarios, "_build_observation", recording_observation)
    metrics, telemetry = scenarios.run_scenario(
        "dependability", {"horizon": 500.0}, seed)
    (recorder,) = recorders
    outputs = {"metrics": metrics,
               "telemetry": {k: telemetry[k] for k in _DEPENDABILITY_TELEMETRY}}
    return recorder, outputs


def model_flowchurn():
    """Disjoint transfer chains plus a shared backbone (no RNG)."""
    model = build_flow_churn(pairs=12, transfers_per_pair=6, backbone_flows=3)
    recorder = TraceRecorder().attach(model.sim)
    model.run()
    stats = model.stats()
    del stats["wall_seconds"]
    outputs = {"finished": model.completion_times(), "stats": stats,
               "now": model.sim.now}
    return recorder, outputs


MODELS = {
    "monarc": lambda mp: model_monarc(),
    "dependability-1": lambda mp: model_dependability(1, mp),
    "dependability-2": lambda mp: model_dependability(2, mp),
    "dependability-3": lambda mp: model_dependability(3, mp),
    "flowchurn": lambda mp: model_flowchurn(),
}

#: model -> (events fired, stream SHA-256, outputs SHA-256), captured on
#: the per-flow completion-event engine
PINNED = {
    "dependability-1": (
        1633,
        "75a5629faf8ca8c7e8051663bbdf1965d4a84d42ed701658d3292b0468e8d578",
        "f6017e6c490f40a184757c3a4b97f6c70c3ad4d52ebc99dcba6d77cd45f415be"),
    "dependability-2": (
        1612,
        "845cc84829234a3b80b0bf5932977f138147579378fe059d855061df1b127c64",
        "c0731758fda2680a4a35fd34a3bab73ef66dfa03b4939e212edaf4aa5fdb7181"),
    "dependability-3": (
        1673,
        "c255f3971901595c3db090dfd9897b8350036c96ae3d3daf1bc70d2cd5811319",
        "9d95b973c30d1ad8d34841dd62c369e13424e27965d9159646a4d1053d846dc0"),
    "flowchurn": (
        308,
        "7e5ab3e9f12ea92993f80b0912e10afd0bc6f4b3b7a49f7bf1e0c52bd5a01e68",
        "e67ddaa9cb177d51d9d8238a1857bf07b5498a830b3df6e5e519c93e4c522a54"),
    "monarc": (
        1325,
        "4f92cc5bfb495aa8912395506c2f86c9a1d32a9ceac0fb59104de865ea6b0c6a",
        "88e09e3d178aa811a6aefefcbca703e0035376c074c91441a45c5b4dd12468f7"),
}


def _observe(name: str, monkeypatch) -> tuple[int, str, str]:
    recorder, outputs = MODELS[name](monkeypatch)
    return (len(recorder), _stream_digest(recorder.records),
            _output_digest(outputs))


@pytest.mark.parametrize("name", sorted(MODELS))
def test_flow_trajectory_is_pinned(name, monkeypatch):
    assert _observe(name, monkeypatch) == PINNED[name]


def test_stream_digest_sees_every_field():
    """The digest must move when any one of time, priority or label does,
    and must not move with ``seq`` alone."""
    recorder, _ = model_flowchurn()
    records = recorder.records
    base = _stream_digest(records)
    first = records[0]
    for change in ({"time": first.time + 1e-12}, {"value": first.value + 1.0},
                   {"kind": first.kind + "x"}):
        altered = [dataclasses.replace(first, **change)] + records[1:]
        assert _stream_digest(altered) != base, change
    reseq = [dataclasses.replace(first, attrs={"seq": "999999"})] + records[1:]
    assert _stream_digest(reseq) == base


if __name__ == "__main__":
    with pytest.MonkeyPatch.context() as mp:
        for model in sorted(MODELS):
            print(f"    {model!r}: {_observe(model, mp)!r},")
