"""Flow-sharing results must not depend on interpreter state.

Two things once leaked into max-min rates through iteration order: the
per-process string hash seed (``PYTHONHASHSEED``), via sets of links, and
the process-global flow-id counter, via sets of flow ids.  Either made a
serial campaign run and the same run in a fresh worker disagree in the
last bits, and then in event order.
"""

import json
import os
import random
import subprocess
import sys

import repro
from repro.core import Simulator
from repro.network import FlowHandle, FlowNetwork, Topology

#: a 3-T1 x 1-T2 MONARC T0/T1 study with analysis beside replication,
#: printing every float bit-exactly.
_MONARC_SCRIPT = """
import json
from repro.core import Simulator
from repro.simulators import MonarcModel

sim = Simulator(seed=1)
model = MonarcModel(sim, n_tier1=3, n_tier2_per_t1=1, uplink_gbps=2.5,
                    agent_enabled=True)
for centre in model.t1_names + model.t2_names:
    model.analysis_activity(centre, 20, think_time=30.0)
r = model.run_t0_t1_study(horizon=600.0)
turnaround = model.monitor.tally("analysis_turnaround")
print(json.dumps([
    r.mean_transfer_time.hex(),
    [[float(t).hex(), float(v).hex()] for t, v in r.backlog_series],
    sim.events_executed,
    turnaround.mean.hex(),
]))
"""

HASH_SEEDS = ("0", "1", "2", "3", "4", "5")


def _monarc_fingerprint(hash_seed: str) -> str:
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", _MONARC_SCRIPT], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout


def test_t0_t1_results_identical_across_hash_seeds():
    prints = {seed: _monarc_fingerprint(seed) for seed in HASH_SEEDS}
    _, series, events, turnaround = json.loads(prints["0"])
    assert events > 0 and series and float.fromhex(turnaround) > 0
    assert len(set(prints.values())) == 1, {
        seed: json.loads(p)[0] for seed, p in prints.items()}


def _capped_rates(caps: list[float], id_offset: int, monkeypatch) -> list[float]:
    """Rates of flows with *caps* sharing one link, ids starting past
    *id_offset*."""
    monkeypatch.setattr(FlowHandle, "_counter", id_offset)
    topo = Topology()
    topo.add_link("a", "b", 1000.0)
    sim = Simulator()
    net = FlowNetwork(sim, topo, efficiency=1.0)
    handles = [net.transfer("a", "b", 1e9, rate_cap=cap) for cap in caps]
    sim.run(until=1.0)
    assert all(h.finished is None for h in handles)
    return [h.rate for h in handles]


def test_capped_rates_independent_of_flow_id_history(monkeypatch):
    rng = random.Random(20240517)
    for trial in range(200):
        caps = [rng.uniform(1.0, 120.0) for _ in range(12)]
        caps += [float("inf")] * 3
        rng.shuffle(caps)
        want = _capped_rates(caps, 0, monkeypatch)
        for offset in (20, 27, 50, 100, 1000):
            got = _capped_rates(caps, offset, monkeypatch)
            assert got == want, (trial, offset)
