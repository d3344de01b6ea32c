"""What each metric the benchmark reports means, and what it moves.

``BENCHMARK.json`` holds each metric's name, unit, direction and bound;
this table is keyed by the same names.  End-to-end metrics are what a user
of the simulator sees; they come from the untraced repetitions
(``--trace 0``).  Per-layer metrics come from the traced run
(``--trace 1``); each says which end-to-end metric it should move and on
which workload, so a performance change can cite a row instead of
re-deriving the mapping.  Per-layer times are host seconds of the traced
run, net of the tracer's own cost as ``Tracer.calibrate`` measures it; they
rank layers and compare commits, and do not add up to ``wall_s``.
"""

from __future__ import annotations

MM, LHC, CAMP = "mm_validation", "lhc_t0t1", "dependability_campaign"
ALL = "all workloads"

#: end-to-end metric -> meaning
END_TO_END = {
    "wall_s": "median seconds to run the model once after set-up, on the "
              "reference host (run.CALIB_REF_S)",
    "setup_s": "median seconds to import repro in a fresh interpreter and "
               "construct the workload's model, on the reference host",
    "peak_rss_mb": "peak resident memory of the workload process",
}

#: the check ratio printed beside the end-to-end metrics; it is zero when
#: the program is right, so it travels in the result's failed/attempted
#: counts rather than as a gated metric
FAILED_FRAC = ("failed_frac", "ratio",
               "failed output checks divided by checks attempted")

#: per-layer metric -> (end-to-end metric it should move and where, meaning)
PER_LAYER = {
    "engine.events": (f"wall_s on {ALL}, most on {MM}",
        "events fired"),
    "engine.events_per_s": (f"wall_s on {ALL}, most on {MM}",
        "events fired divided by the untraced wall_s"),
    "engine.schedule_calls": (f"wall_s on {ALL}, most on {MM}",
        "Simulator.schedule_at calls"),
    "engine.schedule_self_s": (f"wall_s on {ALL}, most on {MM}",
        "self time of schedule_at (Event allocation included)"),
    "engine.dispatch_self_s": (f"wall_s on {ALL}, most on {MM}",
        "self time of Simulator.run outside queue pops and handlers"),
    "engine.fired_per_scheduled": (f"wall_s on {ALL}, most on {MM}",
        "events fired per event scheduled"),
    "queue.push_calls": (f"wall_s on {ALL}",
        "event-queue pushes"),
    "queue.pop_calls": (f"wall_s on {ALL}",
        "event-queue pop_if_le calls"),
    "queue.self_s": (f"wall_s on {ALL}",
        "self time of push and pop_if_le"),
    "queue.max_len": (f"wall_s on {ALL}",
        "most live events pending at once"),
    "queue.cancelled_frac": (f"wall_s on {ALL}, most on {LHC}",
        "events cancelled before firing per event pushed"),
    "rng.draws": (f"wall_s on {MM}",
        "random variates drawn from Stream objects"),
    "rng.self_s": (f"wall_s on {MM}", "self time of the draws"),
    "rng.ns_per_draw": (f"wall_s on {MM}",
        "rng.self_s per draw"),
    "process.spawned": (f"wall_s and peak_rss_mb on {MM}",
        "Process objects created"),
    "process.resumptions": (f"wall_s and peak_rss_mb on {MM}",
        "generator steps fired by the kernel (first steps included)"),
    "process.self_s": (f"wall_s and peak_rss_mb on {MM}",
        "self time of Process construction and of handlers in core.process"),
    "process.callback_ratio": (f"wall_s and peak_rss_mb on {MM}",
        "process-model over bare-callback M/M/1 wall time (probe, "
        "run.FLOOR_JOBS customers)"),
    "resource.requests": (f"wall_s on {MM}",
        "Resource.request calls"),
    "resource.self_s": (f"wall_s on {MM}",
        "self time of request, release and handlers in core.resources"),
    "resource.mean_wait_sim": (f"none; a speed-only change "
        f"on {MM} must leave it identical",
        "mean simulated wait of released requests"),
    "monitor.records": (f"wall_s and peak_rss_mb on {MM}",
        "Tally.record, TimeWeighted.set and Counter.increment calls"),
    "monitor.self_s": (f"wall_s and peak_rss_mb on {MM}",
        "self time of the monitor calls"),
    "flow.transfers": (f"wall_s on {LHC} (most) and {CAMP}",
        "FlowNetwork.transfer calls"),
    "flow.recomputes": (f"wall_s on {LHC} (most) and {CAMP}",
        "max-min reallocation passes"),
    "flow.flows_touched": (f"wall_s on {LHC} (most) and {CAMP}",
        "flow rates recomputed, summed over passes"),
    "flow.preserved_frac": (f"wall_s on {LHC} (most) and {CAMP}",
        "recomputed flows whose completion event was kept"),
    "flow.coalesced": (f"wall_s on {LHC} (most) and {CAMP}",
        "admits and finishes folded into a pending pass"),
    "flow.aborted": (f"wall_s on {CAMP}",
        "flows aborted by link outages"),
    "flow.realloc_self_s": (f"wall_s on {LHC} (most) and {CAMP}",
        "self time of the coalesced reallocation handler"),
    "flow.self_s": (f"wall_s on {LHC} (most) and {CAMP}; "
        f"not on {MM}", "self time of the flow layer"),
    "topology.route_calls": (f"wall_s on {CAMP}, setup_s on {LHC}",
        "Topology.route calls"),
    "topology.route_miss_frac": (f"wall_s on {CAMP}, setup_s on {LHC}",
        "route calls that ran a networkx single-source Dijkstra"),
    "topology.route_self_s": (f"wall_s on {CAMP}, setup_s on {LHC}",
        "self time of the topology layer"),
    "transfer.fetches": (f"wall_s on {LHC} and {CAMP}",
        "FileTransferService.fetch calls"),
    "transfer.retry_frac": (f"wall_s on {LHC} and {CAMP}",
        "retried attempts per attempt"),
    "transfer.mean_queue_delay_sim": (f"wall_s on {LHC} and {CAMP}",
        "mean simulated wait for a transfer slot"),
    "transfer.self_s": (f"wall_s on {LHC} and {CAMP}",
        "self time of the transfer layer"),
    "middleware.announces": (f"wall_s on {LHC}",
        "DataReplicationAgent.announce calls"),
    "middleware.best_replica_calls": (f"wall_s on {LHC}",
        "ReplicaCatalog.best_replica calls"),
    "middleware.remote_read_frac": (f"wall_s on {LHC}",
        "analysis reads served remotely per analysis read"),
    "middleware.self_s": (f"wall_s on {LHC}",
        "self time of the middleware layer"),
    "hosts.submits": (f"wall_s on {CAMP}",
        "machine submit calls"),
    "hosts.eviction_frac": (f"wall_s on {CAMP}",
        "jobs evicted by crashes per job submitted"),
    "hosts.self_s": (f"wall_s on {CAMP}",
        "self time of the hosts layer"),
    "faults.crashes": (f"wall_s on {CAMP}",
        "FaultGraph.fail calls"),
    "faults.self_s": (f"wall_s on {CAMP}",
        "self time of the faults layer"),
    "obs.fire_calls": (f"wall_s on {CAMP} only",
        "ObsBinding.begin_fire calls"),
    "obs.self_s": (f"wall_s on {CAMP} only",
        "self time of begin_fire and end_fire"),
    "campaign.runs": (f"wall_s on {CAMP}",
        "run_scenario calls"),
    "campaign.overhead_s": (f"wall_s on {CAMP}",
        "campaign wall minus the summed run_scenario time"),
    "campaign.stats_s": (f"wall_s on {CAMP}",
        "self time of summaries, coverage and telemetry aggregation"),
    "campaign.run_wall_p50_s": (f"wall_s on {CAMP}",
        "median per-run wall of an extra untraced campaign of TAIL_RUNS = 100 "
        "replications, on the reference host"),
    "campaign.run_wall_p90_s": (f"wall_s on {CAMP}",
        "p90 per-run wall of that campaign: the run with ten runs beyond it"),
    "model.self_s": (f"wall_s on {ALL}",
        "handler time in model code outside every named layer"),
    "host.calib_s": ("nothing; normalises figures across hosts",
        "fixed pure-Python calibration loop"),
    "trace.overhead_frac": ("nothing; the tracing cost",
        "traced wall_s divided by untraced wall_s, minus one"),
}
