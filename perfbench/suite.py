"""The benchmark's four workloads, driven through the package's public API.

Each workload is run as a sequence of *units*.  Unit ``j`` of a run with
seed ``s`` draws its inputs from :func:`unit_seed` ``(s, j)`` (unit 0
uses ``s`` itself), so one run covers several input draws and its
median does not hinge on one trace.  A unit has three steps:

* ``inputs(seed)`` builds what a user would hand the program (untimed);
* ``body(inputs, tracer)`` is the timed call sequence;
* ``outputs(result)`` reduces what the body returned to checkable values
  (untimed), which :func:`check` compares with the recorded reference
  when the unit seed is the default one and checks for invariants
  otherwise.

Why each workload exists, and what it leaves out, is recorded in
``BENCHMARK.json``.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from spans import NullTracer

#: Seed whose unit-0 outputs are recorded in ``reference.json``.
DEFAULT_SEED = 0

#: Paper drivers timed by ``paper-figures`` (``repro all`` minus the
#: ablations and the fault sweep, which ``paper-failures`` covers).
FIGURES = ("table1",) + tuple(f"fig{i}" for i in range(2, 14))

#: Job-count multiplier of the paper workloads (1.0 = paper scale).
FIGURES_SCALE = 0.1
FAILURES_SCALE = 0.1

#: ``paper-failures`` skips input draws whose largest test job exceeds
#: this many MTBFs at the sweep's lowest availability (see
#: :class:`FailuresWorkload`).
FAILURES_MAX_TAIL = 4.0

#: Stream shared by both serve workloads: C90 at load 0.7 on 4 hosts,
#: fed by one closed-loop client in ``repro serve``'s default batch.
SERVE_JOBS = 100_000
SERVE_HOSTS = 4
SERVE_LOAD = 0.7
SERVE_BATCH = 256
SERVE_SHARDS = 2

#: Per-pass outputs recorded in ``reference.json`` for the serve workloads.
SERVE_REFERENCE_KEYS = ("counters", "jain", "digest")


def unit_seed(seed: int, j: int) -> int:
    """Input seed of unit ``j`` in a run seeded ``seed``."""
    if j == 0:
        return seed
    return int(np.random.SeedSequence([seed, j]).generate_state(1)[0])


def _canonical(value):
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def _rows(result) -> list[dict]:
    return [{k: _canonical(v) for k, v in row.items()} for row in result.rows]


def _same(a, b) -> bool:
    """Bit-exact equality of JSON-shaped values (NaN equals NaN)."""
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class PaperWorkload:
    """``run_experiment`` serially over a fixed list of drivers."""

    #: Reference loop the timings are taken against (see run.py).
    reference = "cpu"

    def __init__(self, name: str, experiments: tuple[str, ...], scale: float):
        self.name = name
        self.experiments = experiments
        self.scale = scale

    def params(self) -> dict:
        return {"experiments": list(self.experiments), "scale": self.scale}

    def prepare(self) -> None:
        import repro.experiments  # noqa: F401  (registers every driver)

    def reset(self) -> None:
        """Drop the process-wide memos, so each unit does a cold run's work."""
        from repro.core.search import clear_search_memo
        from repro.experiments.common import clear_trace_cache

        clear_trace_cache()
        clear_search_memo()

    def inputs(self, seed: int):
        from repro.experiments import ExperimentConfig

        return ExperimentConfig(scale=self.scale, seed=seed)

    def body(self, config, tracer):
        from repro.experiments import run_experiment

        out = {}
        for eid in self.experiments:
            try:
                out[eid] = tracer.call(
                    "experiments.run", run_experiment, eid, config
                )
            except Exception as exc:  # noqa: BLE001 - reported as failed points
                out[eid] = exc
        return out

    def outputs(self, result) -> dict:
        return {
            eid: res if isinstance(res, Exception) else _rows(res)
            for eid, res in result.items()
        }

    def jobs(self, outputs: dict) -> int:
        """Jobs in the reported summaries (rows without ``n_jobs`` are
        analytic and count none)."""
        return sum(
            int(row.get("n_jobs", 0))
            for rows in outputs.values()
            if not isinstance(rows, Exception)
            for row in rows
        )

    def attempts(self, reference: dict) -> int:
        return sum(len(reference[eid]) for eid in self.experiments)

    def check(self, outputs: dict, reference: dict, exact: bool):
        """(attempted, failed, problems): one attempt per reference row."""
        attempted = failed = 0
        problems = []
        for eid in self.experiments:
            ref_rows = reference[eid]
            rows = outputs[eid]
            attempted += len(ref_rows)
            if isinstance(rows, Exception):
                failed += len(ref_rows)
                problems.append(f"{eid} raised {type(rows).__name__}: {rows}")
                continue
            if len(rows) != len(ref_rows):
                failed += len(ref_rows)
                problems.append(
                    f"{eid}: {len(rows)} rows, reference has {len(ref_rows)}"
                )
                continue
            for k, (row, ref) in enumerate(zip(rows, ref_rows)):
                why = _row_problem(row, ref, exact)
                if why:
                    failed += 1
                    if len(problems) < 8:
                        problems.append(f"{eid} row {k}: {why}")
        return attempted, failed, problems


class FailuresWorkload(PaperWorkload):
    """``run_experiment("failures")`` on draws without a runaway redispatch tail.

    Under the ``redispatch`` semantics a job restarts from scratch after
    every crash, so a job of ``x`` MTBFs needs about ``e**x`` attempts
    and every job queued behind it is redispatched each time.  One draw
    in sixteen at this scale has a largest job above four MTBFs at
    availability 0.9; one at 11 MTBFs was still running after 200 s,
    past any fixed run length.  ``inputs`` therefore takes the first of the seed's
    candidate draws whose largest job is within ``FAILURES_MAX_TAIL``
    MTBFs, computed exactly as the sweep builds its trace and faults.
    The regime above the cap is left out, as ``BENCHMARK.json`` records.
    """

    def __init__(self, name: str, scale: float, max_tail: float):
        super().__init__(name, ("failures",), scale)
        self.max_tail = max_tail

    def params(self) -> dict:
        return {**super().params(), "max_tail": self.max_tail}

    def inputs(self, seed: int):
        k = 0
        while True:
            candidate = seed if k == 0 else int(
                np.random.SeedSequence([seed, 0, k]).generate_state(1)[0]
            )
            config = super().inputs(candidate)
            if self.tail(config) <= self.max_tail:
                return config
            k += 1

    @staticmethod
    def tail(config) -> float:
        """Largest test job over the MTBF at the lowest availability swept."""
        from repro.experiments.common import make_split_trace, point_seed
        from repro.experiments.failures import AVAILABILITIES, _fault_model
        from repro.sim.faults import SEMANTICS
        from repro.workloads.catalog import get_workload

        # The arguments ``run_failures`` passes to ``failure_sweep``.
        workload, load, n_hosts = get_workload("c90"), 0.7, 2
        n_jobs = config.jobs(max(workload.n_jobs, 30_000))
        worst = 0.0
        for rep in range(config.replications):
            seed = point_seed(config, "failures", "c90", load, rep)
            _, test = make_split_trace(workload, load, n_hosts, n_jobs, seed)
            faults = _fault_model(
                min(AVAILABILITIES), SEMANTICS[0],
                float(np.mean(test.service_times)), 0,
            )
            worst = max(worst, float(test.service_times.max()) / faults.mtbf)
        return worst


def _row_problem(row: dict, ref: dict, exact: bool) -> str | None:
    if exact:
        return None if _same(row, ref) else "differs from the reference"
    if sorted(row) != sorted(ref):
        return f"columns {sorted(row)} != {sorted(ref)}"
    for key, value in ref.items():
        if isinstance(value, str) and row[key] != value:
            return f"{key}={row[key]!r}, reference {value!r}"
    if row.get("fallback", False):
        return "fast kernel failed its output check"
    slow = row.get("mean_slowdown")
    ref_slow = ref.get("mean_slowdown")
    if isinstance(ref_slow, float) and not math.isnan(ref_slow):
        if not (isinstance(slow, float) and slow >= 1.0 - 1e-9):
            return f"mean_slowdown={slow!r}"
    return None


def _stream(seed: int) -> dict:
    """The serve workloads' seeded stream and SITA quartile cutoffs."""
    from repro.workloads.catalog import get_workload

    trace = get_workload("c90").make_trace(
        load=SERVE_LOAD, n_hosts=SERVE_HOSTS, n_jobs=SERVE_JOBS, rng=seed
    )
    arrivals = np.ascontiguousarray(trace.arrival_times - trace.arrival_times[0])
    sizes = np.ascontiguousarray(trace.service_times)
    cutoffs = [float(np.quantile(sizes, q)) for q in (0.25, 0.5, 0.75)]
    return {"seed": seed, "arrivals": arrivals, "sizes": sizes, "cutoffs": cutoffs}


def _feed(server, stream: dict, tracer, submit_name: str, first_name=None):
    """One closed-loop client: each batch is offered after the last returns."""
    a, s = stream["arrivals"], stream["sizes"]
    for i in range(0, a.shape[0], SERVE_BATCH):
        name = first_name if (i == 0 and first_name) else submit_name
        tracer.call(name, server.submit_batch, a[i : i + SERVE_BATCH], s[i : i + SERVE_BATCH])


def table_digest(table: dict) -> str:
    """SHA-256 over the per-job columns, in submission order."""
    h = hashlib.sha256()
    for key in ("arrival", "size", "host", "start", "completion"):
        dtype = np.int64 if key == "host" else np.float64
        h.update(np.ascontiguousarray(table[key], dtype=dtype).tobytes())
    return h.hexdigest()


def _serve_outputs(status: dict, table: dict) -> dict:
    return {
        "counters": {k: int(v) for k, v in status["counters"].items()},
        "invariant": bool(all(status["invariant"].values())),
        "jain": status["jain_slowdown"],
        "digest": table_digest(table),
        "table_ok": _table_ok(table),
        "handovers": int(status["fast_path"].get("handovers", 0)),
        "stages_s": sum(
            status["latency"]["stages"].get(k, 0.0)
            for k in ("intake_ms", "route_ms", "commit_ms")
        ) / 1e3,
    }


def _table_ok(table: dict) -> bool:
    arrival, start, comp = table["arrival"], table["start"], table["completion"]
    host = np.asarray(table["host"])
    return bool(
        arrival.shape[0] == SERVE_JOBS
        and np.all(np.asarray(table.get("filled", True)))
        and np.all(np.isfinite(comp))
        and np.all(start >= arrival)
        and np.all(comp > start)
        and np.all((host >= 0) & (host < SERVE_HOSTS))
    )


def _check_pass(out: dict, ref: dict | None, label: str):
    """(failed, problems) for one serve pass of ``SERVE_JOBS`` jobs."""
    c = out["counters"]
    problems = []
    if not out["invariant"]:
        problems.append(f"{label}: accounting invariant broken: {c}")
    if not (c["accepted"] == c["completed"] == SERVE_JOBS):
        problems.append(f"{label}: not every offered job completed: {c}")
    if c["rejected"] or c["lost"] or c["in_flight"]:
        problems.append(f"{label}: jobs rejected, lost or in flight: {c}")
    if not out["table_ok"]:
        problems.append(f"{label}: job table fails its invariants")
    jain = out["jain"]
    if not (isinstance(jain, float) and 0.0 < jain <= 1.0):
        problems.append(f"{label}: Jain index {jain!r} outside (0, 1]")
    if ref is not None:
        for key in SERVE_REFERENCE_KEYS:
            if not _same(out[key], ref[key]):
                problems.append(f"{label}: {key} differs from the reference")
    if not problems:
        return SERVE_JOBS - c["completed"], problems
    return SERVE_JOBS, problems


class ServeStream:
    """One C90 stream through ``DispatchServer``: SITA, then LWL."""

    name = "serve-stream"
    reference = "alloc"

    def params(self) -> dict:
        return {"jobs": SERVE_JOBS, "hosts": SERVE_HOSTS, "load": SERVE_LOAD,
                "batch": SERVE_BATCH}

    def prepare(self) -> None:
        import repro.serve  # noqa: F401

    def reset(self) -> None:
        pass

    def inputs(self, seed: int) -> dict:
        return _stream(seed)

    def policies(self, stream: dict):
        from repro.core.policies import LeastWorkLeftPolicy, SITAPolicy

        return (
            ("sita", SITAPolicy(stream["cutoffs"], name="sita-quartiles")),
            ("lwl", LeastWorkLeftPolicy()),
        )

    def body(self, stream: dict, tracer):
        from repro.serve import DispatchServer

        done = []
        for label, policy in self.policies(stream):
            server = tracer.call(
                "serve.construct", DispatchServer, SERVE_HOSTS, policy,
                seed=stream["seed"],
            )
            _feed(server, stream, tracer, "serve.submit")
            tracer.call("serve.drain", server.drain)
            status = tracer.call("serve.status", server.status)
            done.append((label, server, status))
        return done

    def outputs(self, result) -> dict:
        return {
            label: _serve_outputs(status, server.job_table())
            for label, server, status in result
        }

    def jobs(self, outputs: dict) -> int:
        return SERVE_JOBS * len(outputs)

    def attempts(self, reference: dict) -> int:
        return SERVE_JOBS * len(reference)

    def check(self, outputs: dict, reference: dict | None, exact: bool):
        failed = 0
        problems = []
        for label, out in outputs.items():
            f, p = _check_pass(out, reference[label] if exact else None, label)
            failed += f
            problems += p
        return SERVE_JOBS * len(outputs), failed, problems


class ServeSharded(ServeStream):
    """The SITA stream through two shard worker processes, construction
    to ``close()``."""

    name = "serve-sharded"

    def params(self) -> dict:
        return {**super().params(), "shards": SERVE_SHARDS}

    def body(self, stream: dict, tracer):
        from repro.core.policies import SITAPolicy
        from repro.serve import ShardedDispatchServer

        spawn = tracer.begin("shard.spawn")
        server = None
        try:
            server = ShardedDispatchServer(
                SERVE_HOSTS,
                SITAPolicy(stream["cutoffs"], name="sita-quartiles"),
                n_shards=SERVE_SHARDS,
                router="sita",
                transport="process",
                seed=stream["seed"],
            )
            # The first batch returns once every worker has spawned,
            # imported the package and acknowledged.
            _feed(server, stream, tracer, "shard.submit", first_name="shard.spawn")
            tracer.end(spawn)
            spawn = None
            tracer.call("shard.drain", server.drain)
            status = tracer.call("shard.status", server.status)
        finally:
            if spawn is not None:
                tracer.end(spawn)
            if server is not None:
                tracer.call("shard.close", server.close)
        return [("sita", server, status)]

    def outputs(self, result) -> dict:
        (label, server, status), = result
        return {label: _serve_outputs(status, server.merged_job_table())}

    def unsharded(self, stream: dict) -> dict:
        """The ``serve-stream`` SITA pass on the same stream (untimed)."""
        from repro.serve import DispatchServer

        _, policy = self.policies(stream)[0]
        server = DispatchServer(SERVE_HOSTS, policy, seed=stream["seed"])
        _feed(server, stream, NullTracer(), "serve.submit")
        server.drain()
        return _serve_outputs(server.status(), server.job_table())

    def check(self, outputs: dict, reference: dict | None, exact: bool,
              unsharded: dict | None = None):
        attempted, failed, problems = super().check(outputs, reference, exact)
        if unsharded is not None:
            for key in SERVE_REFERENCE_KEYS:
                if not _same(outputs["sita"][key], unsharded[key]):
                    problems.append(
                        f"sharded {key} differs from the unsharded SITA pass"
                    )
                    failed = attempted
        return attempted, failed, problems


WORKLOADS = {
    "paper-figures": PaperWorkload("paper-figures", FIGURES, FIGURES_SCALE),
    "paper-failures": FailuresWorkload(
        "paper-failures", FAILURES_SCALE, FAILURES_MAX_TAIL
    ),
    "serve-stream": ServeStream(),
    "serve-sharded": ServeSharded(),
}


def instrument(tracer) -> None:
    """Wrap each layer's public entry points for a traced unit.

    Functions are wrapped in every module that bound them by name, so
    the experiment drivers' ``from .common import fit_sita_cutoffs`` is
    seen as well as calls through ``repro.experiments.common``.
    """
    import repro.core.cutoffs  # noqa: F401
    import repro.core.search  # noqa: F401
    import repro.experiments.common  # noqa: F401
    import repro.sim.fast  # noqa: F401
    import repro.sim.runner  # noqa: F401
    from repro.sim.host import FCFSHost
    from repro.sim.metrics import SimulationResult
    from repro.workloads.synthetic import SyntheticWorkload
    from repro.workloads.traces import Trace

    counts = tracer.counts

    def on_trace(idx, trace):
        counts["workloads.jobs"] += int(trace.service_times.size)

    def on_simulate(idx, result):
        kind = "fast" if result.backend == "fast" else "engine"
        tracer.spans[idx][0] = f"sim.{kind}"
        counts[f"sim.{kind}_jobs"] += int(result.n_jobs)
        counts["sim.crashes"] += int(result.n_failures)
        counts["sim.lost"] += int(result.n_lost)

    for module, attr, name, hook in (
        ("repro.experiments.common", "fit_sita_cutoffs", "core.cutoffs", None),
        ("repro.core.search", "analytic_cutoff_pair", "core.cutoffs", None),
        ("repro.core.cutoffs", "equal_load_cutoffs", "core.cutoffs", None),
        ("repro.experiments.common", "grouped_sita", "core.group_split", None),
        ("repro.core.cutoffs", "optimal_group_split", "core.group_split", None),
        ("repro.sim.runner", "simulate", "sim.engine", on_simulate),
        ("repro.sim.fast", "simulate_fast", "sim.fast", None),
        ("repro.experiments.common", "evaluate_policy", "experiments.point", None),
    ):
        tracer.wrap_function(module, attr, name, hook)
    tracer.wrap_method(SyntheticWorkload, "make_trace", "workloads.trace", on_trace)
    tracer.wrap_method(Trace, "split", "workloads.trace")
    for attr in ("trimmed", "summary", "class_mean_slowdowns"):
        tracer.wrap_method(SimulationResult, attr, "sim.summary")
    tracer.count_method(FCFSHost, "submit", "sim.submits")
