"""Run one benchmark workload and print its metrics as one JSON line.

From the root of a checkout::

    python3 perfbench/run.py --workload paper-figures --seed 0 --seconds 24 --trace 0

Workloads: ``paper-figures``, ``paper-failures``, ``serve-stream`` and
``serve-sharded`` (see ``suite.py`` and ``BENCHMARK.json``).  The run
repeats units of the workload, each on its own input draw, until
``--seconds`` have passed, checks every unit's outputs, and prints the
result as the last line of standard output::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics: the median over units of
unit wall and CPU time and of jobs per unit time, each taken in
multiples of a reference loop timed around the unit
(:func:`_reference_loop`); peak RSS over this process and its workers;
and ``setup_s``, the median over fresh interpreters of the seconds from
process start to the workload's inputs being built.

``--trace 1`` alternates untraced and traced units on the same inputs
and reports the per-layer metrics: self time per layer and per entry
point, work counts (from unit 0, so they repeat exactly for a seed),
submit-call latency percentiles, the share of the traced body's wall
time the layer spans cover, and the tracing overhead (traced minus
untraced wall).  Spans are kept in memory and written to
``perfbench/out/`` when the run ends.

``python3 perfbench/run.py --record`` rewrites ``reference.json`` from
unit 0 of every workload at the default seed.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, HERE]

#: Fresh interpreters timed per run for ``setup_s``.
SETUP_SAMPLES = 3

#: Reference loops averaged per reference reading (see :func:`_reference`).
REFERENCE_LOOPS = 8

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_ref": "ref",
    "cpu_ref": "ref",
    "peak_rss_mb": "MB",
    "jobs_per_ref": "jobs/ref",
}

#: Per-layer metrics taken from unit 0 alone: counts of work, which
#: repeat exactly for a given seed.
COUNT_METRICS = (
    "workloads.jobs",
    "sim.fast_jobs",
    "sim.engine_jobs",
    "sim.dispatch_per_job",
    "sim.crashes",
    "sim.lost",
    "experiments.points",
    "serve.handovers",
    "trace.spans",
)

PER_LAYER_UNITS = {
    "workloads.trace_s": "s",
    "workloads.jobs": "count",
    "core.self_s": "s",
    "core.cutoffs_s": "s",
    "core.group_split_s": "s",
    "sim.self_s": "s",
    "sim.fast_s": "s",
    "sim.fast_jobs": "count",
    "sim.engine_s": "s",
    "sim.engine_jobs": "count",
    "sim.dispatch_per_job": "ratio",
    "sim.crashes": "count",
    "sim.lost": "count",
    "sim.summary_s": "s",
    "experiments.self_s": "s",
    "experiments.points": "count",
    "serve.self_s": "s",
    "serve.submit_s": "s",
    "serve.submit_p50_us": "us",
    "serve.submit_p99_us": "us",
    "serve.drain_s": "s",
    "serve.status_s": "s",
    "serve.stage_coverage": "ratio",
    "serve.handovers": "count",
    "shard.self_s": "s",
    "shard.spawn_s": "s",
    "shard.submit_s": "s",
    "shard.drain_s": "s",
    "shard.close_s": "s",
    "shard.worker_cpu_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def _log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def _median(values):
    import statistics

    return statistics.median(values) if values else 0.0


class _Record:
    """A small per-job object, as the serve drain materialises."""

    __slots__ = ("index", "size", "host", "start")

    def __init__(self, index, size):
        self.index = index
        self.size = size
        self.host = -1
        self.start = size * 2.0


def _reference_loop(kind: str) -> float:
    """Seconds a fixed loop that does not touch the package takes now.

    Shared hosts change speed in phases that outlast a whole run: on a
    2-vCPU VM the same serve unit took 0.65 s in one minute and 1.15 s
    in the next.  Timing a fixed loop next to every unit gives a
    same-run reference, and the end-to-end timings are reported as
    multiples of it.  Such phases slow allocation-heavy code more than
    arithmetic, so each workload names the mix closest to its own:
    ``"alloc"`` builds small objects (the serve workloads materialise
    jobs), ``"cpu"`` runs interpreter arithmetic and NumPy math (the
    experiment drivers).  The collector is off so the program's heap
    cannot change the loop's cost.
    """
    import gc
    import time

    import numpy as np

    gc.disable()
    try:
        t0 = time.perf_counter()
        if kind == "alloc":
            table = {}
            for i in range(40_000):
                table[i] = _Record(i, i * 0.5)
            sum(r.size for r in table.values())
            np.sort(np.random.default_rng(0).random(200_000))
        else:
            x = 0
            for i in range(120_000):
                x = (x * 31 + i) % 1_000_003
            a = np.random.default_rng(0).random(100_000)
            np.searchsorted(np.sort(a), a * 0.5)
            np.cumsum(np.sqrt(a) * 1.5)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def _reference(kind: str) -> float:
    """Mean of ``REFERENCE_LOOPS`` reference loops, about 0.2 s in all.

    The host's slow phases come and go within seconds (the loop reads
    16 or 30 ms, rarely between), while a unit runs for seconds and
    averages over them.  A mean over a fifth of a second samples the
    same mix; the minimum of two loops caught a single phase and, on
    ``serve-sharded``, made the per-unit ratio noisier than raw time.
    """
    import statistics

    return statistics.fmean(_reference_loop(kind) for _ in range(REFERENCE_LOOPS))


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def _timed(workload, inputs, tracer) -> dict:
    """Run one unit body; wall and CPU (this process + reaped children)."""
    import gc
    import resource
    import time

    workload.reset()
    gc.collect()
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    root = tracer.begin("bench.body")
    try:
        result = workload.body(inputs, tracer)
    except Exception as exc:  # noqa: BLE001 - a failed unit is reported, not fatal
        result = exc
    finally:
        tracer.end(root)
    wall = time.perf_counter() - t0
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    child_cpu = _cpu(kids1) - _cpu(kids0)
    return {
        "result": result,
        "wall": wall,
        "cpu": _cpu(self1) - _cpu(self0) + child_cpu,
        "child_cpu": child_cpu,
    }


def _check(workload, unit: dict, inputs, reference, seed: int, j: int):
    """Reduce and check one unit's outputs; returns (outputs, attempted, failed)."""
    from suite import DEFAULT_SEED, ServeSharded

    exact = seed == DEFAULT_SEED
    result = unit.pop("result")
    if isinstance(result, Exception):
        _log(f"unit {j} (seed {seed}) raised {type(result).__name__}: {result}")
        attempted = workload.attempts(reference[workload.name])
        return None, attempted, attempted
    outputs = workload.outputs(result)
    del result
    kwargs = {}
    if isinstance(workload, ServeSharded) and j == 0:
        kwargs["unsharded"] = workload.unsharded(inputs)
    attempted, failed, problems = workload.check(
        outputs, reference[workload.name], exact, **kwargs
    )
    for problem in problems:
        _log(f"unit {j} (seed {seed}): {problem}")
    return outputs, attempted, failed


def _layer_metrics(workload, tracer, traced: dict, plain: dict, outputs) -> dict:
    """Per-layer metrics of one traced unit paired with its untraced twin."""
    from spans import LAYERS

    self_s, body_s = tracer.self_times()
    counts = tracer.counts

    def total(*names):
        return sum(self_s.get(n, 0.0) for n in names)

    submit_us = sorted(
        (end - start) / 1e3
        for name, start, end, _ in tracer.spans
        if name == "serve.submit"
    )

    def pct(q):
        if not submit_us:
            return 0.0
        return submit_us[min(len(submit_us) - 1, int(q * len(submit_us)))]

    engine_jobs = counts["sim.engine_jobs"]
    serve_stream = workload.name == "serve-stream" and bool(outputs)
    m = {
        "workloads.trace_s": total("workloads.trace"),
        "workloads.jobs": counts["workloads.jobs"],
        "core.cutoffs_s": total("core.cutoffs"),
        "core.group_split_s": total("core.group_split"),
        "sim.fast_s": total("sim.fast"),
        "sim.fast_jobs": counts["sim.fast_jobs"],
        "sim.engine_s": total("sim.engine"),
        "sim.engine_jobs": engine_jobs,
        "sim.dispatch_per_job": (
            counts["sim.submits"] / engine_jobs if engine_jobs else 0.0
        ),
        "sim.crashes": counts["sim.crashes"],
        "sim.lost": counts["sim.lost"],
        "sim.summary_s": total("sim.summary"),
        "experiments.points": sum(
            len(rows) for rows in (outputs or {}).values() if isinstance(rows, list)
        ),
        "serve.submit_s": total("serve.submit"),
        "serve.submit_p50_us": pct(0.50),
        "serve.submit_p99_us": pct(0.99),
        "serve.drain_s": total("serve.drain"),
        "serve.status_s": total("serve.status"),
        "serve.stage_coverage": (
            sum(v["stages_s"] for v in plain["outputs"].values()) / plain["wall"]
            if serve_stream and plain["outputs"]
            else 0.0
        ),
        "serve.handovers": (
            sum(v["handovers"] for v in outputs.values()) if serve_stream else 0
        ),
        "shard.spawn_s": total("shard.spawn"),
        "shard.submit_s": total("shard.submit"),
        "shard.drain_s": total("shard.drain"),
        "shard.close_s": total("shard.close"),
        "shard.worker_cpu_s": traced["child_cpu"],
        # Share of the traced body inside layer spans.  Dividing by the
        # untraced twin's wall instead would mix in the host's speed
        # swings between the twins; the twins' gap is trace.overhead_s.
        "trace.coverage": (body_s - self_s.get("bench.body", 0.0)) / body_s,
        "trace.overhead_s": traced["wall"] - plain["wall"],
        "trace.spans": len(tracer.spans),
    }
    # The workloads layer has one entry point, so its self time is
    # ``workloads.trace_s`` above.
    for layer in LAYERS[1:]:
        m[f"{layer}.self_s"] = sum(
            v for k, v in self_s.items() if k.split(".", 1)[0] == layer
        )
    return m


def _setup_probe(workload, seed: int) -> int:
    import time

    from suite import unit_seed

    workload.prepare()
    workload.inputs(unit_seed(seed, 0))
    print(repr(time.monotonic()), flush=True)
    return 0


def _setup_samples(name: str, seed: int) -> list[float]:
    """Time fresh interpreters from launch to built inputs."""
    import subprocess
    import time

    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--setup-probe"],
            stdout=subprocess.PIPE,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]) - t0)
    return samples


def _load_reference(workloads) -> dict:
    import json

    from suite import DEFAULT_SEED

    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    if reference.get("seed") != DEFAULT_SEED:
        raise SystemExit("perfbench: reference.json was recorded for another seed")
    for wl in workloads:
        if reference["params"].get(wl.name) != wl.params():
            raise SystemExit(
                f"perfbench: reference.json does not match {wl.name}'s "
                "parameters; re-record it with --record"
            )
    return reference


def _record() -> int:
    import json

    from spans import NullTracer
    from suite import DEFAULT_SEED, SERVE_REFERENCE_KEYS, WORKLOADS

    doc = {"seed": DEFAULT_SEED, "params": {}}
    for name, wl in WORKLOADS.items():
        wl.prepare()
        inputs = wl.inputs(DEFAULT_SEED)
        unit = _timed(wl, inputs, NullTracer())
        if isinstance(unit["result"], Exception):
            raise unit["result"]
        outputs = wl.outputs(unit["result"])
        for value in outputs.values():
            if isinstance(value, Exception):
                raise value
        if name == "serve-sharded":
            if outputs["sita"]["digest"] != doc["serve-stream"]["sita"]["digest"]:
                raise SystemExit("perfbench: sharded merge differs from serve-stream")
        if name.startswith("serve-"):
            outputs = {
                label: {key: out[key] for key in SERVE_REFERENCE_KEYS}
                for label, out in outputs.items()
            }
        doc["params"][name] = wl.params()
        doc[name] = outputs
        _log(f"recorded {name} in {unit['wall']:.2f} s")
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        _log(f"no package source under {SRC}; run from a full checkout")
        return 2
    import repro

    if os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))) != SRC:
        _log(f"imported repro from {repro.__file__}, not from {SRC}")
        return 2
    if args.record:
        return _record()

    from suite import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    workload = WORKLOADS[args.workload]
    try:
        if args.setup_probe:
            return _setup_probe(workload, args.seed)
        return _run(workload, args)
    finally:
        _stop_children()


def _stop_children() -> None:
    """Stop and reap every process this run started, on every way out.

    Shard workers are joined by ``close()``, but creating their shared
    memory rings starts multiprocessing's resource tracker, a helper
    process that would otherwise outlive the run: it exits only on EOF
    after this interpreter is gone, and is then left unreaped.  Stopping
    it here closes its pipe and waits for it to end.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for proc in multiprocessing.active_children():
        proc.join(timeout=5.0)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=5.0)
        if proc.is_alive():
            proc.kill()
            proc.join()
    resource_tracker._resource_tracker._stop()


def _run(workload, args) -> int:
    import json
    import resource
    import time

    from spans import NullTracer, Tracer
    from suite import instrument, unit_seed

    workload.prepare()
    reference = _load_reference([workload])
    attempted = failed = 0
    units = []
    tracers = []
    deadline = time.perf_counter() + args.seconds
    ref = None if args.trace else _reference(workload.reference)
    j = 0
    while j == 0 or time.perf_counter() < deadline:
        seed = unit_seed(args.seed, j)
        if not args.trace:
            inputs = workload.inputs(seed)
            unit = _timed(workload, inputs, NullTracer())
            # The reference straddles the unit: the loops just before
            # and just after it.
            ref_after = _reference(workload.reference)
            unit["ref"] = (ref + ref_after) / 2
            ref = ref_after
            unit["outputs"], a, f = _check(workload, unit, inputs, reference, seed, j)
            attempted, failed = attempted + a, failed + f
            unit["jobs"] = workload.jobs(unit["outputs"]) if unit["outputs"] else 0
            units.append(unit)
        else:
            tracer = Tracer()
            instrument(tracer)
            idx = tracer.begin("bench.inputs")
            inputs = workload.inputs(seed)
            tracer.end(idx)
            tracer.uninstall()
            pair = {}
            # Alternate which twin runs first, so neither always gets
            # the warmer caches.
            for traced in ((False, True) if j % 2 == 0 else (True, False)):
                if traced:
                    instrument(tracer)
                    try:
                        unit = _timed(workload, inputs, tracer)
                    finally:
                        tracer.uninstall()
                else:
                    unit = _timed(workload, inputs, NullTracer())
                unit["outputs"], a, f = _check(
                    workload, unit, inputs, reference, seed, j
                )
                attempted, failed = attempted + a, failed + f
                pair[traced] = unit
            tracers.append(tracer)
            units.append(
                _layer_metrics(workload, tracer, pair[True], pair[False],
                               pair[True]["outputs"])
            )
        del inputs
        _log(f"unit {j} (seed {seed}) done" + (
            "" if args.trace else
            f": wall {units[-1]['wall']:.3f} s ref {units[-1]['ref'] * 1e3:.2f} ms"))
        j += 1

    if args.trace:
        metrics = {}
        for name, unit_of in PER_LAYER_UNITS.items():
            if name in COUNT_METRICS:
                value = units[0][name]
            else:
                value = _median([u[name] for u in units])
            metrics[name] = {"value": value, "unit": unit_of}
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"spans-{workload.name}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump([t.as_dict() for t in tracers], fh)
    else:
        rss_kb = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        wall_ref = _median([u["wall"] / u["ref"] for u in units])
        values = {
            "wall_ref": wall_ref,
            "cpu_ref": _median([u["cpu"] / u["ref"] for u in units]),
            "peak_rss_mb": rss_kb / 1024.0,
            "jobs_per_ref": _median([u["jobs"] for u in units]) / wall_ref,
            "setup_s": _median(_setup_samples(workload.name, args.seed)),
        }
        metrics = {
            name: {"value": values[name], "unit": unit_of}
            for name, unit_of in END_TO_END_UNITS.items()
        }
    _log(f"{len(units)} units, {attempted} attempted, {failed} failed")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
