"""One unit of the benchmark's work, run in a fresh interpreter.

``run.py`` starts this file once per unit, so the process-wide
``TraceCache`` and the simulated caches start empty, as they do for
``repro run`` and ``repro sweep``.  It prints one JSON object as its last
line of standard output.  Roles:

``setup``    import ``repro`` and build the sweep's ``Session``; nothing timed
``sweep``    paper-sweep: the isolated ``repro sweep --jobs 2`` calls
``inproc``   paper-sweep: the same 24 cells in-process (reference, spans)
``service``  service-mix: one ``repro serve`` host and one closed-loop client

Usage: python3 perfbench/child.py ROLE --seed N --seconds S
       [--traced] [--part K/N] --tmp DIR
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import signal
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from metrics import self_times, uncovered_s  # noqa: E402
from spans import (  # noqa: E402
    SpanRecorder,
    install_service_client,
    install_sim_layers,
)

#: every simulation runs at the golden scale, 1/1024.
SCALE = 1024
POLICIES = ("snuca", "rnuca", "tdnuca")
#: per-job deadline of the isolated sweep: about three times the slowest
#: healthy job (gauss/snuca, ~3.5 s with spawn and import on two cores).
SWEEP_DEADLINE_S = 10.0
#: service-mix cold seeds: a block of COLD_SEEDS_PER_SEED per benchmark
#: seed, above every benchmark seed paper-sweep simulates.  A run makes
#: far fewer requests than that in its time budget.
COLD_SEED_BASE = 1_000_000
COLD_SEEDS_PER_SEED = 100_000
#: paper-sweep hit-latency samples per finished job, taken as it finishes
#: so that they spread over the timed phase.
FETCH_REPEATS = 10
#: service-mix cache-hit resubmissions per cold request, so that a run
#: fills several rounds of hit samples (``metrics.round_tail``).
HITS_PER_STEP = 5
#: untimed service-mix steps before the timed phase: the server's first
#: requests pay its lazy imports and the first worker spawn.
WARMUP_STEPS = 2
#: the server's event-stream poll period.  A stream sees a finished job up
#: to this late, so cold latencies fall on a grid of this step counted
#: from when the stream opened.  The client opens each stream a seeded
#: random part of a step after submitting, which leaves the mean latency
#: as it was but spreads latencies over the step, so that their median
#: moves with the server instead of a whole step at a time.
STREAM_POLL_S = 0.05


def mono_ns() -> int:
    """CLOCK_MONOTONIC is system-wide, so parent and child stamps compare."""
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def fetch_samples(fetch) -> list[float]:
    """Seconds per call of ``fetch``, which gets a finished simulation's
    result without simulating, :data:`FETCH_REPEATS` times."""
    out = []
    for _ in range(FETCH_REPEATS):
        t0 = time.perf_counter()
        fetch()
        out.append(time.perf_counter() - t0)
    return out


def fits(started: float, last_s: float, seconds: float) -> bool:
    """Whether another unit as long as the last one ends within
    ``seconds`` of ``started`` (``time.perf_counter`` stamps)."""
    return time.perf_counter() - started + last_s <= seconds


def peak_rss_mb() -> float:
    """Largest of this process and every child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def paper_session(seed: int):
    """The session ``repro sweep`` builds: config compiled by a Scenario."""
    from repro.api import Session
    from repro.scenario import MachineSpec, Scenario

    cfg = Scenario(name="sweep", machine=MachineSpec(scale=SCALE)).to_config()
    return Session(cfg, seed=seed)


def cell_record(result) -> dict:
    from repro.experiments.golden import canonical_stats

    return {"stats": canonical_stats(result),
            "refs": result.machine.l1.accesses}


def span_report(rec: SpanRecorder, wall_s: float) -> dict:
    return {
        "spans": rec.spans,
        "self_s": self_times(rec.spans),
        "counts": rec.counts,
        "other_s": uncovered_s(rec.spans, wall_s),
    }


# --------------------------------------------------------------------------
# paper-sweep


def paper_cells() -> list[tuple[str, str]]:
    """The 24 cells in ``repro sweep`` order."""
    from repro.workloads.registry import workload_names

    return [(wl, pol) for wl in workload_names() for pol in POLICIES]


def _paper_sweep(session, seed: int, run_dir: Path, out: Path, *, jobs: int,
                 on_event=None, part: tuple[int, int] = (0, 1)):
    """The calls ``repro sweep --jobs N`` makes, with their result writes;
    ``part=(k, n)`` keeps every n-th cell from the k-th."""
    from repro.experiments import harness
    from repro.experiments.serialize import sweep_to_json
    from repro.ioutils import atomic_write
    from repro.workloads.registry import workload_names

    k, n = part
    plan = [harness.Job(wl, pol, seed)
            for i, (wl, pol) in enumerate(paper_cells()) if i % n == k]
    request = {"scale": SCALE, "workloads": workload_names(),
               "policies": list(POLICIES), "seed": seed, "faults": "",
               "strict": False, "out": str(out)}
    outcome = session.sweep(
        plan=plan, jobs=jobs,
        timeout=SWEEP_DEADLINE_S if jobs > 1 else None,
        run_dir=run_dir, request=request, on_event=on_event,
    )
    meta = {"config_sha256": harness.config_fingerprint(session.config),
            "seed": seed, "scale": SCALE,
            "wall_time_s": round(outcome.wall_time, 3)}
    with atomic_write(out) as fh:
        fh.write(sweep_to_json(outcome.result_dicts(),
                               [f.to_dict() for f in outcome.failures], meta))
    return outcome


def role_sweep(args) -> dict:
    from repro.experiments import harness

    session = paper_session(args.seed)
    units = []
    started = time.perf_counter()
    while not units or fits(started, units[-1]["wall_s"], args.seconds):
        run_dir = args.tmp / f"sweep{len(units)}"
        events: list = []
        fetch_s: list = []

        def on_event(kind, job, detail):
            events.append((kind, job.label, time.perf_counter_ns()))
            if kind == "ok":
                # The finished job's checkpoint shard, from which
                # ``repro sweep --resume`` answers it without simulating.
                shard = run_dir / harness.SHARD_DIR / job.shard_name
                fetch_s.extend(fetch_samples(lambda: json.loads(shard.read_text())))

        t0 = time.perf_counter()
        outcome = _paper_sweep(session, args.seed, run_dir,
                               run_dir.with_suffix(".json"), jobs=2,
                               on_event=on_event)
        wall = time.perf_counter() - t0
        units.append({
            "wall_s": wall,
            "events": events,
            "fetch_s": fetch_s,
            "cells": {f"{r.workload}/{r.policy}": cell_record(r.result)
                      for r in outcome.completed},
            "failed": {f"{f.workload}/{f.policy}": f"{f.error}: {f.message}"
                       for f in outcome.failures},
        })
    return {"units": units, "peak_rss_mb": peak_rss_mb()}


def role_inproc(args) -> dict:
    part = tuple(int(x) for x in args.part.split("/"))
    rec = SpanRecorder() if args.traced else None
    finish = install_sim_layers(rec) if rec is not None else None
    t0 = time.perf_counter()
    session = paper_session(args.seed)
    outcome = _paper_sweep(session, args.seed, args.tmp / "inproc",
                              args.tmp / "inproc.json", jobs=1, part=part)
    wall = time.perf_counter() - t0
    if finish is not None:
        finish()
    cells = {}
    for run in outcome.completed:
        rec_ = cell_record(run.result)
        rec_["elapsed_s"] = run.elapsed
        cells[f"{run.workload}/{run.policy}"] = rec_
    out = {"wall_s": wall, "cells": cells,
           "failed": [f"{f.workload}/{f.policy}" for f in outcome.failures]}
    if rec is not None:
        out["trace"] = span_report(rec, wall)
    return out


# --------------------------------------------------------------------------
# service-mix


def start_server(tmp: Path) -> tuple[subprocess.Popen, str, int]:
    """Launch ``repro serve`` on a free port with a fresh cache and spool."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--cache-dir", str(tmp / "cache"), "--spool-dir", str(tmp / "spool")],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline()
    if not line.startswith("listening on "):
        stop_server(proc)
        raise RuntimeError(f"repro serve did not start: {line!r}")
    host, _, port = line.split()[-1].rpartition(":")
    return proc, host, int(port)


def stop_server(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()


def _round_trip(client, scenario, rec: SpanRecorder | None, kind: str,
                stream_delay_s: float = 0.0) -> dict:
    """Submit, follow the job's event stream (opened ``stream_delay_s``
    after the submit returns) to its end, fetch the result."""
    from repro.service.envelope import ServiceError

    n0 = len(rec.spans) if rec is not None else 0
    idx = rec.begin(kind) if rec is not None else None
    t0 = time.perf_counter()
    out: dict = {}
    try:
        job = client.submit_scenario(scenario)
        out["answered_on_submit"] = job["state"] == "done"
        if job["state"] != "done":
            time.sleep(stream_delay_s)
            for _ in client.iter_events(job["id"]):
                pass
        data = client.result(job["id"])
        out["result"] = data["result"]
        out["spent_s"] = data["job"]["spent_s"]
        out["simulated"] = data["job"]["simulated"]
    except (ServiceError, OSError) as exc:
        out["error"] = f"{type(exc).__name__}: {exc}"
    out["latency_s"] = time.perf_counter() - t0
    if rec is not None:
        rec.end(idx)
        out["http_s"] = sum(s[2] - s[1] for s in rec.spans[n0:]
                            if s[0] == "service.http") / 1e9
    return out


def scenario_of(seed: int):
    """The service-mix request: ``kmeans/snuca`` at 1/1024 under ``seed``."""
    from repro.scenario import MachineSpec, Scenario

    return Scenario(name=f"kmeans-snuca-{seed}", workload="kmeans",
                    policy="snuca", seed=seed, machine=MachineSpec(scale=SCALE))


def role_service(args) -> dict:
    from repro.service.client import ServiceClient

    # The client, the server and its workers share one CPU: in a closed
    # loop only one of them runs at a time, and every client-server
    # handoff is then a local switch instead of a wake-up of the other
    # virtual CPU, whose latency follows the load of the whole host.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    proc, host, port = start_server(args.tmp)
    steps = []
    try:
        client = ServiceClient(host, port)
        rec = SpanRecorder() if args.traced else None
        base = COLD_SEED_BASE + args.seed * COLD_SEEDS_PER_SEED
        rng = random.Random(args.seed)

        def step(traced: bool) -> dict:
            seed = base + len(steps)
            finish = install_service_client(rec) if traced else None
            scenario = scenario_of(seed)
            t0 = time.perf_counter()
            cold = _round_trip(client, scenario, rec if traced else None,
                               "cold request", rng.uniform(0, STREAM_POLL_S))
            hits = [_round_trip(client, scenario, rec if traced else None,
                                "hit request") for _ in range(HITS_PER_STEP)]
            wall = time.perf_counter() - t0
            if finish is not None:
                finish()
            return {"seed": seed, "traced": traced, "warmup": False,
                    "wall_s": wall, "cold": cold, "hits": hits}

        while len(steps) < WARMUP_STEPS:
            steps.append({**step(False), "warmup": True})
        before = client.health()
        started = time.perf_counter()
        while (len(steps) == WARMUP_STEPS
               or fits(started, steps[-1]["wall_s"], args.seconds)):
            # The traced run alternates untraced and traced steps, so the
            # tracing overhead is measured on the same server and load.
            steps.append(step(rec is not None and len(steps) % 2 == 1))
        after = client.health()
    finally:
        stop_server(proc)
    out = {"steps": steps, "health": [before, after],
           "peak_rss_mb": peak_rss_mb()}
    if args.traced:
        out["trace"] = {"spans": rec.spans}
    # Reference results, computed on both cores after the server is gone,
    # so they neither contend with the timed phase nor join its process
    # tree.
    os.sched_setaffinity(0, cpus)
    seeds = [step["seed"] for step in steps]
    with ProcessPoolExecutor(2, mp_context=get_context("spawn")) as pool:
        out["reference"] = dict(zip(map(str, seeds), pool.map(reference, seeds)))
    return out


def reference(seed: int) -> dict:
    """``Session.run(...).stats_dict()`` for the service-mix request."""
    from repro.api import Session

    return Session.from_scenario(scenario_of(seed)).run(
        "kmeans", "snuca").stats_dict()


# --------------------------------------------------------------------------


def role_setup(args) -> dict:
    paper_session(args.seed)
    return {"ready_ns": mono_ns()}


def versions() -> dict:
    """The numpy version and the kernel ``auto`` resolves to here."""
    import numpy

    from repro.sim.kernels import make_kernel, resolve_kernel_name

    return {"numpy": numpy.__version__,
            "kernel": make_kernel(resolve_kernel_name("auto")).name}


ROLES = {"setup": role_setup, "sweep": role_sweep, "inproc": role_inproc,
         "service": role_service}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=sorted(ROLES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--part", default="0/1",
                        help="inproc: every N-th cell from the K-th (K/N)")
    parser.add_argument("--tmp", type=Path, default=None)
    args = parser.parse_args(argv)
    if args.tmp is not None:
        args.tmp.mkdir(parents=True, exist_ok=True)
    out = ROLES[args.role](args)
    out["versions"] = versions()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
