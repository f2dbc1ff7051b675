"""Benchmark of the TD-NUCA reproduction: the paper sweep and service round
trips, with per-layer host time in a separate traced run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-sweep --seed 0 --seconds 45 --trace 0

Workloads and metrics are listed in ``BENCHMARK.json`` and explained in
``perfbench/README.md``.  Every unit of work runs in a fresh interpreter
(``perfbench/child.py``).  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Each run also appends its environment stamp
and metrics to ``.perfbench/results.jsonl``; a traced run merges its spans
into ``.perfbench/host-spans.trace.json`` (open in ui.perfetto.dev).
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN_DIR = ROOT / "tests" / "golden"
OUT_DIR = ROOT / ".perfbench"

from child import mono_ns, start_server, stop_server  # noqa: E402
from metrics import OpLog, round_tail, speedup_err  # noqa: E402

WORKLOADS = ("paper-sweep", "service-mix")
#: fresh-interpreter set-ups timed before and again after the timed phase,
#: so that they straddle the host's slow and fast spells; ``setup_s`` is
#: the median of all of them.
SETUP_SAMPLES = 4
#: every run ends within this many seconds or fails.
RUN_BUDGET_S = 170.0

END_TO_END = (
    ("wall_s", "s"), ("refs_per_s", "refs/s"), ("setup_s", "s"),
    ("peak_rss_mb", "MB"), ("cold_p50_s", "s"), ("cold_tail_s", "s"),
    ("hit_p50_ms", "ms"), ("hit_tail_ms", "ms"),
)
SIM_LAYERS = (
    "scenario", "workloads", "sim.build", "sim.collect", "runtime.executor",
    "runtime.tdg", "runtime.extensions", "core.isa", "runtime.trace", "mem",
    "nuca", "stats.census", "sim.task", "sim.kernels",
    "experiments.serialize", "ioutils",
)
SIM_COUNTS = (
    ("workloads.tasks", "count"), ("runtime.executor.tasks", "count"),
    ("runtime.tdg.edges", "count"), ("runtime.extensions.calls", "count"),
    ("core.isa.calls", "count"), ("nuca.flush_actions", "count"),
    ("sim.kernels.refs", "refs"), ("ioutils.writes", "count"),
)
PER_LAYER = (
    *((f"{layer}.self_s", "s") for layer in SIM_LAYERS),
    *SIM_COUNTS,
    ("runtime.trace.hit_ratio", "ratio"), ("sim.kernels.us_per_ref", "us/ref"),
    ("sim.kernels.vector_ratio", "ratio"),
    ("experiments.harness.job_s", "s"), ("experiments.harness.overhead_s", "s"),
    ("experiments.harness.attempts", "count"),
    ("service.http.s", "s"), ("service.http.calls", "count"),
    ("service.queue.wait_s", "s"), ("service.workers.spent_s", "s"),
    ("service.workers.spawned", "count"), ("service.cache.hit_ratio", "ratio"),
    ("service.cache.entries", "count"),
    ("model.speedup_err", "ratio"), ("model.llc_accesses_norm", "ratio"),
    ("model.llc_hit_ratio", "ratio"), ("model.nuca_distance", "hops"),
    ("model.noc_bytes_norm", "ratio"),
    ("other.self_s", "s"), ("trace.overhead_ratio", "ratio"),
)


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


class Run:
    """One benchmark invocation: its arguments, scratch dir and time budget."""

    def __init__(self, args) -> None:
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.traced = bool(args.trace)
        self.started = time.monotonic()
        self.tmp = OUT_DIR / "tmp" / f"{os.getpid()}-{time.time_ns()}"
        self.tmp.mkdir(parents=True)
        # Children and their workers keep temporary files in the checkout.
        self.env = {**os.environ, "PYTHONPATH": str(SRC),
                    "TMPDIR": str(self.tmp)}
        self.notes: list[str] = []
        #: versions and kernel reported by the children's interpreters.
        self.stamp: dict = {}
        #: set-up samples taken so far; each gets a directory of its own.
        self.setups = 0

    def remaining(self) -> float:
        return RUN_BUDGET_S - (time.monotonic() - self.started)

    def child(self, role: str, *args: str, tag: str = "") -> dict:
        """Run one ``child.py`` role in a fresh interpreter; its JSON result
        plus the CLOCK_MONOTONIC launch stamp."""
        return self.children([(role, args, tag or role)])[0]

    def children(self, specs: list[tuple[str, tuple, str]]) -> list[dict]:
        """Run ``(role, args, tag)`` children side by side; their results."""
        procs = []
        try:
            for role, args, tag in specs:
                cmd = [sys.executable, str(HERE / "child.py"), role,
                       "--seed", str(self.seed), "--tmp", str(self.tmp / tag),
                       *args]
                launched = mono_ns()
                # A session of its own, so that a timeout can stop the
                # child's workers and servers too.
                procs.append((role, launched, subprocess.Popen(
                    cmd, cwd=ROOT, env=self.env, text=True,
                    stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                    start_new_session=True)))
            results = []
            for role, launched, proc in procs:
                try:
                    out, err = proc.communicate(timeout=max(1.0, self.remaining()))
                except subprocess.TimeoutExpired:
                    raise BenchError(f"child {role} exceeded the run budget")
                if proc.returncode != 0:
                    raise BenchError(f"child {role} failed:\n{err[-4000:]}")
                result = json.loads(out.strip().splitlines()[-1])
                result["launched_ns"] = launched
                self.stamp = result.get("versions", self.stamp)
                results.append(result)
            return results
        finally:
            for _, _, proc in procs:
                if proc.poll() is None:
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.communicate()

    def setup_samples(self) -> list[float]:
        """``setup_s`` samples: launch to ready of a fresh interpreter with
        ``repro`` and the Session (or ``repro serve`` to its first ok
        ``/v1/health``)."""
        samples = []
        for _ in range(SETUP_SAMPLES):
            self.setups += 1
            k = self.setups
            if self.workload == "service-mix":
                samples.append(self._serve_setup(self.tmp / f"serve-setup{k}"))
            else:
                probe = self.child("setup", tag=f"setup{k}")
                samples.append((probe["ready_ns"] - probe["launched_ns"]) / 1e9)
        return samples

    def _serve_setup(self, tmp: Path) -> float:
        tmp.mkdir(parents=True, exist_ok=True)
        launched = mono_ns()
        proc, host, port = start_server(tmp)
        try:
            while True:
                conn = http.client.HTTPConnection(host, port, timeout=10)
                try:
                    conn.request("GET", "/v1/health")
                    if json.loads(conn.getresponse().read()).get("ok"):
                        return (mono_ns() - launched) / 1e9
                finally:
                    conn.close()
                if self.remaining() < 0:
                    raise BenchError("repro serve never reported healthy")
                time.sleep(0.01)
        finally:
            stop_server(proc)


# --------------------------------------------------------------------------
# output checks


def _golden(cell: str, seed: int) -> dict | None:
    """The committed snapshot for ``cell``, which exists only at seed 0."""
    path = GOLDEN_DIR / (cell.replace("/", "-") + ".json")
    if seed != 0 or not path.exists():
        return None
    return json.loads(path.read_text())


def _same(a, b) -> bool:
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def check_cell(ops: OpLog, label: str, stats: dict, golden: dict | None,
               reference: dict | None, checks: dict) -> bool:
    """A simulation passes when it equals its golden snapshot, if it has
    one, or else the reference run of the same cell."""
    if golden is not None:
        ok = _same(stats, golden)
        checks["golden"][0 if ok else 1] += 1
        why = "" if ok else "differs from its golden snapshot"
    elif reference is not None:
        ok = _same(stats, reference)
        checks["reference"][0 if ok else 1] += 1
        why = "" if ok else "differs from the reference run"
    else:
        ops.record(label, False, "no reference run to check against")
        return False
    ops.record(label, ok, why, wrong=not ok)
    return ok


def new_checks() -> dict:
    return {"golden": [0, 0], "reference": [0, 0]}


# --------------------------------------------------------------------------
# workloads


def paper_sweep(run: Run) -> dict:
    setup = run.setup_samples()
    sweep = run.child("sweep", "--seconds", str(run.seconds))
    setup += run.setup_samples()
    if run.traced:
        # Serial and alone: its per-cell times feed the harness overhead
        # and its wall the tracing overhead.
        ref = run.child("inproc")
    else:
        # Untimed: both cores share the reference pass.
        parts = run.children([("inproc", ("--part", f"{k}/2"), f"inproc{k}")
                              for k in range(2)])
        ref = {"cells": {**parts[0]["cells"], **parts[1]["cells"]},
               "failed": parts[0]["failed"] + parts[1]["failed"]}
    ops, checks = OpLog(), new_checks()
    # The in-process pass is the reference; at seed 0 it must itself match
    # every golden snapshot it overlaps.
    ref_ok = all(
        _same(cell["stats"], _golden(label, run.seed))
        for label, cell in ref["cells"].items()
        if _golden(label, run.seed) is not None
    ) and not ref["failed"]
    if not ref_ok:
        run.notes.append("the in-process reference pass failed or missed a golden")
    cold, walls, hits, rates = [], [], [], []
    for unit in sweep["units"]:
        walls.append(unit["wall_s"])
        hits.extend(unit["fetch_s"])
        cold.extend(_job_latencies(unit["events"]).values())
        for label, why in sorted(unit["failed"].items()):
            ops.record(label, False, why)
        refs = 0
        for label, cell in sorted(unit["cells"].items()):
            reference = ref["cells"].get(label, {}).get("stats") if ref_ok else None
            if check_cell(ops, label, cell["stats"], _golden(label, run.seed),
                          reference, checks):
                refs += cell["refs"]
        rates.append(refs / unit["wall_s"])
    model = model_values(ref["cells"]) if not ref["failed"] else {}
    result = {
        "ops": ops, "checks": checks, "correct": ref_ok and not ops.wrong,
        "e2e": _end_to_end(walls, statistics.median(rates), setup,
                           sweep["peak_rss_mb"], cold, hits),
        "speedup_err": model.get("speedup_err"),
    }
    if run.traced:
        traced = run.child("inproc", "--traced", tag="inproc-traced")
        result["layers"] = _sim_layers(traced["trace"], traced["wall_s"])
        result["layers"]["trace.overhead_ratio"] = traced["wall_s"] / ref["wall_s"]
        unit = sweep["units"][0]
        jobs = _job_latencies(unit["events"])
        result["layers"].update({
            "experiments.harness.job_s": sum(jobs.values()),
            "experiments.harness.overhead_s": sum(
                t - ref["cells"][label]["elapsed_s"]
                for label, t in jobs.items() if label in ref["cells"]),
            "experiments.harness.attempts": sum(
                1 for kind, _, _ in unit["events"] if kind == "start"),
            **{f"model.{k}": v for k, v in model.items()},
        })
        result["tracks"] = {"in-process pass": traced["trace"]["spans"],
                            **_job_tracks(unit["events"])}
    return result


def model_values(cells: dict[str, dict]) -> dict[str, float]:
    """Deterministic model outputs of the 24 cells: ``speedup_err`` and the
    TD-NUCA suite means of Figs. 9-12, through the figure builders."""
    from types import SimpleNamespace

    from repro.experiments import figures, paper

    results = {}
    for label, cell in cells.items():
        stats = cell["stats"]
        results[tuple(label.split("/"))] = SimpleNamespace(
            makespan=stats["makespan_cycles"],
            machine=SimpleNamespace(**{key: stats[key] for key in (
                "llc_accesses", "llc_hit_ratio", "mean_nuca_distance",
                "router_bytes")}))

    def tdnuca_mean(fig) -> float:
        return next(s for s in fig.series if s.label == "tdnuca").average

    return {
        "speedup_err": speedup_err(
            {key: r.makespan for key, r in results.items()}, paper.FIG8_TDNUCA),
        "llc_accesses_norm": tdnuca_mean(figures.fig9_llc_accesses(results)),
        "llc_hit_ratio": tdnuca_mean(figures.fig10_hit_ratio(results)),
        "nuca_distance": tdnuca_mean(figures.fig11_nuca_distance(results)),
        "noc_bytes_norm": tdnuca_mean(figures.fig12_data_movement(results)),
    }


def _job_latencies(events) -> dict[str, float]:
    """Start to finish of each sweep job as its parent saw it, seconds."""
    started, out = {}, {}
    for kind, label, ns in events:
        if kind == "start":
            started[label] = ns
        elif kind in ("ok", "failed", "timeout") and label in started:
            out[label] = out.get(label, 0.0) + (ns - started.pop(label)) / 1e9
    return out


def _job_tracks(events) -> dict[str, list]:
    """Sweep jobs laid out on one Perfetto track per busy worker slot."""
    jobs, started = [], {}
    for kind, label, ns in events:
        if kind == "start":
            started[label] = ns
        elif kind in ("ok", "failed", "timeout") and label in started:
            jobs.append([f"{label} ({kind})", started.pop(label), ns, -1])
    slots: list[list] = []
    for job in sorted(jobs, key=lambda j: j[1]):
        slot = next((s for s in slots if s[-1][2] <= job[1]), None)
        if slot is None:
            slots.append([job])
        else:
            slot.append(job)
    return {f"sweep worker {i + 1}": spans for i, spans in enumerate(slots)}


def service_mix(run: Run) -> dict:
    setup = run.setup_samples()
    svc = run.child("service", "--seconds", str(run.seconds),
                    *(["--traced"] if run.traced else []))
    setup += run.setup_samples()
    ops, checks = OpLog(), new_checks()
    cold, hits, rates = [], [], []
    # Warm-up steps are checked like the rest but not timed.
    for step in svc["steps"]:
        c = step["cold"]
        label = f"kmeans/snuca seed {step['seed']}"
        reference = svc["reference"][str(step["seed"])]
        refs = 0
        if "error" in c:
            ops.record(label + " cold", False, c["error"])
        elif check_cell(ops, label + " cold", c["result"], None, reference,
                        checks):
            refs = c["result"]["l1"]["accesses"]
        for h in step["hits"]:
            if "error" in h:
                ops.record(label + " hit", False, h["error"])
            elif not h["answered_on_submit"]:
                ops.record(label + " hit", False,
                           "the result cache did not answer")
            else:
                check_cell(ops, label + " hit", h["result"], None, reference,
                           checks)
        if not step["warmup"]:
            cold.append(c["latency_s"])
            hits.extend(h["latency_s"] for h in step["hits"])
            rates.append(refs / step["wall_s"])
    plain = [s for s in svc["steps"] if not (s["traced"] or s["warmup"])]
    result = {
        "ops": ops, "checks": checks, "correct": not ops.wrong,
        "e2e": _end_to_end([s["wall_s"] for s in plain],
                           statistics.median(rates), setup,
                           svc["peak_rss_mb"], cold, hits),
    }
    if run.traced:
        result["layers"] = _service_layers(svc)
        result["tracks"] = {"client": svc["trace"]["spans"]}
    return result


def _service_layers(svc: dict) -> dict:
    traced = [s for s in svc["steps"] if s["traced"]]
    plain = [s for s in svc["steps"] if not (s["traced"] or s["warmup"])]
    before, after = svc["health"]
    pool0, pool1 = before["queue"]["pool"], after["queue"]["pool"]
    cache0, cache1 = before["cache"], after["cache"]
    # A cold submit checks the cache without a counted miss, so the hit
    # ratio is over submitted requests.
    submitted = after["queue"]["submitted"] - before["queue"]["submitted"]
    spans = svc["trace"]["spans"]
    http = [(s[2] - s[1]) / 1e9 for s in spans if s[0] == "service.http"]
    colds = [s["cold"] for s in traced if "error" not in s["cold"]]
    waits = [c["latency_s"] - c["spent_s"] - c["http_s"] for c in colds]
    spent = [c["spent_s"] for c in colds]
    wall = sum(s["wall_s"] for s in traced)
    return {
        "service.http.s": sum(http) / len(http) if http else 0.0,
        "service.http.calls": len(http),
        "service.queue.wait_s": statistics.median(waits) if waits else 0.0,
        "service.workers.spent_s": statistics.median(spent) if spent else 0.0,
        "service.workers.spawned": pool1["spawned"] - pool0["spawned"],
        "service.cache.hit_ratio":
            (cache1["hits"] - cache0["hits"]) / submitted if submitted else 0.0,
        "service.cache.entries": cache1["entries"],
        "other.self_s": max(0.0, wall - sum(http) - sum(waits) - sum(spent)),
        "traced_wall_s": wall,
        "trace.overhead_ratio": (statistics.median([s["wall_s"] for s in traced])
                                 / statistics.median([s["wall_s"] for s in plain])),
    }


def _sim_layers(trace: dict, wall_s: float) -> dict:
    """Per-layer metrics of the traced in-process pass."""
    counts = trace["counts"]
    out = {f"{layer}.self_s": trace["self_s"].get(layer, 0.0)
           for layer in SIM_LAYERS}
    for key, _ in SIM_COUNTS:
        out[key] = counts.get(key, 0)
    hits = counts.get("runtime.trace.hits", 0)
    lookups = hits + counts.get("runtime.trace.misses", 0)
    out["runtime.trace.hit_ratio"] = hits / lookups if lookups else 0.0
    refs = counts.get("sim.kernels.refs", 0)
    out["sim.kernels.us_per_ref"] = (
        out["sim.kernels.self_s"] / refs * 1e6 if refs else 0.0)
    total = counts.get("sim.kernels.tasks_total", 0)
    out["sim.kernels.vector_ratio"] = (
        counts.get("sim.kernels.tasks_vector", 0) / total if total else 0.0)
    out["other.self_s"] = trace["other_s"]
    out["traced_wall_s"] = wall_s
    return out


def _end_to_end(walls: list[float], refs_per_s: float, setup: list[float],
                rss_mb: float, cold: list[float], hits: list[float]) -> dict:
    return {"wall_s": statistics.median(walls), "refs_per_s": refs_per_s,
            "setup_s": statistics.median(setup), "peak_rss_mb": rss_mb,
            **_latency("cold", cold, 1.0), **_latency("hit", hits, 1e3)}


def _latency(kind: str, samples: list[float], scale: float) -> dict:
    unit = "s" if scale == 1.0 else "ms"
    value, label = round_tail(samples)
    return {f"{kind}_p50_{unit}": statistics.median(samples) * scale,
            f"{kind}_tail_{unit}": value * scale,
            f"_{kind}_tail_label": label}


WORKLOAD_RUNNERS = {"paper-sweep": paper_sweep, "service-mix": service_mix}


# --------------------------------------------------------------------------
# reporting


def environment(run: Run) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    stamp = run.stamp
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": stamp.get("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "kernel": stamp.get("kernel"),
        "machine": platform.machine(),
    }


def report(run: Run, result: dict, env: dict) -> dict:
    ops = result["ops"]
    print(f"perfbench {run.workload} seed={run.seed} seconds={run.seconds} "
          f"trace={int(run.traced)}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    if run.traced:
        units = dict(PER_LAYER)
        metrics = {name: result["layers"].get(name, 0.0) for name in units}
    else:
        units = dict(END_TO_END)
        metrics = {name: result["e2e"][name] for name in units}
    rows = [(name, value, units[name]) for name, value in metrics.items()]
    if not run.traced:
        rows.append(("fail_ratio", ops.fail_ratio, "ratio"))
        if result.get("speedup_err") is not None:
            rows.append(("speedup_err", result["speedup_err"], "ratio"))
    for name, value, unit in rows:
        note = ""
        if name in ("cold_tail_s", "hit_tail_ms"):
            note = result["e2e"][f"_{name.split('_')[0]}_tail_label"]
        elif name == "fail_ratio":
            note = f"{ops.failed}/{ops.attempted} ops failed"
        elif name == "speedup_err":
            note = "mean over the 8 Table-II benchmarks"
        elif name == "other.self_s":
            share = value / result["layers"]["traced_wall_s"]
            note = f"{share:.1%} of traced wall"
        print(f"  {name:32s} {value:14.6g} {unit:8s} {note}")
    checks = result["checks"]
    print(f"checks: golden {checks['golden'][0]} ok / {checks['golden'][1]} "
          f"differ, reference {checks['reference'][0]} ok / "
          f"{checks['reference'][1]} differ; "
          f"{ops.attempted - ops.failed}/{ops.attempted} ops ok")
    for label, why in ops.failures():
        print(f"  failed: {label}: {why[:160]}")
    for note in run.notes:
        print(f"  note: {note}")
    return metrics


def record(run: Run, env: dict, out: dict) -> None:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    line = {"workload": run.workload, "seed": run.seed,
            "seconds": run.seconds, "trace": int(run.traced),
            "run_s": time.monotonic() - run.started, "env": env, **out}
    with open(OUT_DIR / "results.jsonl", "a") as fh:
        fh.write(json.dumps(line) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    # SIGTERM unwinds like an exception, so every child is still stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    run = Run(args)
    try:
        result = WORKLOAD_RUNNERS[run.workload](run)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.tmp, ignore_errors=True)
    env = environment(run)
    metrics = report(run, result, env)
    if run.traced:
        from spans import write_chrome_trace

        path = OUT_DIR / "host-spans.trace.json"
        write_chrome_trace(path, run.workload, WORKLOADS.index(run.workload),
                           result["tracks"])
        print(f"spans: {path.relative_to(ROOT)} (one track per workload)")
    ops = result["ops"]
    out = {"correct": result["correct"], "attempted": ops.attempted,
           "failed": ops.failed,
           "metrics": {name: {"value": value, "unit": unit}
                       for (name, unit), value in zip(
                           (PER_LAYER if run.traced else END_TO_END),
                           metrics.values())}}
    record(run, env, out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
