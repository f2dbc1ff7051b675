"""Simulation-kernel dispatch, selection and equivalence.

The golden suite (tests/sim/test_golden_stats.py) is the byte-identical
equivalence gate over the curated case matrix; this module covers the
kernel *machinery* around it: selection precedence, the per-task
dispatch gate and its fallback accounting, randomized cross-kernel
equivalence beyond the golden grid (including a full-scale-length trace
through the fused engine, which the golden traces are too short to
reach), the verify kernel's double-execution, and the
backend-agnosticism of cache/snapshot fingerprints.  Every machine takes
its kernel from ``REPRO_KERNEL``; a test pins one through that variable
or by replacing ``machine.kernel``.
"""

from __future__ import annotations

import json
import random

import pytest

from repro import failpoints
from repro.api import Session
from repro.config import scaled_config
from repro.experiments.golden import GOLDEN_CASES, canonical_stats
from repro.sim.kernels import (
    KERNEL_ENV,
    KERNEL_NAMES,
    KernelMismatchError,
    make_kernel,
    resolve_kernel_name,
)
from repro.sim.kernels.reference import ReferenceKernel
from repro.sim.kernels.vector import VectorKernel
from repro.sim.kernels.verify import MISMATCH_SITE, VerifyKernel
from repro.sim.machine import build_machine

from tests.conftest import tiny_config
from tests.sim.test_golden_stats import GOLDEN_DIR


@pytest.fixture(autouse=True)
def _clean_kernel_env(monkeypatch):
    monkeypatch.delenv(KERNEL_ENV, raising=False)


def small_config(denom=1024):
    return scaled_config(1.0 / denom)


def run_stats(workload, policy, kernel, denom=1024, seed=0):
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(KERNEL_ENV, kernel)
        session = Session(small_config(denom), seed=seed)
        return session.run(workload, policy).stats_dict()


def make_machine(policy="tdnuca", kernel="vector", **cfg_kw):
    machine = build_machine(tiny_config(**cfg_kw), policy, fragmentation=0.0)
    machine.kernel = make_kernel(kernel)
    return machine


def drive(machine, blocks, writes=None, core=0):
    w = [False] * len(blocks) if writes is None else [bool(x) for x in writes]
    return machine._run_blocks(core, [int(b) for b in blocks], w)


class TestSelection:
    def test_auto_prefers_vector_with_numpy(self):
        assert isinstance(make_kernel("auto"), VectorKernel)

    def test_explicit_names(self):
        assert isinstance(make_kernel("reference"), ReferenceKernel)
        assert isinstance(make_kernel("vector"), VectorKernel)
        assert isinstance(make_kernel("verify"), VerifyKernel)

    def test_env_overrides_configured(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV, "reference")
        assert resolve_kernel_name("vector") == "reference"
        assert isinstance(make_kernel("vector"), ReferenceKernel)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown simulation kernel"):
            resolve_kernel_name("turbo")

    def test_config_validates_kernel(self, monkeypatch):
        # No config holds a kernel: the selector is checked where it is
        # read, when a machine is built.
        monkeypatch.setenv(KERNEL_ENV, "turbo")
        with pytest.raises(ValueError, match="unknown simulation kernel"):
            build_machine(tiny_config(), "snuca")
        for name in KERNEL_NAMES:
            monkeypatch.setenv(KERNEL_ENV, name)
            build_machine(tiny_config(), "snuca")

    def test_machine_inherits_config_kernel(self, monkeypatch):
        # The machine takes the kernel REPRO_KERNEL names, auto when unset.
        assert build_machine(tiny_config()).kernel.name == "vector"
        for name in ("reference", "vector", "verify"):
            monkeypatch.setenv(KERNEL_ENV, name)
            assert build_machine(tiny_config()).kernel.name == name


class TestDispatchGate:
    """The vector kernel defers per task whenever it cannot model the
    machine's current state, and accounts for every decision."""

    def test_tdnuca_takes_the_vector_path(self):
        m = make_machine("tdnuca")
        drive(m, [100, 101, 102, 100])
        st = m.kernel.stats
        assert st.tasks_total == 1
        assert st.tasks_vector == 1
        assert st.tasks_reference == 0
        assert st.fallback_reasons == {}

    def test_snuca_takes_the_vector_path(self):
        m = make_machine("snuca")
        drive(m, [100, 101])
        assert m.kernel.stats.tasks_vector == 1

    def test_dnuca_falls_back(self):
        m = make_machine("dnuca")
        drive(m, [100, 101])
        st = m.kernel.stats
        assert st.tasks_vector == 0
        assert st.tasks_reference == 1
        assert st.fallback_reasons == {"dnuca": 1}

    def test_traced_machine_takes_the_vector_path(self):
        """No observer hook runs inside a kernel, so tracing is no reason
        to leave the fused engine (service workers always attach one)."""
        from repro.obs import Observer

        m = make_machine("tdnuca")
        Observer().attach(m)
        drive(m, [100, 101, 102, 100])
        st = m.kernel.stats
        assert st.tasks_vector == 1
        assert st.fallback_reasons == {}

    def test_unmodelled_policy_falls_back(self):
        m = make_machine("rnuca")
        drive(m, [100, 101])
        assert m.kernel.stats.fallback_reasons == {"policy": 1}

    def test_fallback_still_produces_reference_state(self):
        blocks = [100, 101, 102, 100, 103]
        ref = make_machine("rnuca", kernel="reference")
        vec = make_machine("rnuca", kernel="vector")
        c_ref = drive(ref, blocks)
        c_vec = drive(vec, blocks)
        assert c_ref == c_vec
        assert ref.state_dict() == vec.state_dict()

    def test_dispatch_stats_stay_off_machine_stats(self):
        # Result payloads must be backend-agnostic (the service result
        # cache shares entries across kernels), so dispatch accounting
        # lives on the kernel object only.
        stats = run_stats("kmeans", "tdnuca", kernel="vector", denom=2048)
        blob = repr(stats)
        assert "tasks_vector" not in blob
        assert "fallback" not in blob


class TestCrossKernelEquivalence:
    """Randomized sampling beyond the golden grid: any (workload,
    policy, seed) must produce byte-identical stats on both kernels."""

    COMBOS = [
        ("gauss", "tdnuca", 1),
        ("md5", "snuca", 2),
        ("redblack", "tdnuca-bypass-only", 3),
        ("knn", "tdnuca", 4),
    ]

    @pytest.mark.parametrize(
        "workload,policy,seed", COMBOS,
        ids=[f"{w}-{p}-s{s}" for w, p, s in COMBOS],
    )
    def test_random_cell_matches(self, workload, policy, seed):
        ref = run_stats(workload, policy, "reference", denom=2048, seed=seed)
        vec = run_stats(workload, policy, "vector", denom=2048, seed=seed)
        assert ref == vec

    def test_random_traces_match_per_task(self):
        """Drive both kernels over identical random block traces
        (mixed reads/writes, heavy reuse to force evictions and
        coherence) and demand identical cycles and machine state, under
        both fused-engine policies.  One task is full-scale length
        (70,000 refs over the same block space), so the fused engine is
        held to the reference on traces that back-invalidate its own
        L1 mid-task, not only on paper-scale ones."""
        for policy in ("snuca", "tdnuca"):
            rng = random.Random(0xC0FFEE)
            ref = make_machine(policy, kernel="reference")
            vec = make_machine(policy, kernel="vector")
            for task in range(8):
                core = rng.randrange(ref.num_cores)
                n = 70_000 if task == 3 else rng.randrange(50, 400)
                blocks = [rng.randrange(0, 512) for _ in range(n)]
                writes = [rng.random() < 0.3 for _ in range(n)]
                c_ref = drive(ref, blocks, writes, core=core)
                c_vec = drive(vec, blocks, writes, core=core)
                where = f"{policy} task {task}"
                assert c_ref == c_vec, f"cycle divergence at {where}"
                assert ref.state_dict() == vec.state_dict(), (
                    f"state divergence at {where}"
                )
            assert vec.kernel.stats.tasks_vector == 8


class TestTracedGoldens:
    """A traced run takes the same kernel path as an untraced one, so it
    must reproduce every committed golden snapshot under ``vector``: the
    observer only reads counters at task boundaries."""

    @pytest.mark.parametrize(
        "case", GOLDEN_CASES, ids=[c.case_id for c in GOLDEN_CASES]
    )
    def test_traced_run_matches_golden_snapshot(self, case, monkeypatch):
        expected = json.loads((GOLDEN_DIR / f"{case.case_id}.json").read_text())
        monkeypatch.setenv(KERNEL_ENV, "vector")
        result = Session(case.config(), seed=case.seed).run(
            case.workload, case.policy, trace=True
        )
        assert result.traced
        assert canonical_stats(result.experiment) == expected


class TestVerifyKernel:
    @pytest.fixture(autouse=True)
    def _clean_failpoints(self):
        failpoints.reset()
        yield
        failpoints.reset()

    def test_clean_run_passes_and_counts(self):
        m = make_machine("tdnuca", kernel="verify")
        drive(m, [100, 101, 102, 100])
        drive(m, [200, 201], core=1)
        st = m.kernel.stats
        assert st.tasks_total == 2
        assert st.tasks_verified == 2

    def test_verify_session_matches_reference(self):
        ref = run_stats("kmeans", "tdnuca", "reference", denom=2048)
        ver = run_stats("kmeans", "tdnuca", "verify", denom=2048)
        assert ref == ver

    def test_mismatch_failpoint_trips_the_comparison(self):
        # A verifier that cannot fail verifies nothing: corrupt the
        # vector-side digest through the failpoint and demand the raise.
        failpoints.configure(f"{MISMATCH_SITE}=1@action:corrupt")
        m = make_machine("tdnuca", kernel="verify")
        with pytest.raises(KernelMismatchError, match="divergence at task"):
            drive(m, [100, 101, 102])

    def test_mismatch_failpoint_in_full_run(self, monkeypatch):
        failpoints.configure(f"{MISMATCH_SITE}=1@action:corrupt@after:3")
        monkeypatch.setenv(KERNEL_ENV, "verify")
        with pytest.raises(KernelMismatchError):
            Session(small_config(2048)).run("kmeans", "tdnuca")


def _under_each_kernel(fn):
    """``fn()`` under every ``REPRO_KERNEL`` setting, unset included."""
    out = []
    for name in (None, "reference", "vector"):
        with pytest.MonkeyPatch.context() as mp:
            if name is not None:
                mp.setenv(KERNEL_ENV, name)
            out.append(fn())
    return out


class TestBackendAgnosticFingerprints:
    """No run description holds a kernel, so none of its hashes can
    depend on the one a machine runs."""

    BODY = {"name": "t", "workload": "kmeans", "policy": "tdnuca",
            "machine": {"scale": 1024}}

    def test_config_sha_ignores_kernel(self):
        from repro.scenario import parse_scenario
        from repro.snapshot.format import config_sha256

        shas = _under_each_kernel(
            lambda: config_sha256(parse_scenario(self.BODY).to_config())
        )
        assert len(set(shas)) == 1

    def test_service_request_key_shared_across_kernels(self):
        from repro.service.fleet import job_key
        from repro.service.queue import cell_keys, scenario_from_body, service_form

        def keys():
            scenario = service_form(scenario_from_body(self.BODY, "run"))
            return job_key(scenario.to_dict()), cell_keys(scenario)["kmeans/tdnuca"]

        assert len(set(_under_each_kernel(keys))) == 1

    def test_run_spec_round_trips_kernel(self):
        # A body that still selects a kernel is refused, naming the field
        # and the variable that selects it now.
        from repro.scenario import ScenarioError
        from repro.service.queue import scenario_from_body

        with pytest.raises(ScenarioError, match="REPRO_KERNEL") as exc:
            scenario_from_body({**self.BODY, "kernel": "vector"}, "run")
        assert exc.value.field == "kernel"
