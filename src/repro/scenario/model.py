"""The :class:`Scenario` dataclass and its schema.

A scenario is the single source of truth for one logical experiment.  The
on-disk form is a YAML/JSON mapping with a ``scenario: 1`` version stamp;
:func:`parse_scenario` turns it into a validated :class:`Scenario`, and
:meth:`Scenario.to_config` is the *only* place a scenario becomes a
:class:`~repro.config.SystemConfig` — Session, CLI and service all call
it, which is what makes their fingerprints agree.

Compatibility invariant: for the default machine (4x4 mesh, 2x2 clusters,
no RRT override) ``to_config`` performs exactly the replaces the legacy
``scaled_config + replace(fault_spec, strict)`` paths performed,
in the same order, so ``config_sha256`` of every pre-scenario run is
unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from repro.config import SystemConfig, scaled_config

__all__ = [
    "SCHEMA_VERSION",
    "ScenarioError",
    "MachineSpec",
    "CoRunner",
    "TraceSpec",
    "CheckpointSpec",
    "Scenario",
    "parse_scenario",
]

#: on-disk schema version; bumped only on incompatible changes.
SCHEMA_VERSION = 1

#: virtual-address stride between multiprogrammed processes: each
#: co-runner is rebased into its own slice so address spaces are disjoint
#: (separate OS processes), far above any workload's natural footprint.
PID_ADDRESS_STRIDE = 1 << 36


class ScenarioError(ValueError):
    """A scenario failed validation.

    ``field`` names the offending key (dotted path, e.g. ``machine.mesh``)
    and ``source`` the file or label it came from, so tooling — and the
    CI smoke job — can point at exactly what to fix.
    """

    def __init__(self, message: str, *, field: str = "", source: str = "") -> None:
        self.message = message
        self.field = field
        self.source = source
        prefix = ""
        if source:
            prefix += f"{source}: "
        if field:
            prefix += f"{field}: "
        super().__init__(prefix + message)

    def with_source(self, source: str) -> "ScenarioError":
        """The same error, attributed to ``source`` (no-op if already set)."""
        if self.source or not source:
            return self
        return ScenarioError(self.message, field=self.field, source=source)


def _positive_int(value: Any) -> bool:
    """A positive ``int`` that is not a ``bool`` (``True`` is an ``int``
    to ``isinstance``, and would compile as 1)."""
    return isinstance(value, int) and not isinstance(value, bool) and value > 0


def _parse_geometry(value: Any, what: str) -> tuple[int, int]:
    """Accept ``"8x8"``, ``[8, 8]`` or ``{"width": 8, "height": 8}``."""
    if isinstance(value, str):
        parts = value.lower().split("x")
        if len(parts) == 2 and all(p.strip().isdigit() for p in parts):
            return int(parts[0]), int(parts[1])
        raise ScenarioError(
            f"expected WIDTHxHEIGHT (e.g. '8x8'), got {value!r}", field=what
        )
    if isinstance(value, (list, tuple)) and len(value) == 2:
        try:
            return int(value[0]), int(value[1])
        except (TypeError, ValueError):
            pass
    if isinstance(value, dict) and set(value) == {"width", "height"}:
        try:
            return int(value["width"]), int(value["height"])
        except (TypeError, ValueError):
            pass
    raise ScenarioError(
        f"expected WIDTHxHEIGHT string, [width, height] pair or "
        f"{{width, height}} mapping, got {value!r}",
        field=what,
    )


@dataclass(frozen=True)
class MachineSpec:
    """Machine geometry: experiment scale plus mesh/cluster shape."""

    scale: int = 64
    mesh_width: int = 4
    mesh_height: int = 4
    cluster_width: int = 2
    cluster_height: int = 2
    #: RRT entries per core; ``None`` keeps the Table-I 64 (RRT-pressure
    #: studies shrink it at high core counts).
    rrt_entries: int | None = None

    @property
    def is_default_geometry(self) -> bool:
        return (
            self.mesh_width == 4
            and self.mesh_height == 4
            and self.cluster_width == 2
            and self.cluster_height == 2
            and self.rrt_entries is None
        )

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"scale": self.scale}
        if (self.mesh_width, self.mesh_height) != (4, 4):
            out["mesh"] = f"{self.mesh_width}x{self.mesh_height}"
        if (self.cluster_width, self.cluster_height) != (2, 2):
            out["cluster"] = f"{self.cluster_width}x{self.cluster_height}"
        if self.rrt_entries is not None:
            out["rrt_entries"] = self.rrt_entries
        return out


@dataclass(frozen=True)
class CoRunner:
    """One multiprogrammed process: a workload under its own PID.

    ``seed`` defaults to the scenario seed; distinct seeds decorrelate
    identical co-runners.
    """

    workload: str
    seed: int | None = None

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"workload": self.workload}
        if self.seed is not None:
            out["seed"] = self.seed
        return out


@dataclass(frozen=True)
class TraceSpec:
    """Observability options (events + interval timeline)."""

    enabled: bool = False
    sample_every: int = 64
    out: str | None = None

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"enabled": self.enabled}
        if self.sample_every != 64:
            out["sample_every"] = self.sample_every
        if self.out is not None:
            out["out"] = self.out
        return out


@dataclass(frozen=True)
class CheckpointSpec:
    """Task-boundary snapshot options (sweeps only)."""

    every: int = 0
    deadline: float | None = None

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"every": self.every}
        if self.deadline is not None:
            out["deadline"] = self.deadline
        return out


@dataclass(frozen=True)
class Scenario:
    """One logical experiment, fully described.

    Exactly one of three shapes (``kind``):

    * **run** — ``workload`` + ``policy``: a single simulation.
    * **sweep** — ``workloads`` x ``policies``: a grid through the
      crash-tolerant harness (or the service).
    * **multiprog** — ``corunners`` + ``policy``: several processes
      co-scheduled on one machine through PID-tagged RRTs
      (:mod:`repro.runtime.multiprog`).
    """

    name: str
    workload: str | None = None
    policy: str | None = None
    workloads: tuple[str, ...] = ()
    policies: tuple[str, ...] = ()
    corunners: tuple[CoRunner, ...] = ()
    machine: MachineSpec = field(default_factory=MachineSpec)
    faults: str = ""
    strict: bool = False
    seed: int = 0
    trace: TraceSpec = field(default_factory=TraceSpec)
    checkpoint: CheckpointSpec = field(default_factory=CheckpointSpec)
    description: str = ""
    #: file the scenario was loaded from ("" for programmatic scenarios);
    #: excluded from to_dict/equality-relevant identity.
    source: str = ""

    @property
    def kind(self) -> str:
        if self.corunners:
            return "multiprog"
        if self.workloads or self.policies:
            return "sweep"
        return "run"

    # --- validation -----------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`ScenarioError` on any inconsistency, naming the
        field and listing valid registry entries for bad names."""
        err = lambda msg, fld: ScenarioError(msg, field=fld, source=self.source)  # noqa: E731
        if not self.name:
            raise err("scenario needs a non-empty name", "name")
        shapes = sum(
            (
                bool(self.workload),
                bool(self.workloads or self.policies),
                bool(self.corunners),
            )
        )
        if shapes == 0:
            raise err(
                "scenario needs one of 'workload', 'sweep', or 'multiprog'",
                "workload",
            )
        if shapes > 1:
            raise err(
                "'workload', 'sweep' and 'multiprog' are mutually exclusive",
                "workload",
            )
        if self.kind == "run":
            self._check_workload(self.workload, "workload")
            self._check_policy(self.policy, "policy")
        elif self.kind == "sweep":
            if not self.workloads or not self.policies:
                raise err(
                    "sweep needs non-empty 'workloads' and 'policies' lists",
                    "sweep",
                )
            if self.policy is not None:
                raise err("sweep uses 'sweep.policies', not 'policy'", "policy")
            for wl in self.workloads:
                self._check_workload(wl, "sweep.workloads")
            for pol in self.policies:
                self._check_policy(pol, "sweep.policies")
        else:  # multiprog
            if len(self.corunners) < 2:
                raise err(
                    "multiprog needs at least two co-runners (one process "
                    "is just a run)",
                    "multiprog",
                )
            self._check_policy(self.policy, "policy")
            for co in self.corunners:
                self._check_workload(co.workload, "multiprog.workload")
        m = self.machine
        if not _positive_int(m.scale):
            raise err(
                f"scale must be a positive integer, got {m.scale!r}",
                "machine.scale",
            )
        if m.rrt_entries is not None and not _positive_int(m.rrt_entries):
            raise err(
                f"rrt_entries must be a positive integer, got "
                f"{m.rrt_entries!r}",
                "machine.rrt_entries",
            )
        if self.seed is True or self.seed is False or not isinstance(self.seed, int):
            raise err(f"seed must be an integer, got {self.seed!r}", "seed")
        if self.trace.sample_every < 1:
            raise err("sample_every must be positive", "trace.sample_every")
        if self.checkpoint.every < 0:
            raise err("checkpoint.every must be non-negative", "checkpoint.every")
        # Compile the config now: geometry and fault-spec errors
        # surface at validation time with the scenario's source attached,
        # not deep inside a worker.
        try:
            self.to_config()
        except ScenarioError:
            raise
        except ValueError as exc:
            raise ScenarioError(str(exc), field="machine", source=self.source) from exc

    def _check_workload(self, name: str | None, fld: str) -> None:
        from repro.workloads.registry import workload_names

        known = workload_names(include_extra=True)
        if not name:
            raise ScenarioError(
                f"missing workload; valid workloads: {', '.join(known)}",
                field=fld,
                source=self.source,
            )
        if name not in known:
            raise ScenarioError(
                f"unknown workload {name!r}; valid workloads: {', '.join(known)}",
                field=fld,
                source=self.source,
            )

    def _check_policy(self, name: str | None, fld: str) -> None:
        from repro.sim.machine import POLICIES

        if not name:
            raise ScenarioError(
                f"missing policy; valid policies: {', '.join(POLICIES)}",
                field=fld,
                source=self.source,
            )
        if name not in POLICIES:
            raise ScenarioError(
                f"unknown policy {name!r}; valid policies: {', '.join(POLICIES)}",
                field=fld,
                source=self.source,
            )

    # --- compilation ----------------------------------------------------

    def to_config(self) -> SystemConfig:
        """Compile to a validated :class:`SystemConfig`.

        The one place scenario becomes machine description.  For the
        default geometry the replace sequence is byte-for-byte what the
        legacy Session/CLI/service paths did, so ``config_sha256`` of
        existing runs is unchanged; non-default meshes additionally pick
        up their calibrated latency table
        (:func:`repro.sim.latency.latency_for_mesh`).
        """
        m = self.machine
        try:
            cfg = scaled_config(1.0 / m.scale)
        except (ValueError, ZeroDivisionError) as exc:
            raise ScenarioError(
                str(exc), field="machine.scale", source=self.source
            ) from exc
        if not m.is_default_geometry:
            from repro.sim.latency import latency_for_mesh

            changes: dict[str, Any] = {
                "mesh_width": m.mesh_width,
                "mesh_height": m.mesh_height,
                "cluster_width": m.cluster_width,
                "cluster_height": m.cluster_height,
                "latency": latency_for_mesh(m.mesh_width, m.mesh_height),
            }
            if m.rrt_entries is not None:
                changes["rrt_entries"] = m.rrt_entries
            cfg = replace(cfg, **changes)
        if self.faults or self.strict:
            cfg = replace(
                cfg, fault_spec=self.faults, strict_invariants=self.strict
            )
        try:
            cfg.validate()
        except ValueError as exc:
            raise ScenarioError(
                str(exc), field="machine", source=self.source
            ) from exc
        return cfg

    @classmethod
    def from_config(
        cls, cfg: SystemConfig, *, name: str = "adhoc", **fields: Any
    ) -> "Scenario | None":
        """Recover the scenario whose :meth:`to_config` reproduces ``cfg``
        exactly, or ``None`` when ``cfg`` is not scenario-expressible
        (hand-tuned cache sizes, custom latency tables, ...).
        """
        if cfg.capacity_scale <= 0:
            return None
        scale = round(1.0 / cfg.capacity_scale)
        if scale < 1:
            return None
        machine = MachineSpec(
            scale=scale,
            mesh_width=cfg.mesh_width,
            mesh_height=cfg.mesh_height,
            cluster_width=cfg.cluster_width,
            cluster_height=cfg.cluster_height,
            rrt_entries=None if cfg.rrt_entries == 64 else cfg.rrt_entries,
        )
        candidate = cls(
            name=name,
            machine=machine,
            faults=cfg.fault_spec,
            strict=cfg.strict_invariants,
            **fields,
        )
        try:
            if candidate.to_config() != cfg:
                return None
        except ValueError:
            return None
        return candidate

    # --- serialization --------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """The canonical on-disk mapping (round-trips through
        :func:`parse_scenario`).  Defaults are omitted so the dict stays
        diff-friendly; ``source`` is transport metadata, not identity."""
        out: dict[str, Any] = {"scenario": SCHEMA_VERSION, "name": self.name}
        if self.description:
            out["description"] = self.description
        if self.kind == "run":
            out["workload"] = self.workload
            out["policy"] = self.policy
        elif self.kind == "sweep":
            out["sweep"] = {
                "workloads": list(self.workloads),
                "policies": list(self.policies),
            }
        else:
            out["policy"] = self.policy
            out["multiprog"] = [co.to_dict() for co in self.corunners]
        out["machine"] = self.machine.to_dict()
        if self.faults:
            out["faults"] = self.faults
        if self.strict:
            out["strict"] = True
        if self.seed:
            out["seed"] = self.seed
        if self.trace != TraceSpec():
            out["trace"] = self.trace.to_dict()
        if self.checkpoint != CheckpointSpec():
            out["checkpoint"] = self.checkpoint.to_dict()
        return out


_TOP_KEYS = {
    "scenario",
    "name",
    "description",
    "workload",
    "policy",
    "sweep",
    "multiprog",
    "machine",
    "faults",
    "strict",
    "seed",
    "trace",
    "checkpoint",
}


def _require_mapping(raw: Any, what: str, source: str) -> dict[str, Any]:
    if not isinstance(raw, dict):
        raise ScenarioError(
            f"expected a mapping, got {type(raw).__name__}",
            field=what,
            source=source,
        )
    return raw


def _reject_unknown(raw: dict[str, Any], allowed: set[str], where: str,
                    source: str) -> None:
    unknown = sorted(set(raw) - allowed)
    if unknown:
        raise ScenarioError(
            f"unknown key(s) {', '.join(map(repr, unknown))}; "
            f"valid keys: {', '.join(sorted(allowed))}",
            field=f"{where}.{unknown[0]}" if where else unknown[0],
            source=source,
        )


def _parse_machine(raw: Any, source: str) -> MachineSpec:
    raw = _require_mapping(raw, "machine", source)
    _reject_unknown(
        raw, {"scale", "mesh", "cluster", "rrt_entries"}, "machine", source
    )
    mesh = (4, 4)
    cluster = (2, 2)
    if "mesh" in raw:
        mesh = _parse_geometry(raw["mesh"], "machine.mesh")
    if "cluster" in raw:
        cluster = _parse_geometry(raw["cluster"], "machine.cluster")
    scale = raw.get("scale", 64)
    rrt = raw.get("rrt_entries")
    if rrt is not None and not _positive_int(rrt):
        raise ScenarioError(
            f"rrt_entries must be a positive integer, got {rrt!r}",
            field="machine.rrt_entries",
            source=source,
        )
    return MachineSpec(
        scale=scale,
        mesh_width=mesh[0],
        mesh_height=mesh[1],
        cluster_width=cluster[0],
        cluster_height=cluster[1],
        rrt_entries=rrt,
    )


def _parse_trace(raw: Any, source: str) -> TraceSpec:
    if isinstance(raw, bool):
        return TraceSpec(enabled=raw)
    raw = _require_mapping(raw, "trace", source)
    _reject_unknown(raw, {"enabled", "sample_every", "out"}, "trace", source)
    return TraceSpec(
        enabled=bool(raw.get("enabled", True)),
        sample_every=int(raw.get("sample_every", 64)),
        out=raw.get("out"),
    )


def _parse_checkpoint(raw: Any, source: str) -> CheckpointSpec:
    raw = _require_mapping(raw, "checkpoint", source)
    _reject_unknown(raw, {"every", "deadline"}, "checkpoint", source)
    deadline = raw.get("deadline")
    return CheckpointSpec(
        every=int(raw.get("every", 0)),
        deadline=float(deadline) if deadline is not None else None,
    )


def parse_scenario(raw: Any, *, source: str = "") -> Scenario:
    """Parse and validate one scenario mapping.

    ``source`` (a filename or label) is attached to every error so the
    message names exactly which file and field is wrong.
    """
    try:
        return _parse_scenario(raw, source)
    except ScenarioError as exc:
        wrapped = exc.with_source(source)
        if wrapped is exc:
            raise
        raise wrapped from None


def _parse_scenario(raw: Any, source: str) -> Scenario:
    raw = _require_mapping(raw, "", source)
    if "kernel" in raw:
        raise ScenarioError(
            "a scenario no longer selects the simulation kernel (removed in "
            "5.0); set the REPRO_KERNEL environment variable instead",
            field="kernel",
            source=source,
        )
    _reject_unknown(raw, _TOP_KEYS, "", source)
    version = raw.get("scenario", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ScenarioError(
            f"unsupported schema version {version!r} (this build reads "
            f"version {SCHEMA_VERSION})",
            field="scenario",
            source=source,
        )
    name = raw.get("name", "")
    if not isinstance(name, str) or not name:
        raise ScenarioError(
            "scenario needs a non-empty string 'name'", field="name",
            source=source,
        )
    workloads: tuple[str, ...] = ()
    policies: tuple[str, ...] = ()
    corunners: tuple[CoRunner, ...] = ()
    if "sweep" in raw:
        sweep = _require_mapping(raw["sweep"], "sweep", source)
        _reject_unknown(sweep, {"workloads", "policies"}, "sweep", source)
        wl_list = sweep.get("workloads")
        pol_list = sweep.get("policies")
        if not isinstance(wl_list, list) or not isinstance(pol_list, list):
            raise ScenarioError(
                "sweep needs 'workloads' and 'policies' lists",
                field="sweep",
                source=source,
            )
        workloads = tuple(str(w) for w in wl_list)
        policies = tuple(str(p) for p in pol_list)
    if "multiprog" in raw:
        progs = raw["multiprog"]
        if not isinstance(progs, list):
            raise ScenarioError(
                "multiprog must be a list of co-runners",
                field="multiprog",
                source=source,
            )
        parsed = []
        for i, entry in enumerate(progs):
            if isinstance(entry, str):
                parsed.append(CoRunner(entry))
                continue
            entry = _require_mapping(entry, f"multiprog[{i}]", source)
            _reject_unknown(
                entry, {"workload", "seed"}, f"multiprog[{i}]", source
            )
            if "workload" not in entry:
                raise ScenarioError(
                    "co-runner needs a 'workload'",
                    field=f"multiprog[{i}].workload",
                    source=source,
                )
            seed = entry.get("seed")
            parsed.append(
                CoRunner(str(entry["workload"]),
                         int(seed) if seed is not None else None)
            )
        corunners = tuple(parsed)
    scenario = Scenario(
        name=name,
        description=str(raw.get("description", "")),
        workload=raw.get("workload"),
        policy=raw.get("policy"),
        workloads=workloads,
        policies=policies,
        corunners=corunners,
        machine=_parse_machine(raw.get("machine", {}), source),
        faults=str(raw.get("faults", "")),
        strict=bool(raw.get("strict", False)),
        seed=raw.get("seed", 0),
        trace=_parse_trace(raw.get("trace", {"enabled": False}), source)
        if "trace" in raw
        else TraceSpec(),
        checkpoint=_parse_checkpoint(raw["checkpoint"], source)
        if "checkpoint" in raw
        else CheckpointSpec(),
        source=source,
    )
    scenario.validate()
    return scenario
