"""Deterministic failpoint framework: named, seed-driven fault injection.

One registry of **named injection sites** is threaded through the
service, harness, cache, and snapshot layers.  A site does nothing —
costs one dict lookup — until a spec activates it, so production paths
pay nothing for the chaos they don't ask for.

Spec grammar (``REPRO_FAILPOINTS`` or :func:`configure`)::

    site=COUNT[@MODIFIER]...[;site=COUNT[@MODIFIER]...]

``COUNT`` is an integer budget of firings, or ``*`` for unlimited.
Modifiers are ``@key:value`` pairs:

``@p:0.5``          fire with probability 0.5 (seeded, deterministic)
``@after:N``        skip the first N matching hits before firing
``@action:NAME``    override the site's default action
``@param:X``        action parameter (sleep seconds, exit code, MB cap)
``@job:LABEL``      context filter: fire only when ``fire(..., job=LABEL)``
``@attempt:N``      context filter on the attempt number
``@task_ge:N``      numeric filter: fire once ``task >= N`` (any ``_ge``
                    suffix compares numerically instead of exactly)

Any other ``@key:value`` is an exact-match filter against the keyword
context passed to :func:`fire`.  Examples::

    REPRO_FAILPOINTS='worker.crash=1@job:cholesky/tdnuca' repro serve
    REPRO_FAILPOINTS='worker.hang=*@p:0.01;cache.write.torn=2' repro serve
    REPRO_FAILPOINTS='worker.crash=*@attempt:1@task_ge:50' pytest -m chaos

Actions:

``raise``           raise :class:`FailpointError` (transient: retried)
``raise-permanent`` raise :class:`PermanentFailpointError` (not retried)
``exit``            ``os._exit(param or 99)`` — silent process death
``kill``            ``SIGKILL`` to the current process — kill -9 mid-job
``sleep``           ``time.sleep(param or 5.0)`` — a hang/stall
``oom``             allocate until :class:`MemoryError` (bounded by
                    ``param`` MB, default 2048; pair with a worker rlimit)
``corrupt``         flip one deterministic byte — only meaningful through
                    :func:`mangle`, which data paths call on payload bytes

Determinism: probability draws and corrupt-byte positions come from one
``random.Random`` per rule, seeded from ``REPRO_FAILPOINTS_SEED`` (or the
``seed`` argument to :func:`configure`) and the rule's position, so a
failing chaos run replays exactly.  Hit/firing counters are per-process;
cross-process determinism (the worker pool respawns children) comes from
context filters like ``@attempt:1``/``@task_ge:N`` rather than counters.

This module is dependency-free (stdlib only) so any layer — including
the snapshot format reader imported during package init — can use it
without import cycles.
"""

from __future__ import annotations

import os
import random
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "FAILPOINTS_ENV",
    "FAILPOINTS_SEED_ENV",
    "SITES",
    "ACTIONS",
    "FailpointError",
    "PermanentFailpointError",
    "Rule",
    "Failpoints",
    "parse_spec",
    "get",
    "configure",
    "reset",
    "fire",
    "mangle",
    "active_spec",
]

#: the activation spec (see the module docstring for the grammar).
FAILPOINTS_ENV = "REPRO_FAILPOINTS"

#: integer seed for probability draws and corrupt-byte positions.
FAILPOINTS_SEED_ENV = "REPRO_FAILPOINTS_SEED"

#: the registry of injection sites: site name -> default action.  A spec
#: naming an unknown site is rejected loudly at parse time — a typo'd
#: chaos run that silently injects nothing is worse than no chaos run.
SITES: dict[str, str] = {
    "worker.crash": "kill",           # kill -9 the worker at a task boundary
    "worker.hang": "sleep",           # stop heartbeating (lease expiry path)
    "worker.oom": "oom",              # allocate until MemoryError
    "worker.start.crash": "exit",     # die before simulating anything
    "queue.attempt.slow": "sleep",    # stall a queue attempt
    "queue.attempt.crash": "exit",    # die inside a queue attempt
    "queue.drain.stall": "sleep",     # stall the drain loop's entry
    "harness.worker.crash": "exit",   # die inside a sweep worker
    "harness.worker.slow": "sleep",   # stall a sweep worker
    "cache.write.torn": "corrupt",    # torn result-cache entry write
    "snapshot.write.torn": "corrupt",  # torn snapshot write
    "snapshot.read.corrupt": "corrupt",  # bit rot on snapshot read
    "kernel.dispatch.mismatch": "corrupt",  # forge a kernel-verify divergence
    "fleet.claim.stall": "sleep",     # stall between claim decision and link
    "fleet.lease.skew": "sleep",      # stall host heartbeats (lease skew)
    "fleet.publish.torn": "corrupt",  # torn shared-store publish
    "fleet.steal.race": "sleep",      # widen the pick-then-claim steal window
}

ACTIONS = (
    "raise",
    "raise-permanent",
    "exit",
    "kill",
    "sleep",
    "oom",
    "corrupt",
)

#: modifier keys with dedicated meaning; everything else is a filter.
_RESERVED_MODIFIERS = ("p", "after", "action", "param")


class FailpointError(RuntimeError):
    """Raised by the ``raise`` action.

    A ``RuntimeError`` subclass, so retry classifiers treat it as a
    transient infrastructure failure (it is not in
    :data:`repro.template.PERMANENT_ERRORS`).
    """


class PermanentFailpointError(ValueError):
    """Raised by the ``raise-permanent`` action.

    A ``ValueError`` subclass, so retry classifiers treat it as a
    deterministic, non-retryable failure.
    """


@dataclass
class Rule:
    """One activated injection rule plus its per-process counters."""

    site: str
    count: int | None  # None = unlimited ("*")
    prob: float = 1.0
    after: int = 0
    action: str = ""
    param: str | None = None
    filters: dict[str, str] = field(default_factory=dict)
    # runtime state (per-process; see the module docstring on determinism)
    hits: int = 0
    fired: int = 0
    rng: random.Random = field(default_factory=random.Random, repr=False)

    def matches(self, ctx: dict[str, Any]) -> bool:
        for key, want in self.filters.items():
            if key.endswith("_ge"):
                have = ctx.get(key[: -len("_ge")])
                try:
                    if have is None or float(have) < float(want):
                        return False
                except (TypeError, ValueError):
                    return False
            elif str(ctx.get(key)) != want:
                return False
        return True


def parse_spec(spec: str, seed: int = 0) -> list[Rule]:
    """Parse an activation spec into rules; raises ``ValueError`` loudly."""
    rules: list[Rule] = []
    for index, entry in enumerate(e.strip() for e in spec.split(";")):
        if not entry:
            continue
        site, eq, rest = entry.partition("=")
        site = site.strip()
        if not eq:
            raise ValueError(
                f"failpoint entry {entry!r} is missing '=COUNT' "
                "(grammar: site=COUNT[@key:value]...)"
            )
        if site not in SITES:
            known = ", ".join(sorted(SITES))
            raise ValueError(
                f"unknown failpoint site {site!r} (known sites: {known})"
            )
        tokens = rest.split("@")
        count_token = tokens[0].strip()
        if count_token == "*":
            count: int | None = None
        else:
            try:
                count = int(count_token)
            except ValueError:
                raise ValueError(
                    f"failpoint {site}: count must be an integer or '*', "
                    f"got {count_token!r}"
                ) from None
            if count < 0:
                raise ValueError(f"failpoint {site}: count must be >= 0")
        rule = Rule(site=site, count=count, action=SITES[site])
        for token in tokens[1:]:
            key, colon, value = token.partition(":")
            key = key.strip()
            value = value.strip()
            if not colon or not key:
                raise ValueError(
                    f"failpoint {site}: malformed modifier {token!r} "
                    "(expected @key:value)"
                )
            if key == "p":
                try:
                    rule.prob = float(value)
                except ValueError:
                    raise ValueError(
                        f"failpoint {site}: @p needs a float, got {value!r}"
                    ) from None
                if not 0.0 <= rule.prob <= 1.0:
                    raise ValueError(
                        f"failpoint {site}: @p must be within [0, 1]"
                    )
            elif key == "after":
                try:
                    rule.after = int(value)
                except ValueError:
                    raise ValueError(
                        f"failpoint {site}: @after needs an integer, "
                        f"got {value!r}"
                    ) from None
            elif key == "action":
                if value not in ACTIONS:
                    raise ValueError(
                        f"failpoint {site}: unknown action {value!r} "
                        f"(known: {', '.join(ACTIONS)})"
                    )
                rule.action = value
            elif key == "param":
                rule.param = value
            else:
                rule.filters[key] = value
        # One deterministic stream per rule: global seed + rule position.
        rule.rng = random.Random(f"{seed}|{index}|{rule.site}")
        rules.append(rule)
    return rules


class Failpoints:
    """A parsed set of rules and the machinery to fire them.

    Thread-safe; one instance is shared process-wide through
    :func:`get`.  ``fire``/``mangle`` on an instance with no rules for
    the site return immediately.
    """

    def __init__(self, rules: list[Rule], *, spec: str = "", seed: int = 0):
        self.spec = spec
        self.seed = seed
        self._by_site: dict[str, list[Rule]] = {}
        for rule in rules:
            self._by_site.setdefault(rule.site, []).append(rule)
        self._lock = threading.Lock()

    @property
    def active(self) -> bool:
        return bool(self._by_site)

    def _select(self, site: str, ctx: dict[str, Any],
                corrupt: bool) -> Rule | None:
        """The first rule for ``site`` that matches and has budget left.

        ``corrupt`` selects between data-mangling rules (:func:`mangle`)
        and control-flow rules (:func:`fire`); one site never mixes both
        in a single call.
        """
        rules = self._by_site.get(site)
        if not rules:
            return None
        with self._lock:
            for rule in rules:
                if (rule.action == "corrupt") is not corrupt:
                    continue
                if not rule.matches(ctx):
                    continue
                rule.hits += 1
                if rule.hits <= rule.after:
                    continue
                if rule.count is not None and rule.fired >= rule.count:
                    continue
                if rule.prob < 1.0 and rule.rng.random() >= rule.prob:
                    continue
                rule.fired += 1
                return rule
        return None

    def fire(self, site: str, **ctx: Any) -> bool:
        """Evaluate ``site`` against the rules; perform the action if due.

        Returns ``True`` when an action fired (for actions that return at
        all).  Unknown context keys are fine — they only matter to rules
        that filter on them.
        """
        rule = self._select(site, ctx, corrupt=False)
        if rule is None:
            return False
        _perform(rule, site, ctx)
        return True

    def mangle(self, site: str, data: bytes, **ctx: Any) -> bytes:
        """Return ``data``, corrupted iff a ``corrupt`` rule for ``site``
        fires: one byte at a seeded-deterministic position is flipped."""
        rule = self._select(site, ctx, corrupt=True)
        if rule is None or not data:
            return data
        blob = bytearray(data)
        blob[rule.rng.randrange(len(blob))] ^= 0xFF
        return bytes(blob)

    def stats(self) -> dict[str, dict[str, int]]:
        """Per-site hit/fired counters (for logs and tests)."""
        out: dict[str, dict[str, int]] = {}
        with self._lock:
            for site, rules in self._by_site.items():
                out[site] = {
                    "hits": sum(r.hits for r in rules),
                    "fired": sum(r.fired for r in rules),
                }
        return out


def _perform(rule: Rule, site: str, ctx: dict[str, Any]) -> None:
    action, param = rule.action, rule.param
    if action == "raise":
        raise FailpointError(f"failpoint {site} fired (ctx {ctx})")
    if action == "raise-permanent":
        raise PermanentFailpointError(f"failpoint {site} fired (ctx {ctx})")
    if action == "exit":
        os._exit(int(param) if param else 99)
    if action == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
        time.sleep(60)  # pragma: no cover - delivery is not synchronous
        return
    if action == "sleep":
        time.sleep(float(param) if param else 5.0)
        return
    if action == "oom":
        cap_mb = int(float(param)) if param else 2048
        chunk = 8 << 20
        hog = []
        try:
            for _ in range(max(1, (cap_mb << 20) // chunk)):
                hog.append(bytearray(chunk))
        except MemoryError:
            pass
        del hog
        raise MemoryError(
            f"failpoint {site}: allocation exhausted the worker's memory "
            f"budget (cap {cap_mb} MB)"
        )
    raise AssertionError(f"unhandled failpoint action {action!r}")


# ---------------------------------------------------------------------------
# process-wide instance: env-driven by default, explicit via configure()

_INACTIVE = Failpoints([])
_state: dict[str, Any] = {"fp": _INACTIVE, "fingerprint": None, "explicit": False}
_state_lock = threading.Lock()


def _env_fingerprint() -> tuple[str | None, ...]:
    return tuple(os.environ.get(k) for k in (FAILPOINTS_ENV, FAILPOINTS_SEED_ENV))


def _from_env() -> Failpoints:
    spec = os.environ.get(FAILPOINTS_ENV, "").strip()
    raw_seed = os.environ.get(FAILPOINTS_SEED_ENV, "").strip()
    try:
        seed = int(raw_seed) if raw_seed else 0
    except ValueError:
        raise ValueError(
            f"{FAILPOINTS_SEED_ENV} must be an integer, got {raw_seed!r}"
        ) from None
    if not spec:
        return _INACTIVE
    return Failpoints(parse_spec(spec, seed), spec=spec, seed=seed)


def get() -> Failpoints:
    """The process-wide instance.

    Env-driven unless :func:`configure` installed an explicit one; the
    environment is re-read on every call (a tuple compare — cheap) so
    tests that monkeypatch the variables see the change immediately.
    """
    with _state_lock:
        if _state["explicit"]:
            return _state["fp"]
        fingerprint = _env_fingerprint()
        if fingerprint != _state["fingerprint"]:
            _state["fp"] = _from_env()
            _state["fingerprint"] = fingerprint
        return _state["fp"]


def configure(spec: str, seed: int = 0) -> Failpoints:
    """Install an explicit spec, overriding the environment until
    :func:`reset`.  Returns the installed instance."""
    fp = Failpoints(parse_spec(spec, seed), spec=spec, seed=seed)
    with _state_lock:
        _state["fp"] = fp
        _state["explicit"] = True
    return fp


def reset() -> None:
    """Drop any explicit configuration and all parse caches; the next
    :func:`get` re-reads the environment."""
    with _state_lock:
        _state["fp"] = _INACTIVE
        _state["fingerprint"] = None
        _state["explicit"] = False


def fire(site: str, **ctx: Any) -> bool:
    """Module-level convenience: ``get().fire(site, **ctx)``."""
    fp = get()
    if not fp.active:
        return False
    return fp.fire(site, **ctx)


def mangle(site: str, data: bytes, **ctx: Any) -> bytes:
    """Module-level convenience: ``get().mangle(site, data, **ctx)``."""
    fp = get()
    if not fp.active:
        return data
    return fp.mangle(site, data, **ctx)


def active_spec() -> tuple[str, int] | None:
    """The (spec, seed) pair of the active instance, or ``None`` when
    inactive — what the sweep harness and the worker pool forward to each
    forked attempt, so that the launcher's spec, explicit or from the
    environment, holds in the child deterministically."""
    fp = get()
    if not fp.active:
        return None
    return (fp.spec, fp.seed)
