"""On-disk snapshot format: magic, version, checksum, pickled payload.

A snapshot file is::

    MAGIC (8 bytes) | version (u32 LE) | crc32 of payload (u32 LE) | payload

where the payload is a pickle of the nested primitive-only dict built by
:func:`repro.snapshot.checkpoint.build_payload` (every component's
``state_dict()`` plus the executor's replay journal).  Files are written
through :func:`repro.ioutils.atomic_write`, so a snapshot on disk is
either a complete previous snapshot or a complete new one — never a torn
write.  The CRC covers the payload bytes, so bit rot (or a truncated copy
from a dying filesystem) is detected at load time rather than surfacing
as an unpicklable mess or, worse, silently wrong simulation state.

:func:`load_or_quarantine` is the forgiving loader used by resume paths:
anything that fails the magic/version/CRC/unpickle gauntlet is renamed to
``<name>.corrupt`` and reported, and the caller falls back to a fresh run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import struct
import warnings
import zlib
from pathlib import Path

from repro import failpoints
from repro.ioutils import atomic_write

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "CorruptSnapshotError",
    "SnapshotMismatchError",
    "write_snapshot_file",
    "read_snapshot_file",
    "load_or_quarantine",
    "config_sha256",
    "verify_meta",
]

#: file magic: identifies a repro snapshot regardless of extension.
MAGIC = b"RPROSNAP"

#: bump on any incompatible payload layout change (see DESIGN.md §10).
FORMAT_VERSION = 1

_HEADER = struct.Struct("<II")  # version, crc32(payload)


class CorruptSnapshotError(Exception):
    """The file is not a readable snapshot (bad magic/version/CRC/pickle)."""


class SnapshotMismatchError(ValueError):
    """The snapshot is intact but belongs to a different run configuration."""


def config_sha256(cfg) -> str:
    """Fingerprint of a config dataclass (sha256 of its sorted JSON form).

    Stored in every snapshot and checked on resume so a snapshot can never
    be restored into a machine with different geometry.
    """
    payload = dataclasses.asdict(cfg)
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def write_snapshot_file(path: str | Path, payload: dict) -> Path:
    """Serialize ``payload`` to ``path`` atomically; returns the path."""
    path = Path(path)
    data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    crc = zlib.crc32(data) & 0xFFFFFFFF
    # Chaos site: a byte flipped after the CRC is a torn write — the next
    # read must detect it and quarantine, never resume from it.
    data = failpoints.mangle("snapshot.write.torn", data, path=str(path))
    with atomic_write(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(_HEADER.pack(FORMAT_VERSION, crc))
        fh.write(data)
    return path


def read_snapshot_file(path: str | Path) -> dict:
    """Load and validate a snapshot file.

    Raises :class:`FileNotFoundError` if the file is missing and
    :class:`CorruptSnapshotError` for any other failure mode.
    """
    raw = Path(path).read_bytes()
    # Chaos site: models bit rot between write and read.
    raw = failpoints.mangle("snapshot.read.corrupt", raw, path=str(path))
    header_len = len(MAGIC) + _HEADER.size
    if len(raw) < header_len:
        raise CorruptSnapshotError(
            f"{path}: truncated snapshot header "
            f"({len(raw)} bytes, a snapshot needs at least {header_len})"
        )
    if raw[: len(MAGIC)] != MAGIC:
        raise CorruptSnapshotError(
            f"{path}: not a snapshot file "
            f"(magic {raw[: len(MAGIC)]!r}, expected {MAGIC!r})"
        )
    version, crc = _HEADER.unpack_from(raw, len(MAGIC))
    if version != FORMAT_VERSION:
        raise CorruptSnapshotError(
            f"{path}: unsupported snapshot format version {version} "
            f"(this build reads version {FORMAT_VERSION})"
        )
    data = raw[header_len:]
    found_crc = zlib.crc32(data) & 0xFFFFFFFF
    if found_crc != crc:
        raise CorruptSnapshotError(
            f"{path}: checksum mismatch (payload crc32 {found_crc:#010x}, "
            f"header says {crc:#010x}) — corrupt payload"
        )
    try:
        payload = pickle.loads(data)
    except Exception as exc:  # noqa: BLE001 - pickle raises a zoo of types
        raise CorruptSnapshotError(f"{path}: unreadable payload: {exc}") from exc
    if not isinstance(payload, dict) or "meta" not in payload:
        raise CorruptSnapshotError(f"{path}: payload is not a snapshot dict")
    return payload


def load_or_quarantine(path: str | Path) -> dict | None:
    """Load a snapshot, quarantining it if corrupt.

    Returns the payload, or ``None`` when the file is missing or corrupt.
    A corrupt file is renamed to ``<name>.corrupt`` (never deleted — it
    may still be useful forensically) and a warning is issued so resume
    paths degrade to a fresh run instead of crashing.
    """
    path = Path(path)
    try:
        return read_snapshot_file(path)
    except FileNotFoundError:
        return None
    except CorruptSnapshotError as exc:
        quarantine = path.with_name(path.name + ".corrupt")
        try:
            os.replace(path, quarantine)
            where = f"quarantined to {quarantine}"
        except OSError:
            where = "could not be quarantined"
        warnings.warn(
            f"ignoring corrupt snapshot ({exc}); {where}", stacklevel=2
        )
        return None


def verify_meta(payload: dict, *, workload: str, policy: str, seed: int, cfg) -> None:
    """Check a snapshot belongs to this (workload, policy, seed, config).

    Raises :class:`SnapshotMismatchError` on any difference; resuming a
    snapshot into the wrong run would otherwise produce silently wrong
    (non-byte-identical) statistics.
    """
    meta = payload.get("meta", {})
    expected = {
        "workload": workload,
        "policy": policy,
        "seed": seed,
        "config_sha256": config_sha256(cfg),
    }
    for key, want in expected.items():
        have = meta.get(key)
        if have != want:
            raise SnapshotMismatchError(
                f"snapshot {key} mismatch: snapshot has {have!r}, "
                f"this run expects {want!r}"
            )
