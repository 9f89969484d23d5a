"""Archiving instances and run results to ``.npz``.

Experiment sweeps produce (instance, outputs, probe counts) triples that
are expensive to regenerate and cheap to store.  This module provides a
stable on-disk format:

* :func:`save_instance` / :func:`load_instance` — hidden matrix plus
  every planted community (members, diameter, center, label);
* :func:`save_run` / :func:`load_run` — a
  :class:`~repro.core.result.RunResult` (outputs, per-player probes,
  algorithm tag; ``meta`` is stored for scalar/str/int-list values);
* :func:`save_probe_stats` / :func:`load_probe_stats` — bare
  :class:`~repro.billboard.accounting.ProbeStats` (the serving layer
  snapshots accounting independently of any run result).

Everything round-trips exactly; loading never requires the workload
generator or its seed.

Format versioning: every archive embeds ``{"version": FORMAT_VERSION}``
in its JSON metadata.  Version 2 added the ``probe_stats`` kind;
version 4 added whole-runtime snapshots — a directory with a
``manifest.json``, one ``kind="service-global"`` archive for shared
state (hidden matrix bit-packed as ``hidden_packed`` + logical shape
in the metadata), and per-shard ``kind="service-shard"`` archives (see
:mod:`repro.serve.snapshot`), now the only snapshot format: the
single-file ``kind="service"`` archive of versions 2 and 3 is retired
and no longer loads.  The loaders accept every version in
``SUPPORTED_VERSIONS`` (version-1 archives predate the version gate and
still load) and reject archives from a *newer* format than this build
understands.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

from repro.billboard.accounting import ProbeStats
from repro.core.result import RunResult
from repro.model.community import Community
from repro.model.instance import Instance

__all__ = [
    "FORMAT_VERSION",
    "SUPPORTED_VERSIONS",
    "check_format_version",
    "load_instance",
    "load_probe_stats",
    "load_run",
    "save_instance",
    "save_probe_stats",
    "save_run",
]

#: Version written into new archives.
FORMAT_VERSION = 4

#: Versions the loaders of this build accept.
SUPPORTED_VERSIONS = frozenset({1, 2, 3, 4})


def check_format_version(meta: dict[str, Any], path: str | Path) -> None:
    """Reject archives whose embedded format version this build cannot read.

    Archives written before the version gate default to version 1 (they
    always embedded it anyway); anything outside
    :data:`SUPPORTED_VERSIONS` — i.e. written by a newer build — raises
    ``ValueError`` instead of being misparsed.
    """
    version = meta.get("version", 1)
    if version not in SUPPORTED_VERSIONS:
        supported = ", ".join(str(v) for v in sorted(SUPPORTED_VERSIONS))
        raise ValueError(
            f"{path} has format version {version!r}; this build reads versions {{{supported}}}"
        )


def save_instance(path: str | Path, instance: Instance) -> Path:
    """Write *instance* to ``path`` (``.npz`` appended if missing)."""
    path = Path(path)
    arrays: dict[str, np.ndarray] = {"prefs": instance.prefs}
    meta = {
        "version": FORMAT_VERSION,
        "kind": "instance",
        "name": instance.name,
        "communities": [],
    }
    for i, c in enumerate(instance.communities):
        arrays[f"community_{i}_members"] = c.members
        if c.center is not None:
            arrays[f"community_{i}_center"] = c.center
        meta["communities"].append(
            {"diameter": int(c.diameter), "label": c.label, "has_center": c.center is not None}
        )
    arrays["meta_json"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez_compressed(path, **arrays)
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def load_instance(path: str | Path) -> Instance:
    """Load an instance written by :func:`save_instance`."""
    with np.load(Path(path)) as data:
        meta = json.loads(bytes(data["meta_json"]).decode())
        check_format_version(meta, path)
        if meta.get("kind") != "instance":
            raise ValueError(f"{path} does not contain an instance (kind={meta.get('kind')!r})")
        communities = []
        for i, cm in enumerate(meta["communities"]):
            center = data[f"community_{i}_center"] if cm["has_center"] else None
            communities.append(
                Community(
                    members=data[f"community_{i}_members"],
                    diameter=cm["diameter"],
                    center=center,
                    label=cm["label"],
                )
            )
        return Instance(prefs=data["prefs"], communities=communities, name=meta["name"])


def _jsonable_meta(meta: dict) -> dict:
    """Keep only JSON-serialisable meta entries (scalars, strings, flat lists)."""
    out = {}
    for k, v in meta.items():
        try:
            json.dumps(v)
        except TypeError:
            continue
        out[k] = v
    return out


def save_run(path: str | Path, run: RunResult) -> Path:
    """Write a run result to ``path``."""
    path = Path(path)
    meta = {
        "version": FORMAT_VERSION,
        "kind": "run",
        "algorithm": run.algorithm,
        "meta": _jsonable_meta(run.meta),
    }
    np.savez_compressed(
        path,
        outputs=run.outputs,
        per_player=run.stats.per_player,
        meta_json=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
    )
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def load_run(path: str | Path) -> RunResult:
    """Load a run result written by :func:`save_run`."""
    with np.load(Path(path)) as data:
        meta = json.loads(bytes(data["meta_json"]).decode())
        check_format_version(meta, path)
        if meta.get("kind") != "run":
            raise ValueError(f"{path} does not contain a run result (kind={meta.get('kind')!r})")
        return RunResult(
            outputs=data["outputs"],
            stats=ProbeStats(data["per_player"]),
            algorithm=meta["algorithm"],
            meta=meta["meta"],
        )


def save_probe_stats(path: str | Path, stats: ProbeStats) -> Path:
    """Write per-player probe accounting to ``path``."""
    path = Path(path)
    meta = {"version": FORMAT_VERSION, "kind": "probe_stats"}
    np.savez_compressed(
        path,
        per_player=stats.per_player,
        meta_json=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
    )
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def load_probe_stats(path: str | Path) -> ProbeStats:
    """Load probe accounting written by :func:`save_probe_stats`."""
    with np.load(Path(path)) as data:
        meta = json.loads(bytes(data["meta_json"]).decode())
        check_format_version(meta, path)
        if meta.get("kind") != "probe_stats":
            raise ValueError(f"{path} does not contain probe stats (kind={meta.get('kind')!r})")
        return ProbeStats(data["per_player"])
