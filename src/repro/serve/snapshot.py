"""Format-versioned kill/restore of a whole serving deployment.

:func:`save_runtime` / :func:`load_runtime` are the one snapshot format
(format version 4): they cover an entire deployment — any worker count,
1 included — atomically.  They extend the ``.npz`` + embedded-JSON
conventions of :mod:`repro.io` (format version tag, ``kind``
discriminator, ``meta_json`` byte array).  A snapshot is a *directory*:

* ``shard-<k>.npz`` (``kind="service-shard"``) — shard ``k``'s player
  ids plus its rows of the per-player arrays (probe counts, revealed
  mask/grades, best outputs);
* ``global.npz`` (``kind="service-global"``) — everything identical
  across shards at a barrier: config, params, phase progress, the
  master rng state, and the bit-packed hidden matrix
  (``hidden_packed`` plus the logical ``hidden_shape``).  Its meta
  still lists ``channels``, always empty now: a barrier retires every
  channel its phase posted, and the reader ignores the ``channel_<i>``
  members older snapshots carry;
* ``manifest.json`` — worker count and file list, written **last**
  (tmp + atomic rename): a crash mid-save leaves no manifest, and a
  directory without a manifest is not a snapshot.

Snapshots are cut at phase barriers — the anytime loop's consistent
cuts, where no player program is suspended — so suspended coroutines
never need pickling.  The cut itself (:class:`ServiceCheckpoint`) is
the revealed grades, the probe charges, the phase progress and the rng
state; the hidden matrix is the environment the oracle answers from,
so :func:`save_runtime` takes it from the runtime once, at save time.
Killing a deployment mid-phase and restoring its last snapshot rolls
back to that barrier; the restored deployment re-draws the interrupted
phase coin-for-coin and ends bitwise-identical (outputs *and* probe
counts) to a never-interrupted run, which ``tests/test_serve_snapshot.py``
pins.

Because every shard holds the same rng state and phase progress at a
barrier (see :mod:`repro.serve.sharded`), the per-shard arrays
reassemble into one :class:`ServiceCheckpoint` that restores to *any*
topology: ``load_runtime(path, workers=8)`` repartitions a 2-worker
snapshot bitwise-faithfully, and ``workers=1`` restores the in-process
runtime.

A snapshot that cannot be trusted raises ``ValueError`` naming the bad
file: a truncated or corrupt archive, a manifest with a missing key,
shards that list a player twice, leave one out or name one out of
range, and the retired single-file ``kind="service"`` ``.npz`` archive
of format versions 2 and 3.
"""

from __future__ import annotations

import dataclasses
import json
import zipfile
import zlib
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.params import Params
from repro.io import FORMAT_VERSION, check_format_version
from repro.metrics.bitpack import BitMatrix
from repro.obs import metrics
from repro.serve.config import ServeConfig
from repro.serve.service import ServeService, ServiceCheckpoint

if TYPE_CHECKING:
    from repro.serve.runtime import ServeRuntime

__all__ = ["load_runtime", "save_runtime"]

#: What reading a truncated or corrupt ``.npz`` member can raise.
_UNREADABLE = (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile, zlib.error)


def _config_meta(config: ServeConfig) -> dict[str, Any]:
    meta = dataclasses.asdict(config)
    meta.pop("params")  # archived separately (nested dataclass)
    return meta


#: ``ServeConfig`` fields that archived configs may carry but the class
#: no longer has; dropped on load.  ``micro_batch`` selected the retired
#: scalar-probe router path and never influenced the served bits.
_RETIRED_CONFIG_KEYS = frozenset({"micro_batch"})


def _config_from_meta(meta: dict[str, Any], params: Params, source: Path) -> ServeConfig:
    """Rebuild a :class:`ServeConfig` from :func:`_config_meta` output.

    Retired keys are dropped; any other key the class does not know
    means the archive was written by a different version (or corrupted)
    and raises ``ValueError`` naming it.
    """
    fields = {f.name for f in dataclasses.fields(ServeConfig)} - {"params"}
    kwargs = {k: v for k, v in meta.items() if k not in _RETIRED_CONFIG_KEYS}
    unknown = sorted(set(kwargs) - fields)
    if unknown:
        raise ValueError(f"{source}: unknown ServeConfig key(s) {unknown} in archived config")
    return ServeConfig(params=params, **kwargs)


def save_runtime(path: str | Path, runtime: ServeRuntime) -> Path:
    """Archive *runtime*'s whole-deployment checkpoint as a v4 directory.

    Works for any topology: the runtime supplies one consistent-cut
    :class:`ServiceCheckpoint`, its player partition and its packed
    hidden matrix, and the manifest is written last so the snapshot
    appears atomically.
    """
    ckpt = runtime.checkpoint()
    hidden = runtime.hidden_matrix()
    n, m = hidden.shape
    partitions = runtime.player_partitions
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    manifest_path = path / "manifest.json"
    manifest_path.unlink(missing_ok=True)  # invalidate any prior snapshot first

    shard_names: list[str] = []
    for shard, players in enumerate(partitions):
        rows = np.asarray(players, dtype=np.intp)
        shard_name = f"shard-{shard:03d}.npz"
        shard_meta = {
            "version": FORMAT_VERSION,
            "kind": "service-shard",
            "shard": shard,
            "has_best": ckpt.best is not None,
        }
        arrays: dict[str, np.ndarray] = {
            "players": rows,
            "counts": ckpt.counts[rows],
            "revealed": ckpt.revealed[rows],
            "values": ckpt.values[rows],
        }
        if ckpt.best is not None:
            arrays["best"] = ckpt.best[rows]
        arrays["meta_json"] = np.frombuffer(
            json.dumps(shard_meta).encode(), dtype=np.uint8
        )
        np.savez_compressed(path / shard_name, **arrays)
        shard_names.append(shard_name)

    global_meta: dict[str, Any] = {
        "version": FORMAT_VERSION,
        "kind": "service-global",
        "config": _config_meta(ckpt.config),
        "params": dataclasses.asdict(ckpt.config.resolved_params()),
        "phase": ckpt.phase,
        "completed": ckpt.completed,
        "exhausted": ckpt.exhausted,
        "rng_state": ckpt.rng_state,
        "has_best": ckpt.best is not None,
        "channels": [],
        "hidden_shape": [n, m],
    }
    np.savez_compressed(
        path / "global.npz",
        hidden_packed=hidden.packed,
        meta_json=np.frombuffer(json.dumps(global_meta).encode(), dtype=np.uint8),
    )
    # A snapshot with more workers saved here before left shards this
    # manifest does not list.
    for stale in path.glob("shard-*.npz"):
        if stale.name not in shard_names:
            stale.unlink()

    manifest = {
        "version": FORMAT_VERSION,
        "kind": "service-manifest",
        "workers": len(partitions),
        "n_players": n,
        "n_objects": m,
        "global": "global.npz",
        "shards": shard_names,
    }
    tmp = manifest_path.with_suffix(".json.tmp")
    tmp.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    tmp.replace(manifest_path)  # the commit point: no manifest, no snapshot
    metrics.incr("serve.checkpoint_saves_total")
    return path


def _read_archive(path: Path, kind: str) -> tuple[dict[str, Any], dict[str, np.ndarray]]:
    """Read one ``.npz`` member of a snapshot whole: ``(meta, arrays)``.

    A missing, truncated or corrupt file, a newer format version or the
    wrong ``kind`` raises ``ValueError`` naming *path*.
    """
    try:
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        meta = json.loads(bytes(arrays.pop("meta_json")).decode())
    except _UNREADABLE as exc:
        raise ValueError(f"{path}: unreadable snapshot archive ({exc!r})") from exc
    check_format_version(meta, path)
    if meta.get("kind") != kind:
        raise ValueError(f"{path} is not a {kind} archive (kind={meta.get('kind')!r})")
    return meta, arrays


def load_runtime(path: str | Path, *, workers: int | None = None) -> ServeRuntime:
    """Restore a :func:`save_runtime` snapshot to *workers* processes.

    ``workers=None`` keeps the archived worker count; any other value
    repartitions the same checkpoint — the restored deployment's
    outputs and (for non-drained runs) probe counts are bitwise
    identical either way.  A snapshot that cannot be trusted raises
    ``ValueError`` naming the bad file (see module docstring).
    """
    from repro.serve.runtime import LocalRuntime
    from repro.serve.sharded import ShardedRuntime

    path = Path(path)
    if path.is_file():
        raise ValueError(
            f"{path} is a file, not a snapshot directory: single-file .npz service "
            "archives (kind='service') are a retired format; snapshots are "
            "save_runtime directories"
        )
    manifest_path = path / "manifest.json"
    if not manifest_path.is_file():
        raise ValueError(f"{path} has no manifest.json: not a runtime snapshot")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        check_format_version(manifest, manifest_path)
        if manifest.get("kind") != "service-manifest":
            raise ValueError(
                f"{manifest_path} does not describe a runtime (kind={manifest.get('kind')!r})"
            )
        global_path = path / manifest["global"]
        shard_paths = [path / name for name in manifest["shards"]]
        archived_workers = int(manifest["workers"])
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"{manifest_path}: malformed manifest ({exc!r})") from exc

    meta, data = _read_archive(global_path, "service-global")
    try:
        config = _config_from_meta(meta["config"], Params(**meta["params"]), global_path)
        n, m = (int(s) for s in meta["hidden_shape"])
        hidden = BitMatrix.from_packed(data["hidden_packed"], m)
        phase, completed = int(meta["phase"]), [float(a) for a in meta["completed"]]
        exhausted, rng_state = bool(meta["exhausted"]), meta["rng_state"]
        has_best = bool(meta["has_best"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{global_path}: malformed global archive ({exc!r})") from exc
    if hidden.shape != (n, m):
        raise ValueError(f"{global_path}: hidden matrix is {hidden.shape}, meta says {(n, m)}")

    counts = np.zeros(n, dtype=np.int64)
    revealed = np.zeros((n, m), dtype=bool)
    values = np.full((n, m), -1, dtype=np.int8)
    best = np.zeros((n, m), dtype=np.int8) if has_best else None
    listed = np.zeros(n, dtype=np.int64)
    for shard_path in shard_paths:
        _, data = _read_archive(shard_path, "service-shard")
        try:
            players = np.asarray(data["players"], dtype=np.intp)
            if players.size and (int(players.min()) < 0 or int(players.max()) >= n):
                raise ValueError(f"player ids outside [0, {n})")
            np.add.at(listed, players, 1)
            repeated = players[listed[players] > 1]
            if repeated.size:
                raise ValueError(f"player {int(repeated[0])} is listed twice")
            counts[players] = data["counts"]
            revealed[players] = data["revealed"]
            values[players] = data["values"]
            if best is not None:
                best[players] = data["best"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{shard_path}: bad shard archive ({exc})") from exc
    if not listed.all():
        missing = int((listed == 0).sum())
        raise ValueError(f"snapshot shards cover {n - missing}/{n} players")

    target = archived_workers if workers is None else int(workers)
    if target < 1:
        raise ValueError(f"workers must be >= 1, got {target}")
    config = dataclasses.replace(config, workers=target)
    ckpt = ServiceCheckpoint(
        config=config,
        phase=phase,
        completed=completed,
        exhausted=exhausted,
        rng_state=rng_state,
        counts=counts,
        revealed=revealed,
        values=values,
        best=best,
    )
    metrics.incr("serve.checkpoint_restores_total")
    if target == 1:
        return LocalRuntime(ServeService.from_checkpoint(hidden, ckpt), config=config)
    return ShardedRuntime(hidden, config, _restore=ckpt)
