"""Format-versioned checkpoint/restore of a whole serving runtime.

Extends the ``.npz`` + embedded-JSON conventions of :mod:`repro.io`
(format version tag, ``kind`` discriminator, ``meta_json`` byte array)
with a ``kind="service"`` archive holding everything
:class:`~repro.serve.service.ServiceCheckpoint` captures: the hidden
matrix, billboard contents (revealed mask/grades plus every posted
vector channel), per-player probe accounting, the completed-phase
outputs, and the master rng state.

Since format version 3 the hidden matrix is archived *bit-packed*
(``hidden_packed`` + the logical ``hidden_shape`` in the metadata, 8×
smaller before compression even sees it); version-2 archives with a
dense ``hidden`` array still load bit-identically.

Snapshots are cut at phase barriers — the anytime loop's consistent
cuts, where no player program is suspended — so suspended coroutines
never need pickling.  Killing a service mid-phase and restoring its last
snapshot rolls back to that barrier; the restored service re-draws the
interrupted phase coin-for-coin and ends bitwise-identical (outputs
*and* probe counts) to a never-interrupted run, which
``tests/test_serve_snapshot.py`` pins.

Whole-runtime snapshots (format version 4)
------------------------------------------
:func:`save_runtime` / :func:`load_runtime` cover an entire deployment
— any worker count — atomically.  The archive is a *directory*:

* ``shard-<k>.npz`` (``kind="service-shard"``) — shard ``k``'s player
  ids plus its rows of the per-player arrays (probe counts, revealed
  mask/grades, best outputs);
* ``global.npz`` (``kind="service-global"``) — everything identical
  across shards at a barrier: config, params, phase progress, the
  master rng state, the billboard channels, and the bit-packed hidden
  matrix;
* ``manifest.json`` — worker count and file list, written **last**
  (tmp + atomic rename): a crash mid-save leaves no manifest, and a
  directory without a manifest is not a snapshot.

Because every shard holds the same rng state and channels at a barrier
(see :mod:`repro.serve.sharded`), the per-shard arrays reassemble into
one :class:`ServiceCheckpoint` that restores to *any* topology:
``load_runtime(path, workers=8)`` repartitions a 2-worker snapshot
bitwise-faithfully, and ``workers=1`` restores the in-process runtime.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.params import Params
from repro.io import FORMAT_VERSION, check_format_version
from repro.obs import metrics
from repro.metrics.bitpack import pack_rows, unpack_rows
from repro.serve.config import ServeConfig
from repro.serve.service import ServeService, ServiceCheckpoint

if TYPE_CHECKING:
    from repro.serve.runtime import ServeRuntime

__all__ = ["load_runtime", "load_service", "save_runtime", "save_service"]


def save_service(path: str | Path, service: ServeService) -> Path:
    """Write *service*'s latest barrier checkpoint to ``path`` (``.npz``)."""
    ckpt = service.checkpoint()
    path = Path(path)
    channel_names = sorted(ckpt.channels)
    config = ckpt.config
    meta: dict[str, Any] = {
        "version": FORMAT_VERSION,
        "kind": "service",
        "config": {
            "seed": config.seed,
            "max_phases": config.max_phases,
            "d_max": config.d_max,
            "budget": config.budget,
            "charge_repeats": config.charge_repeats,
        },
        "params": dataclasses.asdict(ckpt.params),
        "phase": ckpt.phase,
        "completed": ckpt.completed,
        "exhausted": ckpt.exhausted,
        "rng_state": ckpt.rng_state,
        "has_best": ckpt.best is not None,
        "channels": channel_names,
        "hidden_shape": [int(s) for s in ckpt.hidden.shape],
    }
    arrays: dict[str, np.ndarray] = {
        "hidden_packed": pack_rows(ckpt.hidden),
        "counts": ckpt.counts,
        "revealed": ckpt.revealed,
        "values": ckpt.values,
    }
    if ckpt.best is not None:
        arrays["best"] = ckpt.best
    for i, name in enumerate(channel_names):
        arrays[f"channel_{i}"] = ckpt.channels[name]
    arrays["meta_json"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez_compressed(path, **arrays)
    metrics.incr("serve.checkpoint_saves_total")
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def load_service(path: str | Path) -> ServeService:
    """Restore a service written by :func:`save_service`.

    The restored service resumes at the archived phase barrier with
    identical subsequent behaviour (same coins, same probe charges, same
    outputs) as the service that was saved.
    """
    with np.load(Path(path)) as data:
        meta = json.loads(bytes(data["meta_json"]).decode())
        check_format_version(meta, path)
        if meta.get("kind") != "service":
            raise ValueError(f"{path} does not contain a service (kind={meta.get('kind')!r})")
        config_meta = meta["config"]
        config = ServeConfig(
            seed=int(config_meta["seed"]),
            max_phases=config_meta["max_phases"],
            d_max=config_meta["d_max"],
            budget=config_meta["budget"],
            charge_repeats=bool(config_meta["charge_repeats"]),
            params=Params(**meta["params"]),
        )
        channels = {
            name: data[f"channel_{i}"] for i, name in enumerate(meta["channels"])
        }
        if "hidden_packed" in data:
            # Format 3+: bit-packed hidden matrix.
            hidden = unpack_rows(data["hidden_packed"], int(meta["hidden_shape"][1]))
        else:
            # Format <= 2: dense int8 hidden matrix.
            hidden = data["hidden"]
        ckpt = ServiceCheckpoint(
            config=config,
            params=config.resolved_params(),
            phase=int(meta["phase"]),
            completed=[float(a) for a in meta["completed"]],
            exhausted=bool(meta["exhausted"]),
            rng_state=meta["rng_state"],
            hidden=hidden,
            counts=data["counts"],
            revealed=data["revealed"],
            values=data["values"],
            channels=channels,
            best=data["best"] if meta["has_best"] else None,
        )
    metrics.incr("serve.checkpoint_restores_total")
    return ServeService.from_checkpoint(ckpt)


# ---------------------------------------------------------------------------
# whole-runtime snapshots (format version 4)
# ---------------------------------------------------------------------------
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
    :class:`ServiceCheckpoint` plus its player partition, and the
    manifest is written last so the snapshot appears atomically.
    """
    ckpt = runtime.checkpoint()
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

    channel_names = sorted(ckpt.channels)
    global_meta: dict[str, Any] = {
        "version": FORMAT_VERSION,
        "kind": "service-global",
        "config": _config_meta(ckpt.config),
        "params": dataclasses.asdict(ckpt.params),
        "phase": ckpt.phase,
        "completed": ckpt.completed,
        "exhausted": ckpt.exhausted,
        "rng_state": ckpt.rng_state,
        "has_best": ckpt.best is not None,
        "channels": channel_names,
        "hidden_shape": [int(s) for s in ckpt.hidden.shape],
    }
    global_arrays: dict[str, np.ndarray] = {"hidden_packed": pack_rows(ckpt.hidden)}
    for i, name in enumerate(channel_names):
        global_arrays[f"channel_{i}"] = ckpt.channels[name]
    global_arrays["meta_json"] = np.frombuffer(
        json.dumps(global_meta).encode(), dtype=np.uint8
    )
    np.savez_compressed(path / "global.npz", **global_arrays)

    manifest = {
        "version": FORMAT_VERSION,
        "kind": "service-manifest",
        "workers": len(partitions),
        "n_players": int(ckpt.hidden.shape[0]),
        "n_objects": int(ckpt.hidden.shape[1]),
        "global": "global.npz",
        "shards": shard_names,
    }
    tmp = manifest_path.with_suffix(".json.tmp")
    tmp.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    tmp.replace(manifest_path)  # the commit point: no manifest, no snapshot
    metrics.incr("serve.checkpoint_saves_total")
    return path


def load_runtime(path: str | Path, *, workers: int | None = None) -> ServeRuntime:
    """Restore a :func:`save_runtime` snapshot to *workers* processes.

    ``workers=None`` keeps the archived worker count; any other value
    repartitions the same checkpoint — the restored deployment's
    outputs and (for non-drained runs) probe counts are bitwise
    identical either way.
    """
    from repro.serve.runtime import LocalRuntime
    from repro.serve.sharded import ShardedRuntime

    path = Path(path)
    manifest_path = path / "manifest.json"
    if not manifest_path.is_file():
        raise ValueError(f"{path} has no manifest.json: not a runtime snapshot")
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    check_format_version(manifest, manifest_path)
    if manifest.get("kind") != "service-manifest":
        raise ValueError(
            f"{manifest_path} does not describe a runtime (kind={manifest.get('kind')!r})"
        )

    with np.load(path / manifest["global"]) as data:
        meta = json.loads(bytes(data["meta_json"]).decode())
        check_format_version(meta, path / manifest["global"])
        if meta.get("kind") != "service-global":
            raise ValueError(
                f"{manifest['global']} is not a global archive (kind={meta.get('kind')!r})"
            )
        config = _config_from_meta(
            meta["config"], Params(**meta["params"]), path / manifest["global"]
        )
        hidden = unpack_rows(data["hidden_packed"], int(meta["hidden_shape"][1]))
        channels = {
            name: data[f"channel_{i}"] for i, name in enumerate(meta["channels"])
        }

    n, m = hidden.shape
    counts = np.zeros(n, dtype=np.int64)
    revealed = np.zeros((n, m), dtype=bool)
    values = np.full((n, m), -1, dtype=np.int8)
    best = np.zeros((n, m), dtype=np.int8) if meta["has_best"] else None
    covered = np.zeros(n, dtype=bool)
    for shard_name in manifest["shards"]:
        with np.load(path / shard_name) as data:
            shard_meta = json.loads(bytes(data["meta_json"]).decode())
            if shard_meta.get("kind") != "service-shard":
                raise ValueError(
                    f"{shard_name} is not a shard archive (kind={shard_meta.get('kind')!r})"
                )
            players = np.asarray(data["players"], dtype=np.intp)
            counts[players] = data["counts"]
            revealed[players] = data["revealed"]
            values[players] = data["values"]
            if best is not None:
                best[players] = data["best"]
            covered[players] = True
    if not covered.all():
        missing = int((~covered).sum())
        raise ValueError(f"snapshot shards cover {n - missing}/{n} players")

    target = int(manifest["workers"]) if workers is None else int(workers)
    if target < 1:
        raise ValueError(f"workers must be >= 1, got {target}")
    config = dataclasses.replace(config, workers=target)
    ckpt = ServiceCheckpoint(
        config=config,
        params=config.resolved_params(),
        phase=int(meta["phase"]),
        completed=[float(a) for a in meta["completed"]],
        exhausted=bool(meta["exhausted"]),
        rng_state=meta["rng_state"],
        hidden=hidden,
        counts=counts,
        revealed=revealed,
        values=values,
        channels=channels,
        best=best,
    )
    metrics.incr("serve.checkpoint_restores_total")
    if target == 1:
        return LocalRuntime(ServeService.from_checkpoint(ckpt), config=config)
    return ShardedRuntime(hidden, config, _restore=ckpt)
