"""The one checkpoint file a trained policy lives in.

A deployable policy and a training result (the study zoo, ``repro train
-o``) save one ``.npz`` layout, so ``RLSchedulerPolicy.load`` deploys
either: ``p0`` .. ``pN`` hold the deployed network (a result's best
epoch); ``__meta__`` is JSON with ``preset``, ``n_procs``, ``env_config``
and ``name``, to which a result adds ``trace_name``, ``metric``,
``best_epoch``, ``train_meta`` and ``curve``; ``final/p*`` and
``value/p*`` hold a result's final-epoch policy (beside a best epoch)
and value network.  Imports nothing from :mod:`repro` but
:mod:`repro.config`.
"""

from __future__ import annotations

import dataclasses
import json
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, TypeVar

import numpy as np

from repro.config import EnvConfig

__all__ = ["Checkpoint", "CheckpointError", "read", "write"]

T = TypeVar("T")
_META = "__meta__"


class CheckpointError(ValueError):
    """A file holds no usable checkpoint; the message starts with its path."""


@dataclass
class Checkpoint:
    """The deployable policy, parameter ``groups`` beside it, more ``meta``."""

    preset: str
    n_procs: int
    env_config: EnvConfig
    weights: dict[str, np.ndarray]
    name: str | None = None
    groups: dict[str, dict[str, np.ndarray]] = field(default_factory=dict)
    meta: dict = field(default_factory=dict)


def write(path: str | Path, checkpoint: Checkpoint) -> None:
    """Store ``checkpoint`` at exactly ``path``, write-then-rename: an
    interrupted save leaves no file there for a resume check to trust."""
    arrays = dict(checkpoint.weights)
    for group, state in checkpoint.groups.items():
        arrays.update((f"{group}/{key}", value) for key, value in state.items())
    meta = {
        "preset": checkpoint.preset,
        "n_procs": checkpoint.n_procs,
        # the whole EnvConfig: every field shapes what the policy sees
        "env_config": dataclasses.asdict(checkpoint.env_config),
        "name": checkpoint.name,
        **checkpoint.meta,
    }
    arrays[_META] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp.npz")
    try:
        np.savez(tmp, **arrays)
        tmp.replace(path)
    finally:
        tmp.unlink(missing_ok=True)


def read(
    path: str | Path,
    build: Callable[[Checkpoint], T],
    require: tuple[str, ...] = (),
) -> T:
    """``build(checkpoint)`` for the file at ``path``, whose ``meta``
    holds the keys ``require`` names.  Whatever fails — reading, a field
    absent, building (an unknown preset, weights of another shape) —
    raises :class:`CheckpointError`."""
    # opened here, not by np.load, which leaks its handle when the
    # archive fails to open
    try:
        with open(path, "rb") as fh:
            archive = np.load(fh)
            if not isinstance(archive, np.lib.npyio.NpzFile):
                raise ValueError("one array, not an .npz archive")
            with archive:
                arrays = {key: archive[key] for key in archive.files}
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot open ({exc.strerror})") from exc
    except (zipfile.BadZipFile, EOFError, ValueError) as exc:
        raise CheckpointError(
            f"{path}: not a readable .npz checkpoint ({exc})") from exc
    try:
        meta = dict(json.loads(bytes(arrays.pop(_META)).decode()))
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"{path}: not a checkpoint (no readable field '{_META}')") from exc
    rename = {}
    if "policy_preset" in meta:
        # a zoo file in the older grouped layout: best/ (else policy/)
        # deploys, policy/ beside best/ is the final epoch's
        best = any(key.startswith("best/") for key in arrays)
        rename = {"best": "", "policy": "final" if best else ""}
        meta["preset"] = meta.pop("policy_preset")
        meta["name"] = f"RL-{meta.get('trace_name')}"
    # model files from before the whole EnvConfig was stored hold its shape
    shape = {k: meta.pop(k) for k in ("max_obsv_size", "job_features")
             if k in meta}
    if shape:
        meta.setdefault("env_config", shape)
    weights: dict[str, np.ndarray] = {}
    groups: dict[str, dict[str, np.ndarray]] = {}
    for key, array in arrays.items():
        group, _, name = key.rpartition("/")
        group = rename.get(group, group)
        (groups.setdefault(group, {}) if group else weights)[name] = array
    missing = [key for key in ("preset", "n_procs", "env_config", *require)
               if key not in meta]
    if missing:
        raise CheckpointError(
            f"{path}: checkpoint lacks field(s) {', '.join(missing)}")
    try:
        return build(Checkpoint(
            meta.pop("preset"), meta.pop("n_procs"),
            EnvConfig(**meta.pop("env_config")), weights,
            meta.pop("name", None), groups, meta,
        ))
    except (KeyError, TypeError, ValueError) as exc:
        detail = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        raise CheckpointError(f"{path}: {detail}") from exc

