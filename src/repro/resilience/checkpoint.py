"""Versioned checkpoint/restore for bit-identical continuation.

A checkpoint captures everything the trajectory depends on at a step
boundary, so a restored run replays the remaining steps **bit-for-bit**
identically to an uninterrupted one:

* the seven :class:`~repro.nbody.bodies.BodySoA` arrays -- positions,
  velocities, masses, accelerations, per-body costs (costzones feedback),
  and the ``store``/``assign`` affinity maps (insertion *order* in the
  tree-build phase follows ``assign``, so restoring them is load-bearing
  for bit-identity, not just for accounting);
* the integrator position in time (last completed step; the startup
  half-kick only happens at step 0, which a resumed run never re-enters);
* the fault injector's fired-set and RNG state, when injection is armed;
* the full :class:`~repro.core.config.BHConfig` and the variant /
  thread-count pair, so ``restore_simulation`` needs nothing but the
  file.

No tree state is saved: every backend builds its tree from scratch each
step over a root box derived from the restored positions, so the
restored run's trees replay the uninterrupted run's exactly.

Format: a single ``.npz`` (version tag ``repro-checkpoint/2``) holding
the body arrays plus a JSON header; writes are atomic (tmp + rename) so
a kill mid-write can never leave a truncated "latest" checkpoint.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import List, Optional

import numpy as np

#: on-disk format tag; bump on any incompatible layout change
CHECKPOINT_VERSION = "repro-checkpoint/2"

#: filename pattern -- sortable by step
_FILE_FMT = "ckpt_step{step:06d}.npz"


@dataclass
class Checkpoint:
    """In-memory form of one saved step boundary."""

    version: str
    step: int                 #: last *completed* step (resume at step+1)
    config: dict              #: BHConfig fields
    variant: str
    nthreads: int
    arrays: dict              #: name -> np.ndarray (BodySoA fields)
    injector_state: Optional[dict]

    @property
    def resume_step(self) -> int:
        return self.step + 1


_BODY_FIELDS = ("pos", "vel", "mass", "acc", "cost", "store", "assign")


def snapshot_simulation(sim, step: int) -> Checkpoint:
    """Build a :class:`Checkpoint` from a live simulation after ``step``."""
    bodies = sim.bodies
    arrays = {f: np.ascontiguousarray(getattr(bodies, f))
              for f in _BODY_FIELDS}
    manager = getattr(sim, "resilience", None)
    injector = getattr(manager, "injector", None) if manager else None
    return Checkpoint(
        version=CHECKPOINT_VERSION,
        step=int(step),
        config=asdict(sim.cfg),
        variant=sim.variant.name,
        nthreads=int(sim.rt.nthreads),
        arrays=arrays,
        injector_state=injector.state() if injector is not None else None,
    )


def save_checkpoint(path, ckpt: Checkpoint) -> Path:
    """Atomically write ``ckpt`` to ``path`` (npz + JSON header)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = {
        "version": ckpt.version,
        "step": ckpt.step,
        "config": ckpt.config,
        "variant": ckpt.variant,
        "nthreads": ckpt.nthreads,
        "injector_state": ckpt.injector_state,
    }
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        np.savez(fh, header=np.frombuffer(
            json.dumps(header).encode("utf-8"), dtype=np.uint8),
            **ckpt.arrays)
    os.replace(tmp, path)
    return path


def load_checkpoint(path) -> Checkpoint:
    """Read and validate a checkpoint file."""
    path = Path(path)
    with np.load(path) as data:
        if "header" not in data:
            raise ValueError(f"{path} is not a repro checkpoint "
                             f"(missing header)")
        header = json.loads(bytes(data["header"]).decode("utf-8"))
        version = header.get("version")
        if version != CHECKPOINT_VERSION:
            raise ValueError(
                f"{path}: unsupported checkpoint version {version!r} "
                f"(this build reads {CHECKPOINT_VERSION!r})")
        missing = [f for f in _BODY_FIELDS if f not in data]
        if missing:
            raise ValueError(f"{path}: missing body arrays {missing}")
        arrays = {f: np.array(data[f]) for f in _BODY_FIELDS}
    n = len(arrays["mass"])
    for f in _BODY_FIELDS:
        if len(arrays[f]) != n:
            raise ValueError(f"{path}: array {f!r} length "
                             f"{len(arrays[f])} != n={n}")
    return Checkpoint(
        version=version,
        step=int(header["step"]),
        config=header["config"],
        variant=header["variant"],
        nthreads=int(header["nthreads"]),
        arrays=arrays,
        injector_state=header.get("injector_state"),
    )


def restore_simulation(path, machine=None, tracer=None):
    """Rebuild a :class:`~repro.core.app.BarnesHutSimulation` positioned
    at the checkpoint's resume step; ``sim.run()`` then continues the
    trajectory bit-identically to an uninterrupted run.
    """
    from ..core.app import BarnesHutSimulation  # lazy: avoids cycle
    from ..core.config import BHConfig
    from ..nbody.bodies import BodySoA

    ckpt = path if isinstance(path, Checkpoint) else load_checkpoint(path)
    cfg_dict = dict(ckpt.config)
    if isinstance(cfg_dict.get("inject"), list):
        cfg_dict["inject"] = tuple(cfg_dict["inject"])
    cfg = BHConfig(**cfg_dict)
    a = ckpt.arrays
    bodies = BodySoA(
        pos=a["pos"].astype(np.float64, copy=True),
        vel=a["vel"].astype(np.float64, copy=True),
        mass=a["mass"].astype(np.float64, copy=True),
        acc=a["acc"].astype(np.float64, copy=True),
        cost=a["cost"].astype(np.float64, copy=True),
        store=a["store"].astype(np.int32, copy=True),
        assign=a["assign"].astype(np.int32, copy=True),
    )
    sim = BarnesHutSimulation(cfg, ckpt.nthreads, machine=machine,
                              variant=ckpt.variant, bodies=bodies,
                              tracer=tracer,
                              start_step=ckpt.resume_step)
    # the variant constructor re-derives block-distributed affinity maps;
    # the checkpointed ones are the trajectory-bearing truth
    sim.bodies.store[:] = a["store"]
    sim.bodies.assign[:] = a["assign"]
    manager = getattr(sim, "resilience", None)
    if manager is not None and manager.injector is not None \
            and ckpt.injector_state is not None:
        manager.injector.restore_state(ckpt.injector_state)
    return sim


class CheckpointManager:
    """Periodic checkpoint writer for one run directory."""

    def __init__(self, directory, every: int):
        if every < 1:
            raise ValueError("checkpoint interval must be >= 1")
        self.directory = Path(directory)
        self.every = int(every)
        self.saved: List[Path] = []

    def due(self, step: int) -> bool:
        """True when the step just completed ends a checkpoint interval."""
        return (step + 1) % self.every == 0

    def path_for(self, step: int) -> Path:
        return self.directory / _FILE_FMT.format(step=step)

    def save(self, sim, step: int) -> Path:
        path = save_checkpoint(self.path_for(step),
                               snapshot_simulation(sim, step))
        self.saved.append(path)
        return path


def latest_checkpoint(directory) -> Path:
    """Newest (highest-step) checkpoint file under ``directory``."""
    directory = Path(directory)
    candidates = sorted(directory.glob("ckpt_step*.npz"))
    if not candidates:
        raise FileNotFoundError(
            f"no checkpoint files (ckpt_step*.npz) under {directory}")
    return candidates[-1]
