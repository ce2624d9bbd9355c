"""Kill-and-resume harness CLI (``repro-resilient``).

Three subcommands cover the checkpoint/restore lifecycle end to end::

    # run 20 steps, checkpoint every 5, crash deliberately after step 12
    repro-resilient run --nbodies 512 --steps 20 \\
        --checkpoint-every 5 --checkpoint-dir ckpts --kill-at-step 12
    # -> exit code 3 (killed), ckpts/ holds ckpt_step000004.npz ... 009

    # resume from the newest checkpoint and finish the remaining steps
    repro-resilient restore --from ckpts --out-state resumed.npz

    # the reference: the same run, uninterrupted
    repro-resilient run --nbodies 512 --steps 20 \\
        --checkpoint-every 5 --checkpoint-dir ckpts2 --out-state full.npz

    # bit-identical?  exit 0 iff positions AND velocities match exactly
    repro-resilient compare resumed.npz full.npz

``--out-state`` captures the final positions/velocities as an ``.npz``;
``compare`` demands exact float equality -- restore correctness here
means *bit-identical* continuation, not "close".  A deliberate kill
exits with code 3 so scripts (and the CI smoke job) can tell "crashed as
requested" from real failures.

``run`` also accepts ``--guards`` and repeatable ``--inject SPEC``
directives, making it the one-stop entry point for exercising the whole
resilience subsystem from a shell.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

import numpy as np

#: exit code of a run terminated by --kill-at-step (distinguishes the
#: deliberate crash from genuine failures in scripts/CI)
EXIT_KILLED = 3


def _save_state(path: str, bodies, nsteps: int) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, pos=bodies.pos, vel=bodies.vel, steps=int(nsteps))
    print(f"wrote final state to {path}")


def _cmd_run(args) -> int:
    from ..core.app import BarnesHutSimulation
    from ..core.config import BHConfig
    from .faults import SimulationFault, SimulationKilled

    cfg = BHConfig(
        nbodies=args.nbodies, nsteps=args.steps,
        warmup_steps=min(args.warmup, args.steps - 1),
        seed=args.seed, distribution=args.distribution,
        force_backend=args.backend,
        checkpoint_every=args.checkpoint_every,
        checkpoint_dir=args.checkpoint_dir,
        guards=args.guards, inject=tuple(args.inject),
    )
    sim = BarnesHutSimulation(cfg, args.threads, variant=args.variant,
                              kill_at_step=args.kill_at_step)
    try:
        sim.run()
    except SimulationKilled as exc:
        print(f"killed as requested: {exc}")
        return EXIT_KILLED
    except SimulationFault as exc:
        print(f"unrecovered fault: {exc}", file=sys.stderr)
        return 1
    if args.out_state:
        _save_state(args.out_state, sim.bodies, cfg.nsteps)
    summary = sim.resilience.summary() if sim.resilience else {}
    if summary:
        print(f"resilience counters: {summary}")
    return 0


def _cmd_restore(args) -> int:
    from .checkpoint import latest_checkpoint, restore_simulation
    from .faults import SimulationFault

    path = Path(args.checkpoint) if args.checkpoint \
        else latest_checkpoint(args.from_dir)
    sim = restore_simulation(path)
    print(f"restored {path}; resuming at step {sim.start_step} "
          f"of {sim.cfg.nsteps}")
    try:
        sim.run()
    except SimulationFault as exc:
        print(f"unrecovered fault: {exc}", file=sys.stderr)
        return 1
    if args.out_state:
        _save_state(args.out_state, sim.bodies, sim.cfg.nsteps)
    return 0


def _cmd_compare(args) -> int:
    with np.load(args.state_a) as a, np.load(args.state_b) as b:
        pos_a, vel_a = a["pos"], a["vel"]
        pos_b, vel_b = b["pos"], b["vel"]
    if pos_a.shape != pos_b.shape:
        print(f"MISMATCH: shapes differ ({pos_a.shape} vs {pos_b.shape})")
        return 1
    if np.array_equal(pos_a, pos_b) and np.array_equal(vel_a, vel_b):
        print(f"bit-identical: {args.state_a} == {args.state_b} "
              f"({len(pos_a)} bodies)")
        return 0
    dpos = float(np.abs(pos_a - pos_b).max())
    dvel = float(np.abs(vel_a - vel_b).max())
    print(f"MISMATCH: max |dpos|={dpos:.3e} max |dvel|={dvel:.3e}")
    return 1


def main(argv: "Optional[List[str]]" = None) -> int:
    ap = argparse.ArgumentParser(
        prog="repro-resilient",
        description="Checkpoint / kill / restore harness for resilient "
                    "stepping (see docs/resilience.md).")
    sub = ap.add_subparsers(dest="cmd", required=True)

    run = sub.add_parser("run", help="run a simulation with resilience "
                                     "features armed")
    run.add_argument("--nbodies", type=int, default=512)
    run.add_argument("--steps", type=int, default=20)
    run.add_argument("--warmup", type=int, default=1)
    run.add_argument("--seed", type=int, default=123)
    run.add_argument("--threads", type=int, default=4)
    run.add_argument("--variant", default="baseline")
    run.add_argument("--distribution", default="plummer")
    run.add_argument("--backend", default="flat",
                     help="force backend (default: flat)")
    run.add_argument("--checkpoint-every", type=int, default=0,
                     metavar="N")
    run.add_argument("--checkpoint-dir", default=None, metavar="DIR")
    run.add_argument("--kill-at-step", type=int, default=None,
                     metavar="K",
                     help="abort deliberately after step K completes "
                          "(exit code 3)")
    run.add_argument("--guards", action="store_true")
    run.add_argument("--inject", action="append", default=[],
                     metavar="SPEC",
                     help="PHASE[:STEP[:KIND]], repeatable")
    run.add_argument("--out-state", default=None, metavar="FILE",
                     help="write final positions/velocities as .npz")
    run.set_defaults(fn=_cmd_run)

    restore = sub.add_parser("restore",
                             help="resume from a checkpoint and finish "
                                  "the run")
    restore.add_argument("--from", dest="from_dir", default=None,
                         metavar="DIR",
                         help="checkpoint directory (newest file wins)")
    restore.add_argument("--checkpoint", default=None, metavar="FILE",
                         help="a specific ckpt_step*.npz (overrides "
                              "--from)")
    restore.add_argument("--out-state", default=None, metavar="FILE")
    restore.set_defaults(fn=_cmd_restore)

    cmp_ = sub.add_parser("compare",
                          help="exit 0 iff two --out-state files are "
                               "bit-identical")
    cmp_.add_argument("state_a")
    cmp_.add_argument("state_b")
    cmp_.set_defaults(fn=_cmd_compare)

    args = ap.parse_args(argv)
    if args.cmd == "restore" and not (args.from_dir or args.checkpoint):
        ap.error("restore needs --from DIR or --checkpoint FILE")
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
