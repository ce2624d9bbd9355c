#!/usr/bin/env python
"""Quickstart: simulate a Plummer sphere with the fully optimized UPC
Barnes-Hut code on a simulated 16-node cluster, and inspect both the
physics and the simulated phase times.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import BHConfig, run_variant
from repro.nbody import energy_report, plummer


def main() -> None:
    cfg = BHConfig(
        nbodies=2048,   # paper: 2M (scaled down, as experiments.common.Scale)
        theta=1.0,      # SPLASH-2 default opening parameter
        dt=0.025,       # SPLASH-2 default time-step
        nsteps=4,       # paper protocol: 4 steps...
        warmup_steps=2,  # ...measure the last 2
        seed=42,
    )

    print(f"Simulating {cfg.nbodies} bodies for {cfg.nsteps} steps "
          f"on 16 simulated UPC threads (variant: subspace = all paper "
          "optimizations)\n")

    initial = plummer(cfg.nbodies, seed=cfg.seed)
    e0 = energy_report(initial, cfg.eps)

    result = run_variant("subspace", cfg, nthreads=16)

    e1 = energy_report(result.bodies, cfg.eps)
    print("physics")
    print(f"  initial energy   {e0.total:+.5f}  (Henon units: -1/4)")
    print(f"  final energy     {e1.total:+.5f}")
    print(f"  relative drift   {abs(e1.total - e0.total) / abs(e0.total):.2e}")
    print(f"  virial ratio     {e1.virial_ratio:.3f}")

    print("\nsimulated phase times (last 2 steps, seconds)")
    for label, seconds, pct in result.phase_times.as_rows():
        print(f"  {label:<15s} {seconds:10.6f}  ({pct:5.1f}%)")
    print(f"  {'Total':<15s} {result.total_time:10.6f}")

    print("\ncommunication counters (measured, not modeled)")
    for key in ("async_gathers", "body_exchange", "vector_reductions",
                "subtree_hooks"):
        print(f"  {key:<20s} {result.counter(key):.0f}")
    print("\nmigration fraction per step:",
          [f"{100 * f:.1f}%" for f in
           result.variant_stats["migration_fractions"]])


if __name__ == "__main__":
    main()
