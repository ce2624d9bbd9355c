"""One measurement in a fresh interpreter; prints one JSON object.

    python bench/worker.py setup  WORKLOAD SEED [--smoke]
    python bench/worker.py pass   WORKLOAD SEED [--smoke]
    python bench/worker.py traced WORKLOAD SEED [--smoke] --trace-out F

``setup`` times the import of ``repro``, the (warm-cache) kernel load,
body generation and simulation construction.  ``pass`` runs one untraced
pass and reports its wall time, outputs, the process's peak RSS and the
independent step-0 interaction count.  ``traced`` runs one pass under
:class:`layers.LayerTracer` and writes its Chrome trace to ``F``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS, independent_step0, make_bodies, run_pass  # noqa: E402


def _workload(args):
    w = WORKLOADS[args.workload]
    return w.smoke() if args.smoke else w


def cmd_setup(args) -> dict:
    w = _workload(args)
    t0 = time.perf_counter()
    from repro import BarnesHutSimulation
    from repro.kernels import load_kernel
    from repro.upc.params import paper_section5_machine

    from workloads import config

    load_kernel()
    bodies = make_bodies(w, args.seed)
    BarnesHutSimulation(config(w, args.seed), w.threads[0],
                        machine=paper_section5_machine(), variant=w.variant,
                        bodies=bodies)
    return {"setup_s": time.perf_counter() - t0}


def cmd_pass(args) -> dict:
    w = _workload(args)
    bodies = make_bodies(w, args.seed)
    wall, out = run_pass(w, args.seed, bodies)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"wall": wall, "outputs": out, "peak_rss_mb": peak_rss_mb,
            "independent_step0": independent_step0(w, args.seed, bodies)}


def cmd_traced(args) -> dict:
    from layers import LayerTracer

    w = _workload(args)
    bodies = make_bodies(w, args.seed)
    with LayerTracer() as lt:
        wall, out = run_pass(w, args.seed, bodies, on_run=lt.run)
    summary = lt.summary(wall)
    from repro.obs.export import load_and_validate_chrome_trace

    lt.write_chrome_trace(args.trace_out)
    summary["trace_events"] = load_and_validate_chrome_trace(args.trace_out)
    return {"wall": wall, "outputs": out, "trace": summary}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("command", choices=("setup", "pass", "traced"))
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("seed", type=int)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--trace-out", default="")
    args = ap.parse_args(argv)
    if args.command == "traced" and not args.trace_out:
        ap.error("traced needs --trace-out")
    cmd = {"setup": cmd_setup, "pass": cmd_pass,
           "traced": cmd_traced}[args.command]
    print(json.dumps(cmd(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
