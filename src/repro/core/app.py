"""The Barnes-Hut application driver: configuration in, results out."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Type, Union

from ..nbody.bodies import BodySoA
from ..nbody.distributions import make_distribution
from ..obs import (
    MetricsRegistry,
    RunTelemetry,
    collect_run_metrics,
    collect_span_metrics,
    get_registry,
    get_tracer,
)
from ..upc.params import MachineConfig
from ..upc.runtime import UpcRuntime
from ..upc.stats import StatsLog
from .config import BHConfig
from .phases import PhaseTimes
from .variants.base import VariantBase
from .variants.registry import get_variant


@dataclass
class RunResult:
    """Outcome of one simulated run."""

    config: BHConfig
    variant: str
    nthreads: int
    machine: MachineConfig
    phase_times: PhaseTimes
    log: StatsLog
    bodies: BodySoA
    #: per-step migration fractions, merge imbalance data, etc.
    variant_stats: dict = field(default_factory=dict)
    #: unified metrics registry + this run's spans (see :mod:`repro.obs`)
    telemetry: Optional[RunTelemetry] = None

    @property
    def total_time(self) -> float:
        return self.phase_times.total

    def counter(self, key: str, phase: Optional[str] = None) -> float:
        return self.log.counter_total(key, phase)

    def metric(self, name: str, **labels) -> float:
        """Convenience lookup into ``telemetry.metrics``."""
        if self.telemetry is None:
            return 0.0
        return self.telemetry.metrics.value(name, **labels)


def make_bodies(cfg: BHConfig) -> BodySoA:
    """Initial conditions per the configured distribution (registry
    dispatch; BHConfig validated the name against the same registry)."""
    return make_distribution(cfg.distribution, cfg.nbodies, seed=cfg.seed)


class BarnesHutSimulation:
    """Drives one variant over the configured time-steps."""

    def __init__(self, cfg: BHConfig, nthreads: int,
                 machine: Optional[MachineConfig] = None,
                 variant: Union[str, Type[VariantBase]] = "subspace",
                 bodies: Optional[BodySoA] = None,
                 tracer=None, start_step: int = 0,
                 kill_at_step: Optional[int] = None):
        self.cfg = cfg
        self.machine = machine if machine is not None else MachineConfig()
        self.tracer = tracer if tracer is not None else get_tracer()
        self.rt = UpcRuntime(nthreads, self.machine, tracer=self.tracer)
        self.bodies = bodies.copy() if bodies is not None else make_bodies(cfg)
        vcls = get_variant(variant) if isinstance(variant, str) else variant
        self.variant = vcls(self.rt, self.bodies, cfg)
        #: first step to execute (checkpoint restore resumes mid-run)
        self.start_step = int(start_step)
        #: resilience mediation (None with the default config: the step
        #: loop then takes its original unmediated path)
        self.resilience = None
        if kill_at_step is not None or cfg.resilience_enabled:
            from ..resilience.policy import ResilienceManager

            self.resilience = ResilienceManager(cfg, tracer=self.tracer,
                                                kill_at_step=kill_at_step)
            self.variant.resilience = self.resilience

    def run(self) -> RunResult:
        """Run all steps; phase times cover only the measured steps."""
        cfg = self.cfg
        tr = self.tracer
        span0 = len(tr.spans) if tr.enabled else 0
        with tr.span("run", "run", variant=self.variant.name,
                     nthreads=self.rt.nthreads, nbodies=cfg.nbodies):
            for step in range(self.start_step, cfg.nsteps):
                with tr.span("step", "step", step=step):
                    self.variant.step(step)
                if self.resilience is not None:
                    self.resilience.after_step(self, step)
        measured = list(range(cfg.warmup_steps, cfg.nsteps))
        pt = PhaseTimes.from_log(self.rt.log, measured)
        stats = {
            "force_engine": self.variant.force_engine,
            "treebuild_engine": self.variant.treebuild_engine,
            "cofm_engine": self.variant.cofm_engine,
            "rows_engine": self.variant.rows_engine,
            "insert_engine": self.variant.insert_engine,
            "treebuild_locks": self.variant.treebuild_locks(),
            "migration_fractions": list(self.variant.migration_fractions),
            "treebuild_subphases": list(self.variant.treebuild_subphases),
        }
        if getattr(self.variant, "async_engine", None) is not None:
            stats["gather_source_fractions"] = \
                self.variant.gather_source_fractions()
            stats["frontier"] = dict(self.variant.frontier_totals)
        if hasattr(self.variant, "subspace_counts"):
            stats["subspace_counts"] = list(self.variant.subspace_counts)
            stats["level_counts"] = list(self.variant.level_counts)
        if self.resilience is not None:
            stats["resilience"] = self.resilience.summary()
        telemetry = self._collect_telemetry(stats, span0)
        return RunResult(
            config=cfg,
            variant=self.variant.name,
            nthreads=self.rt.nthreads,
            machine=self.machine,
            phase_times=pt,
            log=self.rt.log,
            bodies=self.bodies,
            variant_stats=stats,
            telemetry=telemetry,
        )

    def _collect_telemetry(self, stats: dict, span0: int) -> RunTelemetry:
        """Fold this run's StatsLog (and spans, when traced) into a fresh
        registry; mirror into the ambient session registry if one is
        installed (the CLI's ``--metrics`` sink)."""
        spans = list(self.tracer.spans[span0:]) if self.tracer.enabled \
            else []
        registry = MetricsRegistry()
        collect_run_metrics(registry, self.rt.log, stats,
                            nthreads=self.rt.nthreads)
        if spans:
            collect_span_metrics(registry, spans)
        ambient = get_registry()
        if ambient is not None and ambient is not registry:
            collect_run_metrics(ambient, self.rt.log, stats,
                                nthreads=self.rt.nthreads)
        return RunTelemetry(metrics=registry, spans=spans)


def run_variant(variant: Union[str, Type[VariantBase]], cfg: BHConfig,
                nthreads: int, machine: Optional[MachineConfig] = None,
                bodies: Optional[BodySoA] = None,
                tracer=None) -> RunResult:
    """Convenience one-call runner (the main public entry point)."""
    sim = BarnesHutSimulation(cfg, nthreads, machine=machine,
                              variant=variant, bodies=bodies, tracer=tracer)
    return sim.run()
