"""Resilient stepping: injection matrix, checkpoint/restore, guards.

The heart of this file is the fault matrix: every phase crossed with
every injection kind must either *recover with exact force parity*
against an uninjected run (value-idempotent phases replay) or surface
one structured :class:`SimulationFault` with phase/step/cause -- never a
bare numpy error, never silent corruption.  The ``backend`` kind of the
deleted force-engine fallback ladder is refused at construction.  Plus:
the checkpoint -> kill -> restore roundtrip is bit-identical over 10
further steps, guards units, and config validation.
"""

import json

import numpy as np
import pytest

from repro import (
    BHConfig,
    BarnesHutSimulation,
    SimulationFault,
    SimulationKilled,
    restore_simulation,
)
from repro.core.phases import (
    ADVANCE,
    COFM,
    FORCE,
    IDEMPOTENT_PHASES,
    PARTITION,
    REDISTRIBUTION,
    TREEBUILD,
)
from repro.core.variants.registry import VARIANTS
from repro.nbody.distributions import distribution_names
from repro.resilience import (
    CHECKPOINT_VERSION,
    FaultInjector,
    HealthGuards,
    latest_checkpoint,
    load_checkpoint,
    parse_spec,
)
from repro.resilience.faults import (
    CAUSE_BAD_AFFINITY,
    CAUSE_ENERGY_DRIFT,
    CAUSE_ESCAPE,
    CAUSE_INJECTED,
    CAUSE_NON_FINITE,
)

THREADS = 2

BASE = dict(nbodies=128, nsteps=3, warmup_steps=1, seed=7)


def run_sim(variant="baseline", threads=THREADS, kill_at_step=None,
            **cfg_kw):
    cfg = BHConfig(**{**BASE, **cfg_kw})
    sim = BarnesHutSimulation(cfg, threads, variant=variant,
                              kill_at_step=kill_at_step)
    return sim, sim.run()


# --------------------------------------------------------------------- #
# satellite: config validation at construction                          #
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("field,value", [
    ("dt", 0.0), ("dt", -0.025),
    ("theta", -0.5), ("theta", 0.0),
    ("nbodies", 0), ("nbodies", -4),
    ("initial_rsize", 0.0),
    ("checkpoint_every", -1),
    ("guard_energy_window", 1),
    ("guard_energy_factor", 1.0),
    ("guard_escape_factor", 0.5),
    ("max_phase_retries", -1),
    ("n1", 0),
    ("distribution", "nope"),
    ("inject", ("force:1:nope",)),
    ("inject", ("notaphase",)),
    ("inject", ("force:-3",)),
    ("inject", ("force:1:backend",)),
])
def test_config_rejects_nonsense(field, value):
    with pytest.raises(ValueError):
        BHConfig(**{field: value})


def test_config_checkpoint_requires_dir():
    with pytest.raises(ValueError, match="checkpoint_dir"):
        BHConfig(checkpoint_every=5)
    BHConfig(checkpoint_every=5, checkpoint_dir="x")  # fine


def test_config_resilience_disabled_by_default():
    cfg = BHConfig()
    assert not cfg.resilience_enabled
    sim = BarnesHutSimulation(cfg.with_(nbodies=64, nsteps=1,
                                        warmup_steps=0), THREADS,
                              variant="baseline")
    # zero-overhead path: no manager
    assert sim.resilience is None
    assert sim.variant.resilience is None


# --------------------------------------------------------------------- #
# injection spec grammar                                                #
# --------------------------------------------------------------------- #
def test_parse_spec_grammar():
    s = parse_spec("force")
    assert (s.phase, s.step, s.kind) == (FORCE, 0, "raise")
    s = parse_spec("treebuild:3:corrupt")
    assert (s.phase, s.step, s.kind) == (TREEBUILD, 3, "corrupt")
    s = parse_spec("*:*:delay")
    assert s.step is None and s.matches(COFM, 7) and s.matches(FORCE, 0)
    assert not parse_spec("advance:2").matches(ADVANCE, 3)
    for bad in ("", "bogus", "force:x", "force:1:bogus", "force:-1",
                "force:1:backend"):
        with pytest.raises(ValueError):
            parse_spec(bad)


def test_injector_fires_once_and_state_roundtrips():
    inj = FaultInjector.from_specs(["force:1:corrupt"], seed=3)
    assert not inj.after_phase(FORCE, 0, None)  # wrong step: no match

    class Bodies:  # minimal BodySoA stand-in for the corruption model
        def __init__(self):
            self.acc = np.zeros((4, 3))
            self.pos = np.zeros((4, 3))

        def __len__(self):
            return 4

    class V:
        bodies = Bodies()

    v = V()
    assert inj.after_phase(FORCE, 1, v)          # fires
    assert np.isnan(v.bodies.acc).any()
    v.bodies.acc[:] = 0.0
    assert not inj.after_phase(FORCE, 1, v)      # one-shot: never refires
    # checkpointable state survives a JSON trip
    import json
    state = json.loads(json.dumps(inj.state()))
    inj2 = FaultInjector.from_specs(["force:1:corrupt"], seed=3)
    inj2.restore_state(state)
    assert not inj2.after_phase(FORCE, 1, v)     # remembered as fired


# --------------------------------------------------------------------- #
# health guards units                                                   #
# --------------------------------------------------------------------- #
def test_guards_detect_each_cause():
    g = HealthGuards(energy_window=2, energy_factor=2.0, escape_factor=2.0)
    bad = np.zeros((4, 3))
    bad[2, 1] = np.nan
    with pytest.raises(SimulationFault) as ei:
        g.check_finite(bad, "accelerations", FORCE, 5)
    assert ei.value.cause == CAUSE_NON_FINITE
    assert ei.value.phase == FORCE and ei.value.step == 5

    with pytest.raises(SimulationFault) as ei:
        g.check_affinity(np.array([0, 1, 9]), "assign", 4, PARTITION, 1)
    assert ei.value.cause == CAUSE_BAD_AFFINITY

    class Box:
        center = np.zeros(3)
        rsize = 1.0

    g.observe_box(Box())
    g.check_escape(np.ones((2, 3)), ADVANCE, 0)  # within 2 x rsize
    with pytest.raises(SimulationFault) as ei:
        g.check_escape(np.full((2, 3), 5.0), ADVANCE, 0)
    assert ei.value.cause == CAUSE_ESCAPE

    vel = np.ones((4, 3))
    mass = np.ones(4)
    g.check_energy(vel, mass, ADVANCE, 0)
    g.check_energy(vel, mass, ADVANCE, 1)
    with pytest.raises(SimulationFault) as ei:
        g.check_energy(vel * 10, mass, ADVANCE, 2)  # 100x the median KE
    assert ei.value.cause == CAUSE_ENERGY_DRIFT


def test_guards_ctor_validation():
    for kw in ({"energy_window": 1}, {"energy_factor": 1.0},
               {"escape_factor": 0.5}):
        with pytest.raises(ValueError):
            HealthGuards(**kw)


# --------------------------------------------------------------------- #
# the fault matrix                                                      #
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def uninjected():
    _, res = run_sim()
    return res


#: expected outcome per (phase, kind); "exact" = recovers bit-identical,
#: "refused" = the spec is rejected when the config is built (the
#: ``backend`` kind went with the force-engine fallback ladder),
#: otherwise the structured fault cause that must surface
MATRIX = {
    (TREEBUILD, "raise"): "exact", (TREEBUILD, "corrupt"): "exact",
    (TREEBUILD, "delay"): "exact", (TREEBUILD, "backend"): "refused",
    (COFM, "raise"): "exact", (COFM, "corrupt"): "exact",
    (COFM, "delay"): "exact", (COFM, "backend"): "refused",
    (PARTITION, "raise"): "exact", (PARTITION, "corrupt"): "exact",
    (PARTITION, "delay"): "exact", (PARTITION, "backend"): "refused",
    (FORCE, "raise"): "exact", (FORCE, "corrupt"): "exact",
    (FORCE, "delay"): "exact", (FORCE, "backend"): "refused",
    (ADVANCE, "raise"): "exact", (ADVANCE, "corrupt"): CAUSE_NON_FINITE,
    (ADVANCE, "delay"): "exact", (ADVANCE, "backend"): "refused",
}


@pytest.mark.parametrize("phase,kind", sorted(MATRIX))
def test_fault_matrix(phase, kind, uninjected):
    expected = MATRIX[(phase, kind)]
    spec = f"{phase}:1:{kind}"
    if expected == "refused":
        with pytest.raises(ValueError, match="unknown kind 'backend'"):
            run_sim(guards=True, inject=(spec,))
    elif expected == "exact":
        sim, res = run_sim(guards=True, inject=(spec,))
        counts = sim.resilience.counts
        assert np.array_equal(res.bodies.pos, uninjected.bodies.pos)
        assert np.array_equal(res.bodies.vel, uninjected.bodies.vel)
        if kind != "delay":  # a delay is absorbed without mediation
            assert counts.get(("phase_retries", phase), 0) >= 1
    else:
        with pytest.raises(SimulationFault) as ei:
            run_sim(guards=True, inject=(spec,))
        assert ei.value.cause == expected
        assert ei.value.phase == phase
        assert ei.value.step == 1


def test_fault_matrix_redistribution():
    _, ref = run_sim(variant="redistribute")
    for kind, expected in [("raise", "exact"), ("delay", "exact"),
                           ("corrupt", CAUSE_BAD_AFFINITY),
                           ("backend", "refused")]:
        spec = (f"{REDISTRIBUTION}:1:{kind}",)
        if expected == "refused":
            with pytest.raises(ValueError, match="unknown kind"):
                run_sim(variant="redistribute", guards=True, inject=spec)
        elif expected == "exact":
            _, res = run_sim(variant="redistribute", guards=True,
                             inject=spec)
            assert np.array_equal(res.bodies.pos, ref.bodies.pos)
        else:
            with pytest.raises(SimulationFault) as ei:
                run_sim(variant="redistribute", guards=True, inject=spec)
            assert ei.value.cause == expected
            assert ei.value.phase == REDISTRIBUTION


@pytest.mark.parametrize("variant", ["baseline", "subspace"])
def test_treebuild_corruption_damages_the_steps_tree_once(variant):
    # the subspace split, the step's first treebuild phase, releases the
    # previous tree and leaves none: the corruption waits for the
    # subforest build, and the guards and one retry absorb it
    kw = dict(nbodies=256, nsteps=4, threads=4)
    _, clean = run_sim(variant, **kw)
    sim, res = run_sim(variant, guards=True,
                       inject=("treebuild:2:corrupt",), **kw)
    assert np.array_equal(res.bodies.pos, clean.bodies.pos)
    assert np.array_equal(res.bodies.vel, clean.bodies.vel)
    assert sim.resilience.counts == {
        ("injected_corruptions", TREEBUILD): 1,
        ("faults", CAUSE_NON_FINITE): 1,
        ("phase_retries", TREEBUILD): 1,
    }


def test_retry_exhaustion_surfaces_structured_fault():
    # a fault on *every* step exceeds max_phase_retries=0 immediately
    with pytest.raises(SimulationFault) as ei:
        run_sim(inject=("force:1:raise",), max_phase_retries=0)
    assert ei.value.cause == CAUSE_INJECTED
    assert ei.value.phase == FORCE


def test_resilience_counters_reach_metrics():
    sim, res = run_sim(guards=True, inject=("force:1:corrupt",))
    assert res.metric("resilience_phase_retries_total", key=FORCE) == 1
    assert res.metric("resilience_faults_total",
                      key=CAUSE_NON_FINITE) == 1


# --------------------------------------------------------------------- #
# checkpoint -> kill -> restore                                         #
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", ["flat", "object-tree"])
def test_kill_restore_bit_identical(tmp_path, backend, paper_path_15):
    # 15 steps; killed after 7 with checkpoints every 5 -> restore from
    # step 4 and replay 10 further steps bit-identically.  force_backend
    # is read by no variant: a non-default name replays the paper path
    # (tests/test_golden_sim.py runs every name against the golden rows)
    kw = dict(nsteps=15, force_backend=backend)
    _, ref = run_sim(**kw)
    assert np.array_equal(ref.bodies.pos, paper_path_15.bodies.pos)
    ck = tmp_path / "ck"
    with pytest.raises(SimulationKilled):
        run_sim(checkpoint_every=5, checkpoint_dir=str(ck),
                kill_at_step=7, **kw)
    path = latest_checkpoint(ck)
    assert path.name == "ckpt_step000004.npz"
    sim = restore_simulation(path)
    assert sim.start_step == 5
    res = sim.run()
    assert np.array_equal(res.bodies.pos, ref.bodies.pos)
    assert np.array_equal(res.bodies.vel, ref.bodies.vel)


@pytest.fixture(scope="module")
def paper_path_15():
    _, res = run_sim(nsteps=15)
    return res


def _kill_restore_matches(tmp_path, **kw):
    _, ref = run_sim(**kw)
    ck = tmp_path / "ck"
    with pytest.raises(SimulationKilled):
        run_sim(checkpoint_every=2, checkpoint_dir=str(ck),
                kill_at_step=4, **kw)
    sim = restore_simulation(latest_checkpoint(ck))
    assert sim.start_step == 4
    res = sim.run()
    assert np.array_equal(res.bodies.pos, ref.bodies.pos)
    assert np.array_equal(res.bodies.vel, ref.bodies.vel)


@pytest.mark.parametrize("dist", distribution_names())
def test_kill_restore_bit_identical_every_distribution(tmp_path, dist):
    # no tree state is checkpointed: the fresh Morton build over the
    # restored positions must replay the uninterrupted run exactly
    _kill_restore_matches(tmp_path, nsteps=8, distribution=dist)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_kill_restore_bit_identical_every_variant(tmp_path, variant):
    _kill_restore_matches(tmp_path, nsteps=8, variant=variant)


def test_restore_preserves_pending_injections(tmp_path):
    # a fault armed for a step *after* the kill point must still fire
    # (and recover) in the restored run, with identical placement
    kw = dict(nsteps=12, guards=True, inject=("force:9:corrupt",))
    _, ref = run_sim(**kw)
    ck = tmp_path / "ck"
    with pytest.raises(SimulationKilled):
        run_sim(checkpoint_every=3, checkpoint_dir=str(ck),
                kill_at_step=6, **kw)
    sim = restore_simulation(latest_checkpoint(ck))
    res = sim.run()
    assert sim.resilience.counts.get(("phase_retries", FORCE)) == 1
    assert np.array_equal(res.bodies.pos, ref.bodies.pos)


def test_checkpoint_format_versioned(tmp_path):
    ck = tmp_path / "ck"
    with pytest.raises(SimulationKilled):
        run_sim(checkpoint_every=2, checkpoint_dir=str(ck),
                kill_at_step=1)
    path = latest_checkpoint(ck)
    ckpt = load_checkpoint(path)
    assert ckpt.version == CHECKPOINT_VERSION
    assert ckpt.step == 1 and ckpt.resume_step == 2
    assert set(ckpt.arrays) == {"pos", "vel", "mass", "acc", "cost",
                                "store", "assign"}
    # a foreign npz is rejected, not misread
    bogus = tmp_path / "bogus.npz"
    np.savez(bogus, pos=np.zeros((3, 3)))
    with pytest.raises(ValueError, match="header"):
        load_checkpoint(bogus)


def test_v1_checkpoint_is_refused(tmp_path):
    # a v1 header still carries the removed flat_box field and BHConfig
    # fields; the version check must reject it before BHConfig(**config)
    ck = tmp_path / "ck"
    with pytest.raises(SimulationKilled):
        run_sim(checkpoint_every=2, checkpoint_dir=str(ck),
                kill_at_step=1)
    path = latest_checkpoint(ck)
    with np.load(path) as data:
        arrays = {k: np.array(data[k]) for k in data.files}
    header = json.loads(bytes(arrays.pop("header")).decode("utf-8"))
    header["version"] = "repro-checkpoint/1"
    header["flat_box"] = {"center": [0.0, 0.0, 0.0], "rsize": 4.0}
    header["config"]["flat_reuse_depth"] = 21
    old = tmp_path / "v1.npz"
    np.savez(old, header=np.frombuffer(json.dumps(header).encode("utf-8"),
                                       dtype=np.uint8), **arrays)
    with pytest.raises(ValueError, match="unsupported checkpoint version"):
        load_checkpoint(old)
    with pytest.raises(ValueError, match="repro-checkpoint/3"):
        restore_simulation(old)


def test_v2_checkpoint_is_refused(tmp_path):
    # a v2 header carries the removed flat_build, kernel_threads and
    # max_backend_fallbacks fields, on which BHConfig(**config) would die
    # with a TypeError; the version check must refuse it first
    ck = tmp_path / "ck"
    with pytest.raises(SimulationKilled):
        run_sim(checkpoint_every=2, checkpoint_dir=str(ck),
                kill_at_step=1)
    path = latest_checkpoint(ck)
    with np.load(path) as data:
        arrays = {k: np.array(data[k]) for k in data.files}
    header = json.loads(bytes(arrays.pop("header")).decode("utf-8"))
    assert header["version"] == "repro-checkpoint/3"
    header["version"] = "repro-checkpoint/2"
    header["config"].update(force_backend="flat", flat_build="morton",
                            kernel_threads=0, max_backend_fallbacks=3)
    old = tmp_path / "v2.npz"
    np.savez(old, header=np.frombuffer(json.dumps(header).encode("utf-8"),
                                       dtype=np.uint8), **arrays)
    with pytest.raises(ValueError, match="unsupported checkpoint version"):
        load_checkpoint(old)
    with pytest.raises(ValueError, match="repro-checkpoint/3"):
        restore_simulation(old)


def test_latest_checkpoint_empty_dir(tmp_path):
    with pytest.raises(FileNotFoundError):
        latest_checkpoint(tmp_path)


# --------------------------------------------------------------------- #
# idempotence contract                                                  #
# --------------------------------------------------------------------- #
def test_idempotent_phases_exclude_in_place_mutators():
    assert ADVANCE not in IDEMPOTENT_PHASES
    assert REDISTRIBUTION not in IDEMPOTENT_PHASES
    for p in (TREEBUILD, COFM, PARTITION, FORCE):
        assert p in IDEMPOTENT_PHASES


# --------------------------------------------------------------------- #
# CLI roundtrip                                                         #
# --------------------------------------------------------------------- #
def test_cli_kill_restore_compare_roundtrip(tmp_path):
    from repro.resilience.cli import EXIT_KILLED, main

    common = ["--nbodies", "96", "--steps", "8", "--threads", "2"]
    rc = main(["run", *common, "--checkpoint-every", "3",
               "--checkpoint-dir", str(tmp_path / "ck"),
               "--kill-at-step", "5"])
    assert rc == EXIT_KILLED
    rc = main(["restore", "--from", str(tmp_path / "ck"),
               "--out-state", str(tmp_path / "resumed.npz")])
    assert rc == 0
    rc = main(["run", *common, "--out-state",
               str(tmp_path / "full.npz")])
    assert rc == 0
    rc = main(["compare", str(tmp_path / "resumed.npz"),
               str(tmp_path / "full.npz")])
    assert rc == 0
    # a genuinely different run must NOT compare clean
    rc = main(["run", *common[:2], "--steps", "9", "--threads", "2",
               "--out-state", str(tmp_path / "other.npz")])
    assert rc == 0
    rc = main(["compare", str(tmp_path / "full.npz"),
               str(tmp_path / "other.npz")])
    assert rc == 1


def test_cli_injected_fault_recovery(tmp_path):
    from repro.resilience.cli import main

    rc = main(["run", "--nbodies", "96", "--steps", "4", "--threads",
               "2", "--guards", "--inject", "force:1:corrupt",
               "--out-state", str(tmp_path / "a.npz")])
    assert rc == 0
    rc = main(["run", "--nbodies", "96", "--steps", "4", "--threads",
               "2", "--out-state", str(tmp_path / "b.npz")])
    assert rc == 0
    rc = main(["compare", str(tmp_path / "a.npz"),
               str(tmp_path / "b.npz")])
    assert rc == 0  # recovery restored exact parity
