"""Collectives: synchronization semantics and cost counters."""

import numpy as np
import pytest

from repro.upc.collectives import (
    allreduce_scalar,
    allreduce_vector,
    alltoallv,
    barrier_all,
    broadcast,
)
from repro.upc.params import MachineConfig
from repro.upc.runtime import UpcRuntime


@pytest.fixture()
def rt():
    return UpcRuntime(4, MachineConfig())


def _one_sender(machine, nthreads, row0):
    """(phase duration, NIC total) of an all-to-all where only thread 0
    sends, ``row0[j]`` bytes to each thread ``j``."""
    rt = UpcRuntime(nthreads, machine)
    matrix = np.zeros((nthreads, nthreads))
    matrix[0] = row0
    with rt.phase("p"):
        alltoallv(rt, matrix)
    rec = rt.log.records[-1]
    return rec.duration, float(rec.nic_times.sum())


PROCESS = MachineConfig(threads_per_node=1, mode="process")
PTHREAD = MachineConfig(threads_per_node=4, mode="pthread")


class TestSynchronization:
    def test_collective_aligns_clocks(self, rt):
        with rt.phase("p"):
            rt.charge(2, 1.0)
            allreduce_scalar(rt)
            assert np.all(rt.clock == rt.clock[0])
            assert rt.clock[0] > 1.0

    def test_barrier_all_counts(self, rt):
        with rt.phase("p"):
            barrier_all(rt)
            barrier_all(rt)
        assert rt.log.records[-1].counters.total("barriers") == 2

    def test_broadcast_counts(self, rt):
        with rt.phase("p"):
            broadcast(rt, 64)
        assert rt.log.records[-1].counters.total("broadcasts") == 1


class TestReductions:
    def test_vector_reduction_counted_once(self, rt):
        """One vector reduction per level (figure 11's mechanism)."""
        with rt.phase("p"):
            allreduce_vector(rt, 512)
        c = rt.log.records[-1].counters
        assert c.total("vector_reductions") == 1
        assert c.total("scalar_reductions") == 0

    def test_scalar_reductions_add_up(self, rt):
        with rt.phase("p"):
            t0 = rt.now
            for _ in range(32):
                allreduce_scalar(rt)
            t_scalar = rt.now - t0
        with rt.phase("q"):
            t0 = rt.now
            allreduce_vector(rt, 32)
            t_vec = rt.now - t0
        assert rt.log.records[-2].counters.total("scalar_reductions") == 32
        assert t_vec < t_scalar / 5

    def test_vector_cost_grows_mildly_with_length(self, rt):
        with rt.phase("p"):
            t0 = rt.now
            allreduce_vector(rt, 8)
            t_small = rt.now - t0
            t0 = rt.now
            allreduce_vector(rt, 4096)
            t_big = rt.now - t0
        assert t_small < t_big < 50 * t_small


class TestAllToAll:
    def test_shape_validated(self, rt):
        with rt.phase("p"):
            with pytest.raises(ValueError):
                alltoallv(rt, np.zeros((3, 3)))

    def test_bytes_counted(self, rt):
        m = np.zeros((4, 4))
        m[0, 1] = 1000.0
        m[2, 3] = 500.0
        with rt.phase("p"):
            alltoallv(rt, m)
        assert rt.log.records[-1].counters.total("alltoall_bytes") == 1500.0

    def test_diagonal_free(self, rt):
        m = np.zeros((4, 4))
        np.fill_diagonal(m, 1e9)
        with rt.phase("p"):
            t0 = rt.now
            alltoallv(rt, m)
            dur = rt.now - t0
        # only collective overhead, no transfer time
        assert dur < 1e-3

    def test_heavier_matrix_costs_more(self, rt):
        m1 = np.full((4, 4), 100.0)
        m2 = np.full((4, 4), 1e6)
        with rt.phase("a"):
            alltoallv(rt, m1)
        with rt.phase("b"):
            alltoallv(rt, m2)
        a, b = rt.log.records[-2].duration, rt.log.records[-1].duration
        assert b > a

    def test_intranode_pthread_cheap(self):
        rt = UpcRuntime(4, MachineConfig(threads_per_node=4, mode="pthread"))
        m = np.full((4, 4), 10_000.0)
        np.fill_diagonal(m, 0.0)
        with rt.phase("p"):
            alltoallv(rt, m)
        assert rt.log.records[-1].nic_times.sum() == 0.0

    def test_skips_self_and_zero(self):
        alone = _one_sender(PROCESS, 4, [100.0, 0.0, 0.0, 0.0])
        assert alone == _one_sender(PROCESS, 4, [0.0] * 4)
        assert alone[1] == 0.0

    def test_charges_per_peer(self):
        one = _one_sender(PROCESS, 4, [0.0, 100.0, 0.0, 0.0])
        three = _one_sender(PROCESS, 4, [0.0, 100.0, 100.0, 100.0])
        assert three[0] > one[0]
        assert three[1] > one[1]

    def test_pthread_same_node_peer_is_nicless(self):
        near = _one_sender(PTHREAD, 8, [0, 100.0, 0, 0, 0, 0, 0, 0])
        far = _one_sender(PTHREAD, 8, [0, 0, 0, 0, 100.0, 0, 0, 0])
        assert near[1] == 0.0 < far[1]
