"""CostModel: per-operation costs under the different placements/modes."""

import pytest

from repro.upc.costmodel import CostModel
from repro.upc.params import MachineConfig


@pytest.fixture()
def cm():
    return CostModel(MachineConfig(threads_per_node=1, mode="process"))


@pytest.fixture()
def cm_pth():
    return CostModel(MachineConfig(threads_per_node=4, mode="pthread"))


class TestCompute:
    def test_compute_identity_in_process_mode(self, cm):
        assert cm.compute(1.0) == 1.0

    def test_pthread_factor_applies(self, cm_pth):
        f = cm_pth.machine.pthread_compute_factor
        assert cm_pth.compute(1.0) == pytest.approx(f)

    def test_interactions_scale_linearly(self, cm):
        assert cm.interactions(10) == pytest.approx(10 * cm.interactions(1))

    def test_shared_local_words_cost_more_than_local(self, cm):
        """Pointer-to-shared dereference overhead (paper section 2)."""
        assert cm.shared_local_words(100) > cm.local_words(100)


class TestWordAccess:
    def test_self_access_is_shared_local(self, cm):
        ch = cm.word_access(1, 1, words=10)
        assert ch.issuer == pytest.approx(cm.shared_local_words(10))
        assert ch.nic == 0.0

    def test_remote_access_pays_rtt_per_word(self, cm):
        ch = cm.word_access(0, 1, words=3)
        m = cm.machine
        assert ch.issuer == pytest.approx(3 * (m.remote_rtt + m.cpu_overhead))
        assert ch.nic > 0

    def test_remote_blocking_complete_equals_issuer(self, cm):
        ch = cm.word_access(0, 1, words=2)
        assert ch.complete == ch.issuer

    def test_pthread_same_node_is_cheap_and_nicless(self, cm_pth):
        ch = cm_pth.word_access(0, 3, words=5)
        remote = cm_pth.word_access(0, 4, words=5)
        assert ch.issuer < remote.issuer / 5
        assert ch.nic == 0.0
        assert remote.nic > 0.0

    def test_process_same_node_pays_loopback(self):
        cm = CostModel(MachineConfig(threads_per_node=4, mode="process"))
        ch = cm.word_access(0, 1, words=1)
        assert ch.issuer >= cm.machine.loopback_rtt
        assert ch.nic > 0.0


class TestBulk:
    def test_bulk_get_amortizes_vs_word_reads(self, cm):
        words = 64
        bulk = cm.bulk_get(0, 1, words * 8)
        fine = cm.word_access(0, 1, words=words)
        assert bulk.issuer < fine.issuer / 5

    def test_bulk_scales_with_bytes(self, cm):
        small = cm.bulk_get(0, 1, 100)
        big = cm.bulk_get(0, 1, 100_000)
        assert big.issuer > small.issuer
        assert big.nic > small.nic

    def test_local_bulk_is_memcpy(self, cm):
        ch = cm.bulk_get(2, 2, 4096)
        assert ch.nic == 0.0
        assert ch.issuer < cm.bulk_get(2, 3, 4096).issuer

    def test_gather_ilist_adds_per_element_cost(self, cm):
        one = cm.gather_ilist(0, 1, 1, 120)
        many = cm.gather_ilist(0, 1, 100, 120)
        assert many.issuer > one.issuer
        # but far cheaper than 100 separate bulk gets
        assert many.issuer < 100 * cm.bulk_get(0, 1, 120).issuer / 5

    def test_async_issue_is_overhead_only(self, cm):
        assert cm.async_issue() == cm.machine.cpu_overhead


class TestSynchronization:
    def test_lock_remote_costs_rtt(self, cm):
        ch = cm.lock_acquire(0, 1)
        assert ch.issuer >= cm.machine.remote_rtt

    def test_lock_local_is_cheap(self, cm):
        assert cm.lock_acquire(1, 1).issuer < cm.lock_acquire(0, 1).issuer

    def test_release_cheaper_than_acquire(self, cm):
        assert cm.lock_release(0, 1).issuer < cm.lock_acquire(0, 1).issuer

    def test_barrier_grows_with_threads(self, cm):
        assert cm.barrier(128) > cm.barrier(2)

    def test_barrier_single_thread_minimal(self, cm):
        assert cm.barrier(1) == cm.machine.collective_base_cost

    def test_vector_reduce_beats_repeated_scalars(self, cm):
        """The figure 10/11 mechanism: one vector reduction per level is
        far cheaper than one scalar reduction per subspace."""
        n = 512
        vector = cm.reduce_vector(64, n * 8)
        scalars = n * cm.reduce_vector(64, 8)
        assert vector < scalars / 10

    def test_reduce_grows_with_threads(self, cm):
        assert cm.reduce_vector(1024, 64) > cm.reduce_vector(4, 64)

    def test_broadcast_scales_with_bytes(self, cm):
        assert cm.broadcast(16, 1 << 20) > cm.broadcast(16, 8)

