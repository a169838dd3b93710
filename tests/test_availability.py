"""Availability semantics (§VI): faults affect liveness, never safety."""

import pytest

from repro.config import TREATY_FULL
from repro.core import TreatyCluster
from repro.errors import AttestationError


class TestCasSinglePointOfFailure:
    def test_crashed_node_cannot_recover_without_cas(self):
        cluster = TreatyCluster(profile=TREATY_FULL).start()
        cluster.cas.fail()
        cluster.crash_node(1)
        with pytest.raises(AttestationError, match="CAS unavailable"):
            cluster.run(cluster.recover_node(1))

    def test_recovery_succeeds_once_cas_restored(self):
        cluster = TreatyCluster(profile=TREATY_FULL).start()
        session = cluster.session(cluster.client_machine())

        def write():
            txn = session.begin()
            yield from txn.put(b"cas-key", b"v")
            yield from txn.commit()

        cluster.run(write())
        cluster.cas.fail()
        cluster.crash_node(1)
        with pytest.raises(AttestationError):
            cluster.run(cluster.recover_node(1))
        cluster.cas.restore()
        cluster.run(cluster.recover_node(1))
        assert cluster.nodes[1].is_up

    def test_running_nodes_unaffected_by_cas_failure(self):
        """CAS is only needed at (re)attestation, not in steady state."""
        cluster = TreatyCluster(profile=TREATY_FULL).start()
        cluster.cas.fail()
        session = cluster.session(cluster.client_machine())

        def write():
            txn = session.begin()
            yield from txn.put(b"steady", b"state")
            yield from txn.commit()
            check = session.begin()
            value = yield from check.get(b"steady")
            yield from check.commit()
            return value

        assert cluster.run(write()) == b"state"


class TestCounterQuorumLoss:
    def test_stabilization_stalls_without_quorum_then_resumes(self):
        """Losing the quorum blocks commit acknowledgements (availability),
        but never acknowledges unprotected state (safety)."""
        cluster = TreatyCluster(profile=TREATY_FULL).start()
        sim = cluster.sim
        # Kill two of three nodes: node0's counter group loses quorum.
        cluster.crash_node(1)
        cluster.crash_node(2)

        outcome = {}

        def stabilize():
            yield from cluster.nodes[0].pipeline.rollback.stabilize("q-log", 1)
            outcome["stable_at"] = sim.now

        sim.process(stabilize())
        sim.run(until=sim.now + 1.0)
        assert "stable_at" not in outcome  # still retrying, not acked

        # Recover one node: quorum (2 of 3) is reachable again.
        cluster.run(cluster.recover_node(1))
        sim.run(until=sim.now + 5.0)
        assert "stable_at" in outcome

    def test_reads_of_other_nodes_survive_one_crash(self):
        cluster = TreatyCluster(profile=TREATY_FULL).start()
        session = cluster.session(cluster.client_machine(), coordinator=0)
        key = next(
            b"av-%d" % i for i in range(100)
            if cluster.partitioner(b"av-%d" % i) == 0
        )

        def write():
            txn = session.begin()
            yield from txn.put(key, b"v")
            yield from txn.commit()

        cluster.run(write())
        cluster.crash_node(2)  # unrelated shard

        def read():
            txn = session.begin()
            value = yield from txn.get(key)
            yield from txn.commit()
            return value

        assert cluster.run(read()) == b"v"


class TestRecoverWithoutExplicitCrash:
    def test_recover_on_running_node_restarts_it(self):
        """recover() on a live node implies a restart (no NIC clash)."""
        cluster = TreatyCluster(profile=TREATY_FULL).start()
        session = cluster.session(cluster.client_machine())

        def write():
            txn = session.begin()
            yield from txn.put(b"restart-key", b"v")
            yield from txn.commit()

        cluster.run(write())
        cluster.sim.run(until=cluster.sim.now + 0.1)
        cluster.run(cluster.recover_node(0))  # no crash_node first
        assert cluster.nodes[0].is_up
