"""Tests for the simulated fabric, NICs and the network adversary."""

import pytest

from repro.errors import NetworkError
from repro.net import Fabric, Frame, NetworkAdversary, flip_payload_byte
from repro.sim import Simulator


def make_fabric(bandwidth=1e9, propagation=1e-6):
    sim = Simulator()
    fabric = Fabric(sim, mtu=1460)
    a = fabric.attach("a", bandwidth, propagation)
    b = fabric.attach("b", bandwidth, propagation)
    return sim, fabric, a, b


def send_and_receive(sim, src_nic, dst_nic, frame):
    def body():
        yield from src_nic.transmit(frame)
        received = yield dst_nic.receive()
        return received, sim.now

    return sim.run_process(body())


class TestFabric:
    def test_frame_delivery(self):
        sim, fabric, a, b = make_fabric()
        frame = Frame("a", "b", wire_bytes=1000, payload=b"hello")
        received, elapsed = send_and_receive(sim, a, b, frame)
        assert received.payload == b"hello"
        # serialization (1000 B at 1 GB/s) + propagation
        assert elapsed == pytest.approx(1000 / 1e9 + 1e-6)

    def test_egress_serializes_at_bandwidth(self):
        sim, fabric, a, b = make_fabric(bandwidth=1e6, propagation=0.0)

        def body():
            yield from a.transmit(Frame("a", "b", 1000, b"1"))
            yield from a.transmit(Frame("a", "b", 1000, b"2"))
            return sim.now

        assert sim.run_process(body()) == pytest.approx(2 * 1000 / 1e6)

    def test_unknown_destination_drops(self):
        sim, fabric, a, _ = make_fabric()

        def body():
            yield from a.transmit(Frame("a", "nowhere", 10, b""))

        sim.run_process(body())
        sim.run()
        assert fabric.dropped_frames == 1

    def test_duplicate_address_rejected(self):
        sim, fabric, _, _ = make_fabric()
        with pytest.raises(NetworkError):
            fabric.attach("a", 1e9, 0)

    def test_nic_lookup(self):
        _, fabric, a, _ = make_fabric()
        assert fabric.nic("a") is a
        with pytest.raises(NetworkError):
            fabric.nic("zzz")

    def test_frames_for_mtu(self):
        _, fabric, _, _ = make_fabric()
        assert fabric.frames_for(100) == 1
        assert fabric.frames_for(1460) == 1
        assert fabric.frames_for(1461) == 2
        assert fabric.frames_for(4096) == 3

    def test_byte_counters(self):
        sim, fabric, a, b = make_fabric()
        send_and_receive(sim, a, b, Frame("a", "b", 500, b"x"))
        assert a.tx_bytes == 500
        assert b.rx_bytes == 500


class _DuplicatingChooser:
    """Controlled-scheduler stub: every frame goes out twice, the copy
    1 ms behind, and each delivery hook call is logged."""

    tie_window = 0

    def __init__(self):
        self.log = []

    def intercept_frame(self, frame):
        return [(frame, 0.0), (frame, 1e-3)]

    def frame_sent(self, frame):
        self.log.append(("sent", frame.payload))

    def frame_delivered(self, frame):
        self.log.append(("delivered", frame.payload))


class TestDelivery:
    def test_one_heap_entry_per_frame_in_flight(self):
        sim, fabric, _, _ = make_fabric()
        fabric.route(Frame("a", "b", 10, b"x"), 1e-6)
        assert len(sim._heap) == 1
        sim.run()
        assert fabric.delivered_frames == 1
        assert sim.executed_steps == 1

    def test_arrival_at_propagation_plus_adversary_delay(self):
        sim, fabric, a, b = make_fabric(propagation=1e-6)
        adversary = NetworkAdversary()
        adversary.delay_matching(lambda f: True, delay=0.5)
        fabric.adversary = adversary

        def body():
            yield from a.transmit(Frame("a", "b", 10, b"slow"))
            sent_at = sim.now
            yield b.receive()
            return sent_at, sim.now

        sent_at, arrived_at = sim.run_process(body())
        assert sent_at == 10 / 1e9
        assert arrived_at == sent_at + (1e-6 + 0.5)

    def test_chooser_hooks_fire_once_per_frame(self):
        sim, fabric, a, b = make_fabric()
        chooser = _DuplicatingChooser()
        sim.chooser = chooser

        def body():
            yield from a.transmit(Frame("a", "b", 10, b"m1"))
            yield from a.transmit(Frame("a", "b", 10, b"m2"))

        sim.run_process(body())
        sim.run()
        for payload in (b"m1", b"m2"):
            assert chooser.log.count(("sent", payload)) == 2
            assert chooser.log.count(("delivered", payload)) == 2
        assert fabric.delivered_frames == 4
        # every copy is announced at send, before it can be delivered
        assert chooser.log.index(("sent", b"m1")) < chooser.log.index(
            ("delivered", b"m1"))

    def test_frame_to_nic_detached_in_flight_is_dropped(self):
        sim, fabric, a, b = make_fabric(propagation=1e-3)

        def body():
            yield from a.transmit(Frame("a", "b", 10, b"lost"))
            fabric.detach("b")

        sim.run_process(body())
        sim.run()
        assert fabric.dropped_frames == 1
        assert fabric.delivered_frames == 0
        assert b.rx_frames == 0


class TestAdversary:
    def test_drop_matching(self):
        sim, fabric, a, b = make_fabric()
        adversary = NetworkAdversary()
        adversary.drop_matching(lambda f: f.payload == b"victim")
        fabric.adversary = adversary

        def body():
            yield from a.transmit(Frame("a", "b", 10, b"victim"))
            yield from a.transmit(Frame("a", "b", 10, b"ok"))
            received = yield b.receive()
            return received.payload

        assert sim.run_process(body()) == b"ok"
        assert adversary.dropped == 1

    def test_duplicate_matching(self):
        sim, fabric, a, b = make_fabric()
        adversary = NetworkAdversary()
        adversary.duplicate_matching(lambda f: True)
        fabric.adversary = adversary

        def body():
            yield from a.transmit(Frame("a", "b", 10, b"msg"))
            first = yield b.receive()
            second = yield b.receive()
            return first.payload, second.payload

        assert sim.run_process(body()) == (b"msg", b"msg")

    def test_delay_matching(self):
        sim, fabric, a, b = make_fabric(propagation=0.0)
        adversary = NetworkAdversary()
        adversary.delay_matching(lambda f: True, delay=0.5)
        fabric.adversary = adversary

        def body():
            yield from a.transmit(Frame("a", "b", 10, b"slow"))
            yield b.receive()
            return sim.now

        assert sim.run_process(body()) >= 0.5

    def test_tamper_matching(self):
        sim, fabric, a, b = make_fabric()
        adversary = NetworkAdversary()
        adversary.tamper_matching(lambda f: True, flip_payload_byte)
        fabric.adversary = adversary

        def body():
            yield from a.transmit(Frame("a", "b", 10, b"\x00\x01"))
            received = yield b.receive()
            return received.payload

        assert sim.run_process(body()) == b"\x01\x01"
        assert adversary.tampered == 1

    def test_random_drop_is_deterministic(self):
        from repro.sim import SeededRng

        def run():
            sim, fabric, a, b = make_fabric()
            adversary = NetworkAdversary(rng=SeededRng(7, "drop"))
            adversary.drop_randomly(0.5)
            fabric.adversary = adversary

            def body():
                for i in range(20):
                    yield from a.transmit(Frame("a", "b", 10, i))

            sim.run_process(body())
            sim.run()
            return fabric.delivered_frames

        assert run() == run()

    def test_first_matching_rule_wins(self):
        adversary = NetworkAdversary()
        adversary.drop_matching(lambda f: True)
        adversary.duplicate_matching(lambda f: True)
        verdict = adversary.intercept(Frame("a", "b", 1, b""))
        assert verdict == [(None, 0.0)]
