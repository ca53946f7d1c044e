"""Network substrate: transports, topologies, secure channels, and the
message adversary."""

import pytest

from repro.crypto import KeyPair
from repro.crypto.authenticated import encrypt
from repro.errors import (
    AttestationError,
    MessageAuthenticationError,
    NetworkError,
)
from repro.network import (
    InstantNetwork,
    Network,
    NetworkAdversary,
    Topology,
    complete_graph_overlay,
    establish_secure_channel,
    fig3_topology,
    hub_and_spoke_overlay,
    secure_channel,
)
from repro.simulation import Scheduler
from repro.tee import AttestationService, Enclave, EnclaveProgram


class Prog(EnclaveProgram):
    PROGRAM_NAME = "net-test"


class Tampered(EnclaveProgram):
    PROGRAM_NAME = "net-test-tampered"


class TestTransport:
    def test_latency_is_half_rtt_plus_serialisation(self):
        topology = fig3_topology()
        scheduler = Scheduler()
        network = Network(scheduler, topology.latency_fn(),
                          topology.bandwidth_fn())
        arrivals = []
        network.register("US", lambda m: arrivals.append(scheduler.now))
        network.register("UK1", lambda m: None)
        network.send("UK1", "US", "ping", size=512)
        scheduler.run()
        expected = 0.090 / 2 + 512 * 8 / 150e6
        assert arrivals[0] == pytest.approx(expected)

    def test_unregistered_destination_drops_silently(self):
        scheduler = Scheduler()
        network = Network(scheduler, lambda a, b: 0.01)
        network.register("a", lambda m: None)
        network.send("a", "ghost", "x")
        scheduler.run()  # no exception: the host is just gone

    def test_crash_between_send_and_delivery_drops(self):
        scheduler = Scheduler()
        network = Network(scheduler, lambda a, b: 1.0)
        got = []
        network.register("a", lambda m: None)
        network.register("b", got.append)
        network.send("a", "b", "x")
        network.unregister("b")
        scheduler.run()
        assert got == []

    def test_duplicate_registration_rejected(self):
        network = InstantNetwork()
        network.register("a", lambda m: None)
        with pytest.raises(NetworkError):
            network.register("a", lambda m: None)

    def test_instant_fifo_cascade(self):
        network = InstantNetwork()
        log = []

        def handler_a(message):
            log.append(("a", message.payload))
            if message.payload == "start":
                network.send("a", "b", "fwd1")
                network.send("a", "b", "fwd2")

        network.register("a", handler_a)
        network.register("b", lambda m: log.append(("b", m.payload)))
        network.send("x", "a", "start")
        assert log == [("a", "start"), ("b", "fwd1"), ("b", "fwd2")]

    def test_byte_accounting(self):
        network = InstantNetwork()
        network.register("b", lambda m: None)
        network.send("a", "b", "x", size=100)
        network.send("a", "b", "y", size=200)
        assert network.messages_sent == 2
        assert network.bytes_sent == 300

    def test_tap_suppression_not_counted_as_sent(self):
        # Messages the adversary takes over never reach the wire; they
        # must land in the suppressed counters, not messages_sent.
        network = InstantNetwork()
        network.register("b", lambda m: None)
        adversary = NetworkAdversary(network)
        adversary.partition("a", "b")
        network.send("a", "b", "lost", size=64)
        assert network.messages_sent == 0
        assert network.bytes_sent == 0
        assert network.messages_suppressed == 1
        assert network.bytes_suppressed == 64
        adversary.heal("a", "b")
        network.send("a", "b", "found", size=32)
        assert network.messages_sent == 1
        assert network.bytes_sent == 32
        assert network.messages_suppressed == 1

    def test_tap_suppression_on_simulated_network(self):
        scheduler = Scheduler()
        network = Network(scheduler, lambda a, b: 0.01)
        network.register("b", lambda m: None)
        NetworkAdversary(network).partition("a", "b")
        network.send("a", "b", "x", size=10)
        scheduler.run()
        assert network.messages_sent == 0
        assert network.messages_suppressed == 1

    def test_transport_metrics_split_sends_and_drops(self):
        from repro import obs

        with obs.collecting() as (registry, _tracer):
            network = InstantNetwork()
            network.register("b", lambda m: None)
            adversary = NetworkAdversary(network)
            adversary.partition("a", "b")
            network.send("a", "b", "lost", size=10)
            network.send("c", "b", "ok", size=5)
        counters = registry.snapshot()["counters"]
        assert counters["transport.tap_drops"] == 1
        assert counters["transport.tap_dropped_bytes"] == 10
        assert counters["transport.messages[c->b]"] == 1
        assert counters["transport.bytes[c->b]"] == 5
        assert "transport.messages[a->b]" not in counters


class TestDrainRobustness:
    """A raising handler (or mid-drain unregister) must not wedge the FIFO."""

    def test_raising_handler_still_delivers_the_rest(self):
        network = InstantNetwork()
        got = []

        def exploding(message):
            got.append(("b", message.payload))
            raise RuntimeError("handler bug")

        network.register("b", exploding)
        network.register("c", lambda m: got.append(("c", m.payload)))

        def fan_out(message):
            network.send("a", "b", "boom")
            network.send("a", "c", "survivor")

        network.register("a", fan_out)
        with pytest.raises(NetworkError) as exc_info:
            network.send("driver", "a", "go")
        # Everything queued behind the failure was still delivered.
        assert got == [("b", "boom"), ("c", "survivor")]
        # The error carries the offending message and chains the cause.
        assert exc_info.value.message.destination == "b"
        assert exc_info.value.message.payload == "boom"
        assert isinstance(exc_info.value.__cause__, RuntimeError)

    def test_first_failure_wins_when_several_handlers_raise(self):
        network = InstantNetwork()
        network.register("b", lambda m: (_ for _ in ()).throw(
            ValueError(f"bad {m.payload}")))

        def fan_out(message):
            network.send("a", "b", "first")
            network.send("a", "b", "second")

        network.register("a", fan_out)
        with pytest.raises(NetworkError) as exc_info:
            network.send("driver", "a", "go")
        assert exc_info.value.message.payload == "first"

    def test_unregister_mid_drain_skips_silently(self):
        network = InstantNetwork()
        got = []

        def crash_then_more(message):
            network.unregister("b")
            network.send("a", "b", "into the void")
            network.send("a", "c", "still alive")

        network.register("a", crash_then_more)
        network.register("b", lambda m: got.append(("b", m.payload)))
        network.register("c", lambda m: got.append(("c", m.payload)))
        network.send("driver", "a", "go")  # no exception
        assert got == [("c", "still alive")]

    def test_network_usable_after_a_drain_failure(self):
        network = InstantNetwork()
        network.register("b", lambda m: (_ for _ in ()).throw(
            RuntimeError("once")))
        with pytest.raises(NetworkError):
            network.send("a", "b", "fails")
        network.unregister("b")
        got = []
        network.register("b", lambda m: got.append(m.payload))
        network.send("a", "b", "recovered")
        assert got == ["recovered"]


class TestPayloadSize:
    """Message sizes come from the wire codec, not a hardcoded constant."""

    def test_encodable_payload_gets_codec_size(self):
        from repro.core.messages import Paid
        from repro.network.transport import DEFAULT_MESSAGE_SIZE, payload_size
        from repro.runtime import codec

        paid = Paid(channel_id="chan", amount=7, sequence=1, batch_count=1)
        assert payload_size(paid) == len(codec.encode(paid))
        assert payload_size(paid) != DEFAULT_MESSAGE_SIZE

    def test_unencodable_payload_falls_back_to_default(self):
        from repro.network.transport import DEFAULT_MESSAGE_SIZE, payload_size

        assert payload_size(object()) == DEFAULT_MESSAGE_SIZE

    def test_send_without_size_uses_codec_length(self):
        from repro.runtime import codec

        network = InstantNetwork()
        sizes = []
        network.register("b", lambda m: sizes.append(m.size))
        network.send("a", "b", b"\x00" * 100)
        assert sizes == [len(codec.encode(b"\x00" * 100))]

    def test_explicit_size_still_wins(self):
        network = InstantNetwork()
        sizes = []
        network.register("b", lambda m: sizes.append(m.size))
        network.send("a", "b", b"payload", size=9999)
        assert sizes == [9999]


def _has_channel(overlay, a, b):
    return (a, b) in overlay.channels or (b, a) in overlay.channels


def _neighbours(overlay, node):
    return [b if a == node else a for a, b in overlay.channels
            if node in (a, b)]


class TestTopology:
    def test_fig3_rtts(self):
        topology = fig3_topology()
        assert topology.rtt("UK1", "US") == 0.090
        assert topology.rtt("UK1", "IL1") == 0.060
        assert topology.rtt("US", "IL2") == 0.140
        assert topology.rtt("UK1", "UK7") == 0.0005
        assert topology.rtt("US", "US") == 0.0

    def test_fig3_machine_count(self):
        assert len(fig3_topology(uk_machines=30).site_of) == 33

    def test_unknown_node_rejected(self):
        with pytest.raises(NetworkError):
            fig3_topology().rtt("mars", "US")

    def test_uniform_topology(self):
        topology = Topology.uniform(["a", "b", "c"], rtt=0.1)
        assert topology.rtt("a", "c") == 0.1

    def test_complete_graph_overlay(self):
        overlay = complete_graph_overlay(["a", "b", "c", "d"])
        assert len(overlay.channels) == 6
        assert _has_channel(overlay, "a", "d")
        assert sorted(_neighbours(overlay, "a")) == ["b", "c", "d"]

    def test_hub_and_spoke_default_shape(self):
        overlay = hub_and_spoke_overlay()
        assert len(overlay.nodes) == 30
        tiers = [overlay.tier_of[node] for node in overlay.nodes]
        assert tiers.count(1) == 3
        assert tiers.count(2) == 9
        assert tiers.count(3) == 18
        # Hubs form a complete core.
        assert _has_channel(overlay, "Nhub1", "Nhub2")
        # Leaves connect only to their mid.
        assert len(_neighbours(overlay, "Nleaf1")) == 1


class TestSecureChannel:
    def _pair(self):
        service = AttestationService()
        a = Enclave(Prog(), seed=b"sc-a")
        b = Enclave(Prog(), seed=b"sc-b")
        return service, a, b

    def test_roundtrip(self):
        service, a, b = self._pair()
        chan_a, chan_b = establish_secure_channel(a, b, service)
        envelope = chan_a.seal_message({"amount": 7})
        assert chan_b.open_message(envelope) == {"amount": 7}

    def test_replay_rejected(self):
        service, a, b = self._pair()
        chan_a, chan_b = establish_secure_channel(a, b, service)
        envelope = chan_a.seal_message("once")
        chan_b.open_message(envelope)
        with pytest.raises(MessageAuthenticationError):
            chan_b.open_message(envelope)

    def test_reorder_rejected(self):
        service, a, b = self._pair()
        chan_a, chan_b = establish_secure_channel(a, b, service)
        first = chan_a.seal_message("first")
        second = chan_a.seal_message("second")
        chan_b.open_message(second)
        with pytest.raises(MessageAuthenticationError):
            chan_b.open_message(first)

    def test_tampering_rejected(self):
        service, a, b = self._pair()
        chan_a, chan_b = establish_secure_channel(a, b, service)
        envelope = bytearray(chan_a.seal_message("x"))
        envelope[20] ^= 1
        with pytest.raises(MessageAuthenticationError):
            chan_b.open_message(bytes(envelope))

    def test_cross_channel_rejected(self):
        service, a, b = self._pair()
        c = Enclave(Prog(), seed=b"sc-c")
        chan_a, chan_b = establish_secure_channel(a, b, service)
        chan_a2, chan_c = establish_secure_channel(a, c, service)
        envelope = chan_a2.seal_message("for c")
        with pytest.raises(MessageAuthenticationError):
            chan_b.open_message(envelope)

    def test_payload_without_a_wire_encoding_is_refused_at_the_sender(self):
        """Fails before the pickle fallback was deleted: an object the
        codec cannot encode used to be pickled into the plaintext."""
        from repro.runtime.codec import CodecError
        service, a, b = self._pair()
        chan_a, _ = establish_secure_channel(a, b, service)
        for seal in (chan_a.seal_message, chan_a.seal_blob):
            with pytest.raises(CodecError):
                seal(object())

    def test_pickle_plaintext_is_refused_not_loaded(self):
        """Fails before the pickle fallback was deleted: a MAC-valid
        plaintext that is not a ``TCW`` frame used to reach
        ``pickle.loads`` — code execution for whoever holds the channel
        keys (a compromised peer enclave)."""
        import pickle
        from repro.crypto.authenticated import nonce_from_counter
        service, a, b = self._pair()
        chan_a, chan_b = establish_secure_channel(a, b, service)
        fired = []

        class Payload:
            def __reduce__(self):
                return (fired.append, ("executed",))

        sender = chan_a.local_key.to_bytes()
        blob_nonce = b"\x80\x00\x00\x00" + (1).to_bytes(8, "big")
        for plaintext, nonce, opener in (
                (pickle.dumps((sender, 1, Payload())), nonce_from_counter(1),
                 chan_b.open_message),
                (pickle.dumps((sender, Payload())), blob_nonce,
                 chan_b.open_blob)):
            sealed = encrypt(chan_a.send_keys, nonce, plaintext)
            with pytest.raises(MessageAuthenticationError,
                               match="not a wire frame"):
                opener(sealed)
        assert fired == []
        assert chan_b._recv_counter == 0

    @staticmethod
    def _xor(left, right):
        return bytes(x ^ y for x, y in zip(left, right))

    def test_the_two_directions_never_share_a_keystream(self, monkeypatch):
        """Fails while both ends sealed under one key set: alice's k-th
        and bob's k-th frame shared a nonce *and* a keystream, so the XOR
        of the ciphertexts was the XOR of the plaintexts."""
        service, a, b = self._pair()
        chan_a, chan_b = establish_secure_channel(a, b, service)
        sealed = []

        def recording(keys, nonce, plaintext):
            envelope = encrypt(keys, nonce, plaintext)
            sealed.append((plaintext, envelope))
            return envelope

        monkeypatch.setattr(secure_channel, "encrypt", recording)
        for seal in ("seal_message", "seal_blob"):
            sealed.clear()
            getattr(chan_a, seal)("pay alice->bob 7")
            getattr(chan_b, seal)("pay bob->alice 9")
            (ours, from_a), (theirs, from_b) = sealed
            assert from_a[:12] == from_b[:12]  # the same nonce
            assert (self._xor(from_a[12:-32], from_b[12:-32])
                    != self._xor(ours, theirs))

    def test_a_reflected_frame_is_refused(self):
        service, a, b = self._pair()
        chan_a, _ = establish_secure_channel(a, b, service)
        with pytest.raises(MessageAuthenticationError):
            chan_a.open_message(chan_a.seal_message("to bob"))
        with pytest.raises(MessageAuthenticationError):
            chan_a.open_blob(chan_a.seal_blob("to bob"))

    def test_blob_and_message_confusion_is_an_authentication_error(self):
        """Fails while the openers unpacked the plaintext tuple first: a
        blob opened as a message (and vice versa) raised ValueError,
        which TeechainNode._handle_delivery does not catch."""
        service, a, b = self._pair()
        chan_a, chan_b = establish_secure_channel(a, b, service)
        with pytest.raises(MessageAuthenticationError, match="prefix"):
            chan_b.open_message(chan_a.seal_blob("deposit key"))
        with pytest.raises(MessageAuthenticationError, match="prefix"):
            chan_b.open_blob(chan_a.seal_message("a message"))
        forged = bytearray(chan_a.seal_message("x"))
        forged[1] = 1  # neither namespace
        for opener in (chan_b.open_message, chan_b.open_blob):
            with pytest.raises(MessageAuthenticationError, match="prefix"):
                opener(bytes(forged))
        assert chan_b._recv_counter == 0

    def test_wrong_program_fails_attestation(self):
        service, a, _ = self._pair()
        tampered = Enclave(Tampered(), seed=b"evil")
        with pytest.raises(AttestationError):
            establish_secure_channel(a, tampered, service)

    def test_blob_namespace_independent_of_messages(self):
        service, a, b = self._pair()
        chan_a, chan_b = establish_secure_channel(a, b, service)
        blob = chan_a.seal_blob("key-material")
        chan_b.open_message(chan_a.seal_message("outer"))
        # Blob opens regardless of message-counter state.
        assert chan_b.open_blob(blob) == "key-material"

    def test_blob_tampering_rejected(self):
        service, a, b = self._pair()
        chan_a, chan_b = establish_secure_channel(a, b, service)
        blob = bytearray(chan_a.seal_blob("key"))
        blob[-1] ^= 1
        with pytest.raises(MessageAuthenticationError):
            chan_b.open_blob(bytes(blob))


class TestAdversary:
    def test_partition_and_heal(self):
        network = InstantNetwork()
        got = []
        network.register("b", lambda m: got.append(m.payload))
        adversary = NetworkAdversary(network)
        adversary.partition("a", "b")
        network.send("a", "b", "lost")
        assert got == []
        adversary.heal("a", "b")
        network.send("a", "b", "found")
        assert got == ["found"]

    def test_partition_is_directional(self):
        network = InstantNetwork()
        got = []
        network.register("a", lambda m: got.append(m.payload))
        network.register("b", lambda m: None)
        adversary = NetworkAdversary(network)
        adversary.partition("a", "b")
        network.send("b", "a", "reverse")
        assert got == ["reverse"]

    def test_drop_after(self):
        network = InstantNetwork()
        got = []
        network.register("b", lambda m: got.append(m.payload))
        adversary = NetworkAdversary(network)
        adversary.drop_after("a", "b", 2)
        for index in range(4):
            network.send("a", "b", index)
        assert got == [0, 1]

    def test_record_and_replay(self):
        network = InstantNetwork()
        got = []
        network.register("b", lambda m: got.append(m.payload))
        adversary = NetworkAdversary(network)
        adversary.record("a", "b")
        network.send("a", "b", "original")
        adversary.replay_recorded(0)
        assert got == ["original", "original"]

    def test_duplicate(self):
        network = InstantNetwork()
        got = []
        network.register("b", lambda m: got.append(m.payload))
        adversary = NetworkAdversary(network)
        adversary.duplicate("a", "b")
        network.send("a", "b", "x")
        assert got == ["x", "x"]

    def test_delay_on_simulated_network(self):
        scheduler = Scheduler()
        network = Network(scheduler, lambda a, b: 0.010)
        arrivals = []
        network.register("b", lambda m: arrivals.append(scheduler.now))
        adversary = NetworkAdversary(network)
        adversary.delay("a", "b", 5.0)
        network.send("a", "b", "late")
        scheduler.run()
        assert arrivals[0] == pytest.approx(5.005)

    def test_lossy_link(self):
        network = InstantNetwork()
        got = []
        network.register("b", lambda m: got.append(m.payload))
        adversary = NetworkAdversary(network, rng_seed=1)
        adversary.lossy("a", "b", probability=0.5)
        for index in range(100):
            network.send("a", "b", index)
        assert 20 < len(got) < 80
        assert len(adversary.dropped) == 100 - len(got)
