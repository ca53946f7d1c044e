"""TEE substrate: enclave lifecycle, attestation, monotonic counters,
sealing, and the compromise model."""

import pytest

from repro.crypto import KeyPair
from repro.errors import (
    AttestationError,
    EnclaveCrashed,
    EnclaveFrozen,
    SealingError,
    TEEError,
)
from repro.tee import (
    AttestationService,
    Enclave,
    EnclaveProgram,
    EnclaveStatus,
    MonotonicCounter,
    MonotonicCounterBank,
    SealingService,
    crash_enclave,
    extract_secrets,
    fork_enclave,
)
from repro.tee.attestation import verify_quote


class EchoProgram(EnclaveProgram):
    PROGRAM_NAME = "echo"
    FREEZE_ALLOWED = ("settle",)

    def __init__(self):
        super().__init__()
        self.counter = 0

    def bump(self):
        self.counter += 1
        return self.counter

    def settle(self):
        return "settled"

    def talk(self, destination):
        self.send(destination, "hello")


class OtherProgram(EnclaveProgram):
    PROGRAM_NAME = "other"


class TestEnclave:
    def test_ecall_dispatch(self):
        enclave = Enclave(EchoProgram())
        assert enclave.ecall("bump") == 1
        assert enclave.ecall("bump") == 2

    def test_unknown_ecall_rejected(self):
        with pytest.raises(TEEError):
            Enclave(EchoProgram()).ecall("nope")

    def test_private_methods_not_callable(self):
        with pytest.raises(TEEError):
            Enclave(EchoProgram()).ecall("_outbox")

    def test_crash_blocks_everything(self):
        enclave = Enclave(EchoProgram())
        crash_enclave(enclave)
        with pytest.raises(EnclaveCrashed):
            enclave.ecall("bump")
        with pytest.raises(EnclaveCrashed):
            enclave.ecall("settle")

    def test_freeze_allows_only_settlement(self):
        enclave = Enclave(EchoProgram())
        enclave.freeze()
        with pytest.raises(EnclaveFrozen):
            enclave.ecall("bump")
        assert enclave.ecall("settle") == "settled"

    def test_freeze_after_crash_rejected(self):
        enclave = Enclave(EchoProgram())
        crash_enclave(enclave)
        with pytest.raises(EnclaveCrashed):
            enclave.freeze()

    def test_measurement_depends_on_program(self):
        assert Enclave(EchoProgram()).measurement != Enclave(
            OtherProgram()).measurement

    def test_measurement_same_for_same_program(self):
        assert Enclave(EchoProgram()).measurement == Enclave(
            EchoProgram()).measurement

    def test_identity_generated_inside(self):
        a = Enclave(EchoProgram())
        b = Enclave(EchoProgram())
        assert a.public_key != b.public_key

    def test_seeded_identity_deterministic(self):
        a = Enclave(EchoProgram(), seed=b"same")
        b = Enclave(EchoProgram(), seed=b"same")
        assert a.public_key == b.public_key

    def test_outbox_drains(self):
        enclave = Enclave(EchoProgram())
        enclave.ecall("talk", "peer")
        messages = enclave.take_outbox()
        assert len(messages) == 1
        assert messages[0].destination == "peer"
        assert enclave.take_outbox() == []


class TestAttestation:
    def test_quote_verifies(self):
        service = AttestationService()
        enclave = Enclave(EchoProgram())
        quote = service.quote(enclave, report_data=b"dh")
        verify_quote(quote, service.root_key, EchoProgram.measurement(),
                     expected_key=enclave.public_key, service=service)

    def test_wrong_measurement_rejected(self):
        service = AttestationService()
        enclave = Enclave(EchoProgram())
        quote = service.quote(enclave)
        with pytest.raises(AttestationError):
            verify_quote(quote, service.root_key, OtherProgram.measurement())

    def test_wrong_key_rejected(self):
        service = AttestationService()
        enclave = Enclave(EchoProgram())
        other = Enclave(EchoProgram())
        quote = service.quote(enclave)
        with pytest.raises(AttestationError):
            verify_quote(quote, service.root_key, EchoProgram.measurement(),
                         expected_key=other.public_key)

    def test_forged_root_rejected(self):
        service = AttestationService()
        rogue = AttestationService(seed=b"rogue")
        enclave = Enclave(EchoProgram())
        quote = rogue.quote(enclave)
        with pytest.raises(AttestationError):
            verify_quote(quote, service.root_key, EchoProgram.measurement())

    def test_revocation(self):
        service = AttestationService()
        enclave = Enclave(EchoProgram())
        quote = service.quote(enclave)
        # A disclosed compromise puts the enclave key on the revocation list.
        service._revoked.add(enclave.public_key.to_bytes())
        with pytest.raises(AttestationError):
            verify_quote(quote, service.root_key, EchoProgram.measurement(),
                         service=service)

    def test_report_data_binds(self):
        service = AttestationService()
        enclave = Enclave(EchoProgram())
        quote = service.quote(enclave, report_data=b"session-1")
        forged = type(quote)(
            measurement=quote.measurement, enclave_key=quote.enclave_key,
            report_data=b"session-2", signature=quote.signature,
        )
        with pytest.raises(AttestationError):
            verify_quote(forged, service.root_key, EchoProgram.measurement())


class TestMonotonicCounters:
    def test_values_only_increase(self):
        counter = MonotonicCounter(0)
        counter.increment(0.0)
        counter.increment(10.0)
        assert counter.value == 2

    def test_throttled_increments_queue(self):
        counter = MonotonicCounter(0, increment_delay=0.1)
        first = counter.increment(0.0)
        second = counter.increment(0.0)
        assert first == 0.1
        assert second == 0.2  # serialised behind the first

    def test_ten_per_second(self):
        counter = MonotonicCounter(0, increment_delay=0.1)
        completion = 0.0
        for _ in range(10):
            completion = counter.increment(0.0)
        assert completion == pytest.approx(1.0)

    def test_reads_unthrottled(self):
        counter = MonotonicCounter(0, increment_delay=0.1)
        counter.increment(0.0)
        assert counter.value == 1
        assert counter.value == 1

    def test_bank_quota(self):
        bank = MonotonicCounterBank()
        bank.MAX_COUNTERS = 2
        bank.create()
        bank.create()
        with pytest.raises(TEEError):
            bank.create()


class TestSealing:
    def test_roundtrip(self):
        service = SealingService(b"platform", EchoProgram.measurement())
        blob = service.seal({"balance": 42}, counter_value=1)
        assert service.unseal(blob) == {"balance": 42}

    def test_tampered_blob_rejected(self):
        service = SealingService(b"platform", EchoProgram.measurement())
        blob = service.seal({"balance": 42}, counter_value=1)
        forged = type(blob)(payload=blob.payload + b"x",
                            counter_value=blob.counter_value, mac=blob.mac)
        with pytest.raises(SealingError):
            service.unseal(forged)

    def test_cross_measurement_rejected(self):
        sealer = SealingService(b"platform", EchoProgram.measurement())
        other = SealingService(b"platform", OtherProgram.measurement())
        blob = sealer.seal("state", counter_value=1)
        with pytest.raises(SealingError):
            other.unseal(blob)

    def test_cross_platform_rejected(self):
        sealer = SealingService(b"platform-1", EchoProgram.measurement())
        other = SealingService(b"platform-2", EchoProgram.measurement())
        blob = sealer.seal("state", counter_value=1)
        with pytest.raises(SealingError):
            other.unseal(blob)

    def test_rollback_detected(self):
        service = SealingService(b"platform", EchoProgram.measurement())
        counter = MonotonicCounter(0)
        counter.increment(0.0)
        old_blob = service.seal("old", counter_value=counter.value)
        counter.increment(1.0)
        new_blob = service.seal("new", counter_value=counter.value)
        assert service.unseal(new_blob, counter=counter) == "new"
        with pytest.raises(SealingError):
            service.unseal(old_blob, counter=counter)


class TestCompromise:
    def test_extract_leaks_identity_key(self):
        enclave = Enclave(EchoProgram())
        secrets = extract_secrets(enclave)
        assert secrets.identity_private_key.public_key == enclave.public_key
        assert enclave.status is EnclaveStatus.COMPROMISED

    def test_compromised_enclave_keeps_running(self):
        enclave = Enclave(EchoProgram())
        extract_secrets(enclave)
        assert enclave.ecall("bump") == 1

    def test_fork_clones_state_and_keys(self):
        enclave = Enclave(EchoProgram())
        enclave.ecall("bump")
        fork = fork_enclave(enclave, "fork")
        assert fork.public_key == enclave.public_key
        assert fork.ecall("bump") == 2
        # The fork diverges: the original is unaffected by fork ecalls.
        assert enclave.ecall("bump") == 2
        assert fork.ecall("bump") == 3
