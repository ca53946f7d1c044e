"""The enclave runtime.

An :class:`Enclave` hosts one :class:`EnclaveProgram` — a pure state machine
whose methods are *ecalls*.  Mirroring the SGX programming model:

* the program's identity key pair is generated **inside** the enclave at
  initialisation (paper Alg. 1 line 1) and the private half never leaves
  except through an explicit :mod:`~repro.tee.compromise` attack;
* programs perform no I/O; outgoing protocol messages accumulate in an
  outbox the untrusted host drains (the ecall/ocall split);
* the enclave has a *measurement* (hash of the program code identity) that
  attestation quotes commit to;
* a status gate models crash (:attr:`EnclaveStatus.CRASHED`), the
  force-freeze state of the replication protocol
  (:attr:`EnclaveStatus.FROZEN`), and compromise.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.crypto.hashing import sha256
from repro.crypto.keys import KeyPair
from repro.errors import EnclaveCrashed, EnclaveFrozen, TEEError
from repro.obs import get_tracer


class EnclaveStatus(enum.Enum):
    RUNNING = "running"
    FROZEN = "frozen"          # force-freeze: settlement-only operations
    CRASHED = "crashed"        # no ecalls at all
    COMPROMISED = "compromised"  # still runs, but secrets have leaked


@dataclass(frozen=True)
class OutboundMessage:
    """A message the program asks the host to deliver."""

    destination: str  # peer name / public-key fingerprint; host resolves it
    payload: Any


class EnclaveProgram:
    """Base class for code running inside an enclave.

    Subclasses implement ecalls as ordinary methods and call
    :meth:`send` to queue outgoing messages.  ``PROGRAM_NAME`` and
    ``PROGRAM_VERSION`` define the measurement: two enclaves attest equal
    iff they run the same program at the same version.
    """

    PROGRAM_NAME = "base"
    PROGRAM_VERSION = 1

    def __init__(self) -> None:
        self._outbox: List[OutboundMessage] = []
        self._enclave: Optional["Enclave"] = None

    @classmethod
    def measurement(cls) -> bytes:
        """MRENCLAVE analogue: hash of the program identity."""
        return sha256(
            f"program:{cls.PROGRAM_NAME}:v{cls.PROGRAM_VERSION}".encode()
        )

    # -- services provided by the hosting enclave ------------------------

    @property
    def enclave(self) -> "Enclave":
        if self._enclave is None:
            raise TEEError("program is not installed in an enclave")
        return self._enclave

    def send(self, destination: str, payload: Any) -> None:
        """Queue an outgoing message for the untrusted host to deliver."""
        self._outbox.append(OutboundMessage(destination, payload))

    # -- settlement gate --------------------------------------------------

    # Ecall names that stay callable after a force-freeze.  The replication
    # protocol freezes enclaves but must still let participants settle
    # channels and release deposits (paper §6: "all channels are settled
    # and unused deposits released").
    FREEZE_ALLOWED: Tuple[str, ...] = ()

    def on_freeze(self) -> None:
        """Hook invoked when the enclave freezes (override to react)."""


class Enclave:
    """An enclave instance: program + identity + status gate."""

    _id_counter = 0

    def __init__(self, program: EnclaveProgram, name: Optional[str] = None,
                 seed: Optional[bytes] = None) -> None:
        Enclave._id_counter += 1
        self.enclave_id = Enclave._id_counter
        self.name = name or f"enclave-{self.enclave_id}"
        self.program = program
        self.status = EnclaveStatus.RUNNING
        # Identity keys are generated inside the enclave; a seed makes
        # tests deterministic without weakening the model (the seed is
        # consumed at construction and not retained).
        if seed is not None:
            self.identity = KeyPair.from_seed(seed)
        else:
            self.identity = KeyPair.generate()
        program._enclave = self

    @property
    def measurement(self) -> bytes:
        return type(self.program).measurement()

    @property
    def public_key(self):
        return self.identity.public

    def ecall(self, method: str, *args: Any, **kwargs: Any) -> Any:
        """Invoke an ecall on the hosted program, enforcing the status gate.

        Crashed enclaves reject everything; frozen enclaves only allow the
        program's ``FREEZE_ALLOWED`` (settlement) ecalls.
        """
        if self.status is EnclaveStatus.CRASHED:
            raise EnclaveCrashed(f"{self.name} has crashed")
        if (
            self.status is EnclaveStatus.FROZEN
            and method not in self.program.FREEZE_ALLOWED
        ):
            raise EnclaveFrozen(
                f"{self.name} is frozen; only {self.program.FREEZE_ALLOWED} "
                f"are permitted (got {method!r})"
            )
        handler: Optional[Callable] = getattr(self.program, method, None)
        if handler is None or method.startswith("_"):
            raise TEEError(f"no such ecall {method!r} on {self.name}")
        guard = getattr(self.program, "ecall_guard", None)
        tracer = get_tracer()
        if tracer.enabled:
            # The ecall is the trust boundary — a span here separates
            # in-enclave processing time from host/wire time in traces.
            with tracer.span(f"ecall.{method}", enclave=self.name):
                if guard is not None:
                    return guard(method, handler, args, kwargs)
                return handler(*args, **kwargs)
        if guard is not None:
            return guard(method, handler, args, kwargs)
        return handler(*args, **kwargs)

    def take_outbox(self) -> List[OutboundMessage]:
        """Drain queued outgoing messages (host side of the ocall split)."""
        messages = self.program._outbox
        self.program._outbox = []
        return messages

    def freeze(self) -> None:
        """Force-freeze: henceforth only settlement ecalls run."""
        if self.status is EnclaveStatus.CRASHED:
            raise EnclaveCrashed(f"{self.name} has crashed")
        if self.status is not EnclaveStatus.FROZEN:
            self.status = EnclaveStatus.FROZEN
            self.program.on_freeze()

    def __repr__(self) -> str:
        return (
            f"Enclave({self.name}, {type(self.program).__name__}, "
            f"{self.status.value})"
        )
