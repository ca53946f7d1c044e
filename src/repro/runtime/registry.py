"""Typed, declarative command registry for the daemon control API.

Every control command declares its name, parameters (type, required,
default), and docstring once, with a decorator; dispatch, validation,
structured errors, and help text all derive from that single
declaration.  There is deliberately *no* if/elif chain anywhere: adding
a command is adding one decorated method.

Errors leaving the control plane always carry a stable ``code`` field
(``bad_request``, ``unknown_command``, ``no_such_channel``,
``enclave_crashed``, …) so scripts can branch on failures without
parsing prose, and prose can improve without breaking scripts.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import errors
from repro.errors import ReproError


class CommandError(ReproError):
    """A control-plane failure with a stable machine-readable code."""

    def __init__(self, message: str, code: str = "error") -> None:
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class Param:
    """One declared command parameter."""

    name: str
    type: type = str
    required: bool = True
    default: Any = None
    doc: str = ""

    def coerce(self, value: Any) -> Any:
        """Validate/convert one supplied value.

        JSON already distinguishes numbers from strings; coercion only
        bridges the CLI's everything-is-a-string surface (an ``int``
        param accepts ``"42"``) and rejects genuine type mismatches."""
        if self.type is int:
            if isinstance(value, bool) or not isinstance(value, (int, str)):
                raise CommandError(
                    f"parameter {self.name!r} must be an integer, got "
                    f"{type(value).__name__}", code="bad_request")
            try:
                return int(value)
            except ValueError:
                raise CommandError(
                    f"parameter {self.name!r} must be an integer, got "
                    f"{value!r}", code="bad_request") from None
        if self.type is str:
            if not isinstance(value, str):
                raise CommandError(
                    f"parameter {self.name!r} must be a string, got "
                    f"{type(value).__name__}", code="bad_request")
            return value
        return value


@dataclass(frozen=True)
class CommandSpec:
    """A registered command: metadata plus the handler's attribute name
    (bound at dispatch time, so one registry serves every instance).

    ``pool`` marks a verb that means the same on every worker of a
    sharded daemon, so a router runs it on all of them when no routing
    parameter names one (``repro.runtime.workers``)."""

    name: str
    params: Tuple[Param, ...]
    doc: str
    attribute: str
    pool: bool = False

    def signature(self) -> str:
        parts = []
        for param in self.params:
            label = f"{param.name}={param.type.__name__}"
            if not param.required:
                label = f"[{label}]"
            parts.append(label)
        return " ".join(parts)


class CommandRegistry:
    """Declarative command table for a daemon class.

    Usage::

        COMMANDS = CommandRegistry()

        class NodeDaemon:
            @COMMANDS.command("pay", Param("channel_id"),
                              Param("amount", int), doc="…")
            async def _cmd_pay(self, channel_id, amount): ...

        response = await COMMANDS.dispatch(daemon, request_dict)
    """

    def __init__(self) -> None:
        self._commands: Dict[str, CommandSpec] = {}

    def command(self, name: str, *params: Param, doc: str = "",
                pool: bool = False) -> Callable:
        """Decorator registering an async method as a control command."""
        def register(method: Callable) -> Callable:
            if name in self._commands:
                raise ReproError(f"command {name!r} registered twice")
            self._commands[name] = CommandSpec(
                name=name, params=tuple(params),
                doc=doc or (method.__doc__ or "").strip().split("\n")[0],
                attribute=method.__name__, pool=pool,
            )
            return method
        return register

    def spec(self, name: Any) -> CommandSpec:
        if not isinstance(name, str):
            raise CommandError("request must carry a string 'cmd' field",
                               code="bad_request")
        spec = self._commands.get(name)
        if spec is None:
            known = ", ".join(sorted(self._commands))
            raise CommandError(f"unknown command {name!r} (known: {known})",
                               code="unknown_command")
        return spec

    def validate(self, name: str,
                 payload: Dict[str, Any]) -> Tuple[CommandSpec,
                                                   Dict[str, Any]]:
        """Check a request against the declaration; returns the spec and
        the coerced keyword arguments for the handler."""
        spec = self.spec(name)
        declared = {param.name for param in spec.params}
        unknown = set(payload) - declared - {"cmd"}
        if unknown:
            raise CommandError(
                f"unknown parameter(s) for {name!r}: "
                f"{', '.join(sorted(unknown))} (accepts: "
                f"{', '.join(sorted(declared)) or 'none'})",
                code="bad_request")
        kwargs: Dict[str, Any] = {}
        for param in spec.params:
            if param.name in payload:
                kwargs[param.name] = param.coerce(payload[param.name])
            elif param.required:
                raise CommandError(
                    f"{name!r} requires parameter {param.name!r}",
                    code="bad_request")
            else:
                kwargs[param.name] = param.default
        return spec, kwargs

    async def dispatch(self, instance: Any,
                       request: Dict[str, Any]) -> Dict[str, Any]:
        """Validate and run one request against ``instance``."""
        spec, kwargs = self.validate(request.get("cmd"), request)
        handler = getattr(instance, spec.attribute)
        result = handler(**kwargs)
        if asyncio.iscoroutine(result):
            result = await result
        return result if isinstance(result, dict) else {}

    def help_table(self) -> List[Dict[str, str]]:
        """Machine-readable command table (the ``help`` command and the
        CLI's epilog are both generated from this)."""
        return [
            {"cmd": spec.name, "args": spec.signature(), "doc": spec.doc}
            for _, spec in sorted(self._commands.items())
        ]

    def help_text(self) -> str:
        rows = self.help_table()
        width = max(len(f"{r['cmd']} {r['args']}".strip()) for r in rows)
        return "\n".join(
            f"  {(row['cmd'] + ' ' + row['args']).strip():<{width}}  "
            f"{row['doc']}" for row in rows
        )

    def __iter__(self):
        return iter(self._commands.values())

    def __contains__(self, name: Any) -> bool:
        return isinstance(name, str) and name in self._commands


# Exception → stable error code, most-specific class first.  Subclass
# order matters: e.g. EnclaveCrashed before TEEError, DoubleSpend's
# parent InvalidTransaction before BlockchainError.
_CODE_TABLE: Tuple[Tuple[type, str], ...] = (
    (errors.EnclaveCrashed, "enclave_crashed"),
    (errors.EnclaveFrozen, "enclave_frozen"),
    (errors.SealingError, "sealing_error"),
    (errors.AttestationError, "attestation_failed"),
    (errors.TEEError, "tee_error"),
    (errors.ChannelStateError, "channel_state"),
    (errors.DepositError, "deposit_error"),
    (errors.PaymentError, "payment_error"),
    (errors.MultihopError, "multihop_error"),
    (errors.NoSuchAccountError, "no_such_account"),
    (errors.AccountNonceError, "stale_nonce"),
    (errors.AccountFundsError, "account_insufficient"),
    (errors.LedgerTamperError, "ledger_tampered"),
    (errors.HubError, "hub_error"),
    (errors.SettlementError, "settlement_error"),
    (errors.ReplicationError, "replication_error"),
    (errors.RoutingError, "routing_error"),
    (errors.ProtocolError, "protocol_error"),
    (errors.InsufficientFunds, "insufficient_funds"),
    (errors.DoubleSpend, "double_spend"),
    (errors.BlockchainError, "blockchain_error"),
    (errors.MessageAuthenticationError, "authentication_failed"),
    (errors.ChannelNotEstablished, "not_connected"),
    (errors.NetworkError, "network_error"),
    (errors.CryptoError, "crypto_error"),
)


def code_for_exception(exc: BaseException) -> str:
    """Map an exception to its stable control-plane error code."""
    if isinstance(exc, CommandError):
        return exc.code
    if isinstance(exc, (asyncio.TimeoutError, TimeoutError)):
        return "timeout"
    for klass, code in _CODE_TABLE:
        if isinstance(exc, klass):
            return code
    if isinstance(exc, ReproError):
        return "error"
    return "internal"
