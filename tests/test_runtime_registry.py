"""The typed control-command registry and its structured error codes.

Satellite contract for the control-API redesign: every daemon command is
declared exactly once, dispatch is registry-driven (no if/elif chain
anywhere), unknown commands/parameters fail with stable ``code`` fields,
and the ``help`` surface is generated — so it cannot drift from what the
daemon actually accepts.
"""

import asyncio
import inspect
import pathlib
import re

import pytest

from repro import errors
from repro.runtime.control import _ControlConnection
from repro.runtime.daemon import COMMANDS, NodeDaemon
from repro.runtime.registry import (
    CommandError,
    CommandRegistry,
    Param,
    code_for_exception,
)
from repro.runtime.workers import ROUTER


# ---------------------------------------------------------------------------
# Registry mechanics, on a toy command set
# ---------------------------------------------------------------------------

REGISTRY = CommandRegistry()


class Toy:
    @REGISTRY.command("greet", Param("name"),
                      Param("times", int, required=False, default=1),
                      doc="Say hello.")
    async def _cmd_greet(self, name, times):
        return {"greeting": " ".join([f"hi {name}"] * times)}

    @REGISTRY.command("poke")
    async def _cmd_poke(self):
        """First docstring line becomes the help text."""
        return {}


def dispatch(request):
    return asyncio.run(REGISTRY.dispatch(Toy(), request))


class TestDispatch:
    def test_happy_path_with_default(self):
        assert dispatch({"cmd": "greet", "name": "bob"}) == {
            "greeting": "hi bob"}

    def test_string_int_coerced(self):
        result = dispatch({"cmd": "greet", "name": "bob", "times": "2"})
        assert result == {"greeting": "hi bob hi bob"}

    def test_unknown_command_code(self):
        with pytest.raises(CommandError) as excinfo:
            dispatch({"cmd": "frob"})
        assert excinfo.value.code == "unknown_command"
        assert "greet" in str(excinfo.value)  # lists what exists

    def test_missing_required_param(self):
        with pytest.raises(CommandError) as excinfo:
            dispatch({"cmd": "greet"})
        assert excinfo.value.code == "bad_request"

    def test_unknown_param_rejected(self):
        with pytest.raises(CommandError) as excinfo:
            dispatch({"cmd": "greet", "name": "bob", "shout": True})
        assert excinfo.value.code == "bad_request"
        assert "shout" in str(excinfo.value)

    def test_type_mismatch_rejected(self):
        with pytest.raises(CommandError) as excinfo:
            dispatch({"cmd": "greet", "name": "bob", "times": "soon"})
        assert excinfo.value.code == "bad_request"
        # Booleans are ints in Python but not in a control protocol.
        with pytest.raises(CommandError):
            dispatch({"cmd": "greet", "name": "bob", "times": True})

    def test_missing_cmd_field(self):
        with pytest.raises(CommandError) as excinfo:
            dispatch({"name": "bob"})
        assert excinfo.value.code == "bad_request"

    def test_duplicate_registration_rejected(self):
        with pytest.raises(errors.ReproError):
            REGISTRY.command("greet")(lambda self: None)

    def test_help_is_generated(self):
        table = {row["cmd"]: row for row in REGISTRY.help_table()}
        assert table["greet"]["args"] == "name=str [times=int]"
        assert table["greet"]["doc"] == "Say hello."
        # Docstring fallback when no doc= was given.
        assert table["poke"]["doc"].startswith("First docstring line")
        text = REGISTRY.help_text()
        assert "greet" in text and "poke" in text


class TestErrorCodes:
    @pytest.mark.parametrize("exc,code", [
        (errors.EnclaveCrashed("dead"), "enclave_crashed"),
        (errors.InsufficientFunds("broke"), "insufficient_funds"),
        (errors.SettlementError("locked"), "settlement_error"),
        (errors.ChannelNotEstablished("nope"), "not_connected"),
        (asyncio.TimeoutError(), "timeout"),
        (CommandError("x", code="custom_thing"), "custom_thing"),
        (ValueError("surprise"), "internal"),
    ])
    def test_exception_mapping(self, exc, code):
        assert code_for_exception(exc) == code

    def test_subclass_resolves_most_specific_first(self):
        # EnclaveCrashed subclasses TEEError; the table must not collapse
        # it into the generic tee_error bucket.
        assert issubclass(errors.EnclaveCrashed, errors.TEEError)
        assert code_for_exception(errors.EnclaveCrashed("x")) != "tee_error"


# ---------------------------------------------------------------------------
# The daemon's real command table
# ---------------------------------------------------------------------------

class TestDaemonCommands:
    def test_every_command_binds_to_a_handler(self):
        for spec in COMMANDS:
            handler = getattr(NodeDaemon, spec.attribute, None)
            assert handler is not None, f"{spec.name} has no handler"
            assert inspect.iscoroutinefunction(handler)

    def test_expected_verbs_present(self):
        names = {spec.name for spec in COMMANDS}
        assert {"ping", "help", "connect", "open-channel", "deposit",
                "approve-associate", "pay", "settle", "eject-all",
                "fault", "mine", "balance", "channel", "stats",
                "metrics", "shutdown"} <= names

    def test_no_dispatch_chain_left(self):
        # The api_redesign contract: dispatch is the registry, full stop.
        assert not hasattr(NodeDaemon, "_dispatch_command")
        source = inspect.getsource(_ControlConnection._serve)
        assert "elif" not in source

    def test_registry_params_match_handler_signatures(self):
        """Every declared param must be a real keyword of its handler, so
        validate() can never produce kwargs the handler rejects."""
        for spec in COMMANDS:
            handler = getattr(NodeDaemon, spec.attribute)
            accepted = set(inspect.signature(handler).parameters) - {"self"}
            declared = {param.name for param in spec.params}
            assert declared <= accepted, (
                f"{spec.name}: declares {declared - accepted} "
                f"not accepted by {spec.attribute}"
            )

    def test_readme_verb_table_names_every_verb(self):
        """README's verb table lists every daemon verb and every verb of
        the sharded router."""
        readme = (pathlib.Path(__file__).parents[1]
                  / "README.md").read_text(encoding="utf-8")
        table = readme[readme.index("| `TeechainNode` (DES)"):]
        table = table[:table.index("\n\n")]
        named = set(re.findall(r"`([a-z][a-z_-]*)[ `]", table))
        verbs = {spec.name for spec in COMMANDS} | {
            spec.name for spec in ROUTER}
        assert verbs - named == set()
