"""Undo journal: the one rollback mechanism of a guarded ecall, and the
replication delta of Algorithm 3.

Algorithm 3 makes a state update wait for the committee's ack; when the
push fails, the ecall must leave no effect.  The journal records, before
the first change of each state *entry* in an ecall, that entry's old
value.  An entry is one key of one keyed section the program declares in
``_ROLLBACK_ATTRS`` — one channel, one deposit, one hub account — so
recording costs O(entries touched), never O(state).  The program's
``_ROLLBACK_SCALARS`` and its outbox length are recorded when a level
opens.  Undoing puts every value back *in place*: a restored
:class:`~repro.core.state.ChannelState` is the same object it was, so
nothing that holds it goes stale.

Entries are recorded where the program resolves them (``_channel``,
``_deposit``, the sender rules, ``_touch_payment``, the hub's account
lookups); the rule is *record before you change*.

Every recorded key is also *dirty*: the replication chain ships it with
the next push (``repro.core.channel_base.replication_delta``), and only a
push the backups acknowledged clears it.  For each dirty key the journal
keeps the value the backups last received *and its fields as they
received them*.  It already has both: the first record of a clean key
captures what the backups hold, and an acknowledged push re-captures only
the keys an open level still records.  So the delta can leave out an
entry that provably did not change and ship only the fields that did.
Until the first full push, and after any :meth:`UndoJournal.resync`, the
journal does not know what a backup holds and :meth:`UndoJournal.pending`
answers ``None``: ship the full state.
"""

from __future__ import annotations

from contextlib import contextmanager
from operator import attrgetter
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple


class _Marker:
    """A named singleton that survives pickling as itself."""

    def __init__(self, name: str) -> None:
        self._name = name

    def __repr__(self) -> str:
        return self._name

    def __reduce__(self) -> str:
        return self._name


# The old value of a key that did not exist yet.
ABSENT = _Marker("ABSENT")
# A delta's value for a key the backup must drop.
DELETED = _Marker("DELETED")

# Values the program replaces but never changes in place: one that is
# still the very object the backups received has not changed.
_IMMUTABLE = (int, float, str, bytes, tuple, frozenset, type(None))


_GETTERS: Dict[str, attrgetter] = {}


def section_container(program: Any, section: str) -> Any:
    """``program``'s attribute at the dotted path ``section``."""
    getter = _GETTERS.get(section)
    if getter is None:
        getter = _GETTERS[section] = attrgetter(section)
    return getter(program)


def _copied(fields: Dict[str, Any]) -> Dict[str, Any]:
    """``fields`` with its containers copied one level deep."""
    copy = fields.copy()
    for name, field in fields.items():
        if isinstance(field, (set, dict, list)):
            copy[name] = field.copy()
    return copy


def _capture(value: Any) -> Any:
    """What restoring ``value`` in place needs: its fields (containers
    copied one level deep), a set's members, or nothing for a value the
    program never mutates (ints, keys, frozen messages) or ``ABSENT``."""
    if value is ABSENT or isinstance(value, _IMMUTABLE):
        return None
    if isinstance(value, set):
        return set(value)
    fields = getattr(value, "__dict__", None)
    return None if fields is None else _copied(fields)


def _restore(container: Dict, key: Any, value: Any, captured: Any) -> None:
    if value is ABSENT:
        container.pop(key, None)
        return
    if isinstance(value, set):
        value.clear()
        value.update(captured)
    elif captured is not None:
        # Copies: the capture may also be what the backups hold, and the
        # restored entry will change again.
        fields = vars(value)
        fields.clear()
        fields.update(_copied(captured))
    container[key] = value


def unchanged(value: Any, held: Any) -> bool:
    """Whether ``value`` (``ABSENT`` if missing) is certainly what a
    backup holding ``held`` holds — same object, and not mutable."""
    return value is held and (value is ABSENT
                              or isinstance(value, _IMMUTABLE))


class _Level:
    """One open ecall, or one savepoint inside it."""

    __slots__ = ("records", "scalars", "outbox")

    def __init__(self, scalars: Tuple, outbox: int) -> None:
        # section → key → (old value or ABSENT, what _capture kept)
        self.records: Dict[str, Dict[Any, tuple]] = {}
        self.scalars = scalars
        self.outbox = outbox


class UndoJournal:
    """Per-entry undo records for one enclave program (module doc)."""

    def __init__(self, program: Any) -> None:
        self._program = program
        # One call reads every scalar (there are always several).
        self._scalars = attrgetter(*program._ROLLBACK_SCALARS)
        self._levels: List[_Level] = []
        # Open levels; recording is a no-op at 0.
        self.depth = 0
        # section → key → (the value the backups last received or
        # ABSENT, its fields as they received them), for every key
        # changed since; None while nobody knows what the backups hold
        # (ship everything).
        self._dirty: Optional[Dict[str, Dict[Any, tuple]]] = None
        # The scalars as the backups last received them.
        self._shipped_scalars: Tuple = ()
        # Entries recorded over the journal's life (an operation count
        # tests compare; wall time would be noise).
        self.recorded = 0

    # -- levels -----------------------------------------------------------

    def begin(self) -> None:
        self._levels.append(
            _Level(self._scalars(self._program), len(self._program._outbox)))
        self.depth += 1

    def record(self, section: str, key: Any) -> None:
        """Keep ``section[key]``'s current value, the first time this
        level sees it.  ``section`` must be one of ``_ROLLBACK_ATTRS``."""
        self.record_row((section,), key)

    def record_row(self, sections: Iterable[str], key: Any) -> None:
        """:meth:`record` ``key`` in each of ``sections``."""
        if not self.depth:
            return
        records = self._levels[-1].records
        program = self._program
        dirty = self._dirty
        for section in sections:
            rows = records.get(section)
            if rows is None:
                rows = records[section] = {}
            elif key in rows:
                continue
            value = section_container(program, section).get(key, ABSENT)
            saved = rows[key] = (value, _capture(value))
            self.recorded += 1
            if dirty is not None:
                # A clean key: the backups hold exactly what was saved.
                held = dirty.get(section)
                if held is None:
                    dirty[section] = {key: saved}
                elif key not in held:
                    held[key] = saved

    def undo(self) -> None:
        """Put the innermost level's entries, scalars and outbox back.
        The entries stay dirty: a push inside the level may have shipped
        what was just undone."""
        level = self._levels[-1]
        program = self._program
        for section, rows in level.records.items():
            container = section_container(program, section)
            for key, (value, captured) in rows.items():
                _restore(container, key, value, captured)
        for name, value in zip(program._ROLLBACK_SCALARS, level.scalars):
            owner, _, attr = name.rpartition(".")
            setattr(section_container(program, owner) if owner else program,
                    attr, value)
        del program._outbox[level.outbox:]
        level.records = {}

    def end(self) -> None:
        """Close the innermost level; its records fold into the enclosing
        level, which may still undo them."""
        level = self._levels.pop()
        self.depth -= 1
        if self._levels:
            parent = self._levels[-1].records
            for section, rows in level.records.items():
                into = parent.setdefault(section, {})
                for key, saved in rows.items():
                    into.setdefault(key, saved)

    @contextmanager
    def savepoint(self) -> Iterator[None]:
        """A nested level, undone if the block raises anything."""
        self.begin()
        try:
            yield
        except BaseException:
            self.undo()
            raise
        finally:
            self.end()

    # -- the replication delta --------------------------------------------

    def pending(self) -> Optional[Tuple[Dict[str, Dict[Any, tuple]],
                                        Tuple[str, ...]]]:
        """What the next push must ship: section → key → (the value the
        backups hold or ABSENT, its fields as they hold them — what
        :func:`_capture` kept), for every key changed since the last
        acknowledged push, and the names of the scalars that differ from
        theirs.  None: ship everything."""
        if self._dirty is None:
            return None
        current = self._scalars(self._program)
        return self._dirty, tuple(
            name for name, now, then in zip(
                self._program._ROLLBACK_SCALARS, current,
                self._shipped_scalars)
            if now != then)

    def shipped(self) -> None:
        """A push was acknowledged: the backups hold the current value of
        every key.  Keys an open level recorded stay dirty, since the
        ecall may change them again after the push; they are captured
        again, as the backups now hold them."""
        program = self._program
        self._dirty = dirty = {}
        for level in self._levels:
            for section, rows in level.records.items():
                container = section_container(program, section)
                into = dirty.setdefault(section, {})
                for key in rows:
                    value = container.get(key, ABSENT)
                    into[key] = (value, _capture(value))
        self._shipped_scalars = self._scalars(self._program)

    def resync(self) -> None:
        """Forget what the backups hold; the next push ships everything."""
        self._dirty = None
