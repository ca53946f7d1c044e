"""Fleet-wide invariant auditing over atomic per-daemon snapshots.

The :class:`InvariantAuditor` consumes one ``audit-snapshot`` per daemon
per sweep (each snapshot internally consistent — taken inside the ecall
boundary in a single event-loop slice) and derives the cross-node
invariants Teechain's fund-safety argument rests on, *while traffic and
faults are running*:

* **Global conservation** — no value is minted.  The observed fleet
  total is::

      sum(on-chain balances) + sum(free-deposit values)
          + sum(per-channel totals)

  where a channel's total is ``min`` over the endpoints reporting it of
  ``my_balance + remote_balance``.  Payments move value *within* a
  channel, so neither endpoint's total changes while traffic flows —
  the sum is exact under concurrent load, not merely approximate.
  Settlement zeroes the initiator's total synchronously before anything
  is broadcast, so the ``min`` rule retires a settling channel the
  moment one side has (terminated channels keep reporting zeroed
  balances for exactly this reason), and the settled funds re-enter the
  sum through on-chain balances once mined.  Transients therefore only
  ever push the observed total *down* (value in flight in the mempool,
  a deposit association the peer has not yet processed): a **surplus**
  over the expected total means minted value and is CRITICAL
  immediately, while a **deficit** is WARN only after it persists.

* **Hub ledger invariants** — each hub snapshot carries its enclave's
  own conservation (``liabilities == deposited − withdrawn``) and
  solvency (``liabilities <= backing``) verdicts, computed in the same
  slice as the balances.  Either flag false is CRITICAL.

* **Replication-barrier / payout liveness** — a non-empty enclave
  outbox or a pending chain payout across consecutive sweeps means
  frames or payouts are stranded (WARN).

Alerts are typed records with stable codes; an alert raised on one
sweep and absent on a later one is *cleared*, not forgotten — the full
log (with raise/clear timestamps) is the benchmark artifact, and the
registry counts ``alerts.raised[<code>]`` / ``alerts.cleared``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "Alert",
    "InvariantAuditor",
    "WARN",
    "CRITICAL",
    "ALERT_CODES",
]

WARN = "WARN"
CRITICAL = "CRITICAL"

#: Stable alert codes (DESIGN.md §14) — never renamed, and a retired
#: code is never reused.
ALERT_CODES = {
    "CONSERVATION_SURPLUS": CRITICAL,   # observed > expected: value minted
    "CONSERVATION_DEFICIT": WARN,       # observed < expected, persistent
    "HUB_NOT_CONSERVED": CRITICAL,      # ledger liabilities drifted
    "HUB_INSOLVENT": CRITICAL,          # liabilities exceed backing
    "NEGATIVE_BALANCE": CRITICAL,       # a channel balance went negative
    "CHANNEL_MIRROR_DIVERGED": WARN,    # endpoints disagree on a total
    "OUTBOX_STUCK": WARN,               # enclave outbox pending, persistent
    "PAYOUT_STUCK": WARN,               # chain payout pending, persistent
    "SCRAPE_FAILED": WARN,              # daemon unreachable this sweep
    "PEER_DISCONNECTED": WARN,          # a transport link is down
    "RECONNECT": WARN,                  # a link redialled this sweep
    "BACKPRESSURE": WARN,               # backpressure waits this sweep
    "PROTOCOL_DROPS": WARN,             # protocol-plane frames dropped
}


@dataclass
class Alert:
    """One raised invariant violation, tracked until it clears."""

    code: str
    severity: str
    subject: str        # daemon, channel, or "fleet"
    detail: str
    first_seen: float
    last_seen: float
    sweeps: int = 1
    cleared_at: Optional[float] = None
    context: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "code": self.code,
            "severity": self.severity,
            "subject": self.subject,
            "detail": self.detail,
            "first_seen": self.first_seen,
            "last_seen": self.last_seen,
            "sweeps": self.sweeps,
            "cleared_at": self.cleared_at,
            "context": dict(self.context),
        }


class InvariantAuditor:
    """Derives fleet invariants from per-daemon audit snapshots.

    ``expected_total`` is the fleet's funded supply (sum of genesis
    allocations of the polled daemons).  When omitted, the first
    sweep's observed total becomes the baseline — correct as long as
    the monitor attaches while the fleet is quiescent or only after
    setup, which is how the chaos benchmark uses it.
    """

    def __init__(
        self,
        expected_total: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
        deficit_sweeps: int = 3,
        stuck_sweeps: int = 2,
    ) -> None:
        self.expected_total = expected_total
        self.metrics = metrics
        self.deficit_sweeps = max(1, deficit_sweeps)
        self.stuck_sweeps = max(1, stuck_sweeps)
        self.sweeps = 0
        #: Every alert ever raised, in raise order (the sidecar log).
        self.log: List[Alert] = []
        self._active: Dict[Tuple[str, str], Alert] = {}
        self._streaks: Dict[Tuple[str, str], int] = {}
        # Last good snapshot per daemon: a dead or mid-restart daemon
        # must not yank its channels/wallet out of the observed sum and
        # fake a deficit (or, worse, let its peer's stale totals fake a
        # surplus once it settles elsewhere).
        self._last_good: Dict[str, Dict[str, Any]] = {}
        # Previous transport counters per daemon, for per-sweep deltas.
        self._last_transport: Dict[str, Dict[str, int]] = {}
        self.last_observed: Optional[int] = None
        self.last_components: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Alert lifecycle
    # ------------------------------------------------------------------

    def active_alerts(self) -> List[Alert]:
        return list(self._active.values())

    def critical_alerts(self) -> List[Alert]:
        """Every CRITICAL ever raised (cleared or not): a safety
        violation that later 'heals' still happened."""
        return [alert for alert in self.log if alert.severity == CRITICAL]

    def _raise(self, code: str, subject: str, detail: str,
               t: float, **context: Any) -> Alert:
        key = (code, subject)
        alert = self._active.get(key)
        if alert is not None:
            alert.last_seen = t
            alert.sweeps += 1
            alert.detail = detail
            alert.context.update(context)
            return alert
        severity = ALERT_CODES[code]
        alert = Alert(code=code, severity=severity, subject=subject,
                      detail=detail, first_seen=t, last_seen=t,
                      context=dict(context))
        self._active[key] = alert
        self.log.append(alert)
        if self.metrics is not None:
            self.metrics.inc(f"alerts.raised[{code}]")
            if severity == CRITICAL:
                self.metrics.inc("alerts.critical")
        return alert

    def _clear(self, code: str, subject: str, t: float) -> None:
        alert = self._active.pop((code, subject), None)
        if alert is not None:
            alert.cleared_at = t
            if self.metrics is not None:
                self.metrics.inc("alerts.cleared")

    def _condition(self, code: str, subject: str, active: bool,
                   detail: str, t: float, persist: int = 1,
                   **context: Any) -> None:
        """Raise after ``persist`` consecutive active sweeps; clear (and
        reset the streak) the first sweep the condition is gone."""
        key = (code, subject)
        if active:
            streak = self._streaks.get(key, 0) + 1
            self._streaks[key] = streak
            if streak >= persist:
                self._raise(code, subject, detail, t, **context)
        else:
            self._streaks.pop(key, None)
            self._clear(code, subject, t)

    # ------------------------------------------------------------------
    # The sweep
    # ------------------------------------------------------------------

    def audit(self, snapshots: Dict[str, Optional[Dict[str, Any]]],
              t: float) -> List[Alert]:
        """Audit one sweep.

        ``snapshots`` maps daemon name → its ``audit-snapshot`` response,
        or ``None`` when the scrape failed.  Returns the alerts active
        after this sweep.
        """
        self.sweeps += 1
        usable: Dict[str, Dict[str, Any]] = {}
        for name, snapshot in snapshots.items():
            if snapshot is None:
                self._condition(
                    "SCRAPE_FAILED", name, True,
                    f"{name} did not answer audit-snapshot", t)
                cached = self._last_good.get(name)
                if cached is not None:
                    usable[name] = cached
            else:
                self._condition("SCRAPE_FAILED", name, False, "", t)
                self._last_good[name] = snapshot
                usable[name] = snapshot

        self._audit_conservation(usable, t)
        for name, snapshot in usable.items():
            live = snapshots.get(name) is not None
            self._audit_daemon(name, snapshot, t, live=live)
        return self.active_alerts()

    # -- global conservation -------------------------------------------

    def _audit_conservation(self, usable: Dict[str, Dict[str, Any]],
                            t: float) -> None:
        onchain = sum(s.get("onchain", 0) for s in usable.values())
        free = sum(s.get("free_deposit_value", 0) for s in usable.values())
        # channel id → totals reported by each endpoint this sweep.
        totals: Dict[str, List[int]] = {}
        for snapshot in usable.values():
            for cid, channel in snapshot.get("channels", {}).items():
                totals.setdefault(cid, []).append(channel["total"])
        channel_sum = sum(min(reports) for reports in totals.values())
        observed = onchain + free + channel_sum
        self.last_observed = observed
        self.last_components = {
            "onchain": onchain, "free_deposits": free,
            "channels": channel_sum,
        }
        if self.expected_total is None:
            self.expected_total = observed
        expected = self.expected_total

        self._condition(
            "CONSERVATION_SURPLUS", "fleet", observed > expected,
            f"observed fleet total {observed} exceeds expected {expected} "
            f"(+{observed - expected}): value was minted "
            f"(onchain={onchain} free={free} channels={channel_sum})",
            t, observed=observed, expected=expected)
        self._condition(
            "CONSERVATION_DEFICIT", "fleet", observed < expected,
            f"observed fleet total {observed} below expected {expected} "
            f"(-{expected - observed}) for {self.deficit_sweeps}+ sweeps "
            f"(onchain={onchain} free={free} channels={channel_sum})",
            t, persist=self.deficit_sweeps,
            observed=observed, expected=expected)

        # Endpoints disagreeing on a channel's *total* is meaningful:
        # payments never change a total, only deposit association and
        # settlement do, and both converge within a message round trip.
        for cid, reports in totals.items():
            self._condition(
                "CHANNEL_MIRROR_DIVERGED", cid,
                len(reports) > 1 and max(reports) != min(reports),
                f"channel {cid} totals diverge across endpoints: "
                f"{sorted(reports)}", t, persist=self.deficit_sweeps)

    # -- per-daemon invariants -----------------------------------------

    def _audit_daemon(self, name: str, snapshot: Dict[str, Any], t: float,
                      live: bool = True) -> None:
        negative = [
            (cid, channel) for cid, channel in
            snapshot.get("channels", {}).items()
            if channel["my_balance"] < 0 or channel["remote_balance"] < 0
        ]
        self._condition(
            "NEGATIVE_BALANCE", name, bool(negative),
            f"{name} reports negative channel balances: "
            + ", ".join(f"{cid}={ch['my_balance']}/{ch['remote_balance']}"
                        for cid, ch in negative[:4]), t)

        hub = snapshot.get("hub")
        if hub is not None:
            self._condition(
                "HUB_NOT_CONSERVED", name, not hub.get("conserved", True),
                f"{name} hub ledger broke conservation: liabilities "
                f"{hub.get('liabilities')} != deposited "
                f"{hub.get('deposited_total')} - withdrawn "
                f"{hub.get('withdrawn_total')}", t)
            self._condition(
                "HUB_INSOLVENT", name, not hub.get("solvent", True),
                f"{name} hub is insolvent: liabilities "
                f"{hub.get('liabilities')} exceed backing "
                f"{hub.get('backing')}", t)
            self._condition(
                "PAYOUT_STUCK", name, hub.get("payout_pending", 0) > 0,
                f"{name} has {hub.get('payout_pending')} of chain payouts "
                f"authorised but unexecuted for {self.stuck_sweeps}+ "
                "sweeps", t, persist=self.stuck_sweeps)

        self._condition(
            "OUTBOX_STUCK", name, snapshot.get("outbox_pending", 0) > 0,
            f"{name} enclave outbox holds "
            f"{snapshot.get('outbox_pending')} undelivered frames for "
            f"{self.stuck_sweeps}+ sweeps", t, persist=self.stuck_sweeps)

        transport = snapshot.get("transport", {})
        self._condition(
            "PEER_DISCONNECTED", name,
            live and transport.get("disconnected", 0) > 0,
            f"{name} has {transport.get('disconnected')} of "
            f"{transport.get('peers')} transport links down", t)

        previous = self._last_transport.get(name, {})
        waits = transport.get("backpressure_waits", 0)
        drops = transport.get("drops_protocol", 0)
        reconnects = transport.get("reconnects", 0)
        self._condition(
            "BACKPRESSURE", name,
            live and waits > previous.get("backpressure_waits", waits),
            f"{name} writers hit backpressure this sweep "
            f"(total waits {waits})", t, waits=waits)
        self._condition(
            "PROTOCOL_DROPS", name,
            live and drops > previous.get("drops_protocol", drops),
            f"{name} dropped protocol-plane frames this sweep "
            f"(total {drops})", t, drops=drops)
        # A severed link redials in well under one sweep interval, so
        # PEER_DISCONNECTED can miss it; the reconnects counter cannot.
        self._condition(
            "RECONNECT", name,
            live and reconnects > previous.get("reconnects", reconnects),
            f"{name} redialled transport links this sweep "
            f"(total reconnects {reconnects})", t, reconnects=reconnects)
        if live:
            self._last_transport[name] = {
                "backpressure_waits": waits, "drops_protocol": drops,
                "reconnects": reconnects,
            }

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        return {
            "sweeps": self.sweeps,
            "expected_total": self.expected_total,
            "observed_total": self.last_observed,
            "components": dict(self.last_components),
            "active": [a.to_dict() for a in self.active_alerts()],
            "criticals": [a.to_dict() for a in self.critical_alerts()],
            "log": [a.to_dict() for a in self.log],
        }
