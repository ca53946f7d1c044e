"""Gossip-plane tests: flooding under faults, replay/forgery rejection.

An in-memory flood mesh drives real :class:`~repro.routing.GossipEngine`
instances over an adversarial "network" scripted by a seeded
:class:`~repro.faults.schedule.FaultSchedule` — the same schedule object
the DES injector consumes, interpreted here for control-plane frames:
LOSS drops each hop-delivery with its probability, PARTITION blackholes
a directed link, HEAL lifts it.  After the faults heal, the anti-entropy
backlog exchange (what live daemons run on every handshake) must bring
every view to convergence.
"""

import dataclasses
import random

import pytest

from repro.crypto.keys import KeyPair
from repro.core.messages import SignedMessage
from repro.errors import ReproError
from repro.faults.schedule import FaultKind, FaultSchedule
from repro.routing import (
    ChannelAnnounce,
    ChannelUpdate,
    GossipEngine,
    RoutePlanner,
)


def _engine(name):
    return GossipEngine(name, KeyPair.from_seed(f"gossip:{name}".encode()))


class FloodMesh:
    """Real engines, scripted network: flood with faults, then heal."""

    def __init__(self, links, schedule=None):
        schedule = schedule if schedule is not None else FaultSchedule()
        self.peers = {}
        for a, b in links:
            self.peers.setdefault(a, set()).add(b)
            self.peers.setdefault(b, set()).add(a)
        self.engines = {name: _engine(name) for name in self.peers}
        self.rng = random.Random(schedule.seed)
        self.blocked = set()   # directed links currently partitioned
        self.loss = {}         # directed link -> drop probability
        self.healable = []     # HEAL specs applied by heal()
        for spec in schedule.faults:
            if spec.kind is FaultKind.PARTITION:
                self.blocked.add(spec.link())
            elif spec.kind is FaultKind.LOSS:
                self.loss[spec.link()] = spec.probability
            elif spec.kind is FaultKind.HEAL:
                self.healable.append(spec.link())
            else:
                raise ValueError(f"mesh cannot script {spec.kind}")

    def heal(self):
        """Apply the schedule's HEAL specs and clear message loss."""
        for link in self.healable:
            self.blocked.discard(link)
        self.loss.clear()

    def _delivered(self, sender, receiver):
        link = (sender, receiver)
        if link in self.blocked:
            return False
        probability = self.loss.get(link, 0.0)
        return not (probability and self.rng.random() < probability)

    def flood(self, origin, frame):
        """BFS flood from ``origin``: fresh frames re-flood, per the
        engine's handle() contract."""
        queue = [(origin, peer, frame) for peer in sorted(self.peers[origin])]
        while queue:
            sender, receiver, signed = queue.pop(0)
            if not self._delivered(sender, receiver):
                continue
            if self.engines[receiver].handle(signed):
                queue.extend((receiver, peer, signed)
                             for peer in sorted(self.peers[receiver])
                             if peer != sender)

    def announce_all(self, capacity=100):
        """Every endpoint announces its half of every adjacent channel."""
        for name in sorted(self.peers):
            engine = self.engines[name]
            for peer in sorted(self.peers[name]):
                cid = f"{min(name, peer)}--{max(name, peer)}"
                self.flood(name, engine.announce(cid, peer, capacity))

    def anti_entropy(self):
        """The handshake-time backlog exchange, over every live link."""
        for name in sorted(self.peers):
            for peer in sorted(self.peers[name]):
                if not self._delivered(name, peer):
                    continue
                for frame in self.engines[name].backlog():
                    if self.engines[peer].handle(frame):
                        self.flood(peer, frame)

    def views(self):
        return {name: frozenset(engine.view.edges())
                for name, engine in self.engines.items()}


RING = [("n0", "n1"), ("n1", "n2"), ("n2", "n3"), ("n3", "n4"),
        ("n4", "n0")]


class TestFlooding:
    def test_clean_flood_converges(self):
        mesh = FloodMesh(RING)
        mesh.announce_all()
        views = mesh.views()
        reference = views["n0"]
        # 5 channels, both directions routable once both halves land.
        assert len(reference) == 10
        assert all(view == reference for view in views.values())

    def test_flood_under_loss_and_partition_converges_after_heal(self):
        schedule = (FaultSchedule(seed=42)
                    .loss("n1", "n2", 0.6).loss("n2", "n1", 0.6)
                    .partition("n3", "n4", bidirectional=True)
                    .heal("n3", "n4").heal("n4", "n3"))
        mesh = FloodMesh(RING, schedule)
        mesh.announce_all()
        # The adversary must actually have bitten: some view is short.
        assert any(len(view) < 10 for view in mesh.views().values())
        mesh.heal()
        mesh.anti_entropy()
        views = mesh.views()
        reference = views["n0"]
        assert len(reference) == 10
        assert all(view == reference for view in views.values())

    def test_convergence_is_seed_deterministic(self):
        def run(seed):
            schedule = (FaultSchedule(seed=seed)
                        .loss("n0", "n1", 0.5).loss("n1", "n0", 0.5))
            mesh = FloodMesh(RING, schedule)
            mesh.announce_all()
            return {name: engine.stats()["announces_applied"]
                    for name, engine in mesh.engines.items()}

        assert run(7) == run(7)


class TestRejection:
    def test_replayed_frame_rejected_as_stale(self):
        alice, bob = _engine("alice"), _engine("bob")
        frame = alice.announce("ab", "bob", 100)
        assert bob.handle(frame) is True
        assert bob.handle(frame) is False  # exact replay
        assert bob.stats()["updates_rejected_stale"] == 1

    def test_stale_update_rejected(self):
        alice, bob = _engine("alice"), _engine("bob")
        old = alice.announce("ab", "bob", 100)          # seq 0
        new = alice.update("ab", "bob", 50)             # seq 1
        assert bob.handle(new) is True
        assert bob.handle(old) is False                 # reordered arrival
        assert bob.stats()["updates_rejected_stale"] == 1
        # The fresher balance survived.
        assert bob.view._halves[("alice", "ab")].capacity == 50

    def test_forged_signature_rejected(self):
        alice, bob = _engine("alice"), _engine("bob")
        frame = alice.announce("ab", "bob", 100)
        tampered = dataclasses.replace(
            frame, body=dataclasses.replace(frame.body, capacity=10**9))
        assert bob.handle(tampered) is False
        assert bob.stats()["rejected_sig"] == 1

    def test_key_substitution_after_pin_rejected(self):
        alice, bob = _engine("alice"), _engine("bob")
        # bob pinned alice's real key (as the handshake does).
        bob.view.bind_key("alice", alice.keypair.public.to_bytes(),
                          pinned=True)
        mallory = GossipEngine("alice",
                               KeyPair.from_seed(b"mallory"))  # stolen name
        assert bob.handle(mallory.announce("fake", "bob", 10**9)) is False
        assert bob.stats()["rejected_key"] == 1
        # And a pin arriving after TOFU evicts the impostor's key.
        carol = _engine("carol")
        assert carol.handle(mallory.announce("fake2", "bob", 1)) is True
        assert carol.view.bind_key(
            "alice", alice.keypair.public.to_bytes(), pinned=True) is True
        assert carol.handle(mallory.update("fake2", "bob", 2)) is False

    def test_malformed_body_rejected(self):
        alice, bob = _engine("alice"), _engine("bob")
        bad = ChannelAnnounce(channel_id="ab", origin="alice",
                              peer="alice", capacity=1, seq=0)
        frame = SignedMessage.create(bad, alice.keypair.private)
        assert bob.handle(frame) is False
        assert bob.stats()["rejected_malformed"] == 1
        with pytest.raises(ReproError):
            alice.announce("", "bob", 1)  # local emit validates too

    def test_non_gossip_body_raises(self):
        alice, bob = _engine("alice"), _engine("bob")
        frame = SignedMessage.create(
            ChannelUpdate(channel_id="ab", origin="alice", peer="bob",
                          capacity=1, seq=0), alice.keypair.private)
        bob.handle(frame)
        with pytest.raises(ReproError):
            bob.handle(dataclasses.replace(frame, body="not gossip"))


class TestTrustModel:
    def test_single_liar_cannot_conjure_a_routable_edge(self):
        # DESIGN.md §13: a lying gossiper can announce a channel to any
        # honest node, but the edge never becomes routable because the
        # honest node never co-announces its half.
        mesh = FloodMesh(RING)
        mesh.announce_all()
        liar = mesh.engines["n0"]
        mesh.flood("n0", liar.announce("phantom", "n3", 10**12))
        for engine in mesh.engines.values():
            for edge in engine.view.edges():
                assert edge.channel_id != "phantom"
        # And no planner shortcut appears: n1→n3 still walks the ring
        # instead of hopping the phantom n0--n3 channel.
        planner = RoutePlanner(mesh.engines["n1"].view)
        assert planner.find_route("n1", "n3") == ["n1", "n2", "n3"]

    def test_disable_update_removes_the_direction(self):
        mesh = FloodMesh(RING)
        mesh.announce_all()
        n0 = mesh.engines["n0"]
        mesh.flood("n0", n0.update("n0--n1", "n1", 0, disabled=True))
        for engine in mesh.engines.values():
            directions = {(e.source, e.target)
                          for e in engine.view.edges()
                          if e.channel_id == "n0--n1"}
            assert directions == {("n1", "n0")}  # reverse half still up
