"""secp256k1 ECDSA in pure Python.

This is the same curve and signature scheme Teechain's implementation uses
(via libsecp256k1); we implement it directly so the reproduction has zero
native dependencies.  Features:

* RFC 6979 deterministic nonces — signatures are reproducible, which keeps
  every test and benchmark deterministic.
* Low-s normalisation (BIP 62), matching Bitcoin consensus rules.
* Jacobian-coordinate point arithmetic; every modular inverse is
  ``pow(x, -1, m)`` (extended Euclid, ~7x cheaper than the Fermat form).

There is exactly one scalar-multiplication path: ``u1*G + u2*Q``
(verification), ``k*G`` (signing, key derivation) and ``k*Q`` (ECDH) are
all one joint Strauss–Shamir ladder, with no stream for a zero scalar.
The secp256k1 endomorphism ``lambda*(x, y) = (beta*x, y)`` (GLV) splits
every scalar into two ~128-bit halves; each half is cut into 33-bit
chunks, one per *base* ``2^(33j) * Q`` of the point's table, and each
chunk is recoded in width-w NAF over the affine odd multiples of its
base — so the ladder runs ~34 doublings instead of 256 and every addition
in it is mixed.  Tables hold the plain multiples only; the ``lambda``
images cost one field multiply per queued addition.  Verification never
leaves Jacobian coordinates: it checks ``r * Z^2 == X (mod p)`` instead
of inverting ``Z``.

Tables of ``Q`` outlive the call in a bounded LRU keyed by the (public)
point, and are *promoted on reuse*: a key's first use builds the one-base
table a cacheless verify would build anyway (8 points, ~129 doublings in
the ladder) and keeps it; its second use builds the four-base table (32
points, ~130 group operations, ~6 KB) that every later use finds.  A key
seen once — a deposit key during chain validation, an account opening —
and a key population cycling through a cache too small for it therefore
cost what they always did; building the big table on every miss would
make each of those ~50 % dearer.  ``G`` has the same four-base shape from
the same builder, built once per process.

Tables are built lazily on first use (~4 ms and ~50 kB for the table of
``G``); nothing is computed at import.  The LRU holds at most 2048 keys,
~13 MB if every one is promoted.

Performance note: pure-Python ECDSA signs in roughly 0.3 ms and verifies
in roughly 0.45 ms against a promoted key, 0.75 ms against a new one
(libsecp256k1: tens of µs).  The DES benchmark harness therefore measures
protocol timing on the simulated clock and uses a calibrated CPU cost model
(see ``repro.bench.calibration``); the crypto here guarantees *correctness*
of every signature the protocols exchange.

Side channels: this code is **variable-time** by construction — Python
integers, data-dependent branches, wNAF digit patterns and table indices
all depend on secret scalars, as in any big-integer Python ladder.  The
table cache adds a dependence on which *public* keys were used recently,
nothing secret.  The simulated enclave makes no side-channel claim.
"""

from __future__ import annotations

import hashlib
import hmac
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.errors import InvalidKey, InvalidSignature
from repro.obs import get_metrics

# secp256k1 domain parameters.
P = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F
N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
A = 0
B = 7
GX = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
GY = 0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8

_HALF_N = N // 2

# A point is an (x, y) affine pair, or None for the point at infinity.
AffinePoint = Optional[Tuple[int, int]]
FinitePoint = Tuple[int, int]
# Jacobian points are (X, Y, Z) with x = X/Z^2, y = Y/Z^3.
JacobianPoint = Tuple[int, int, int]

_JACOBIAN_INFINITY: JacobianPoint = (0, 1, 0)


def _to_jacobian(point: AffinePoint) -> JacobianPoint:
    if point is None:
        return _JACOBIAN_INFINITY
    return (point[0], point[1], 1)


def _from_jacobian(point: JacobianPoint) -> AffinePoint:
    x, y, z = point
    if z == 0:
        return None
    z_inv = pow(z, -1, P)
    z_inv2 = z_inv * z_inv % P
    return (x * z_inv2 % P, y * z_inv2 * z_inv % P)


def _batch_normalise(points: Sequence[JacobianPoint]) -> List[FinitePoint]:
    """Affine forms of many finite Jacobian points for one inversion
    (Montgomery's trick: invert the product, peel factors off backwards)."""
    prefixes = []
    product = 1
    for _, _, z in points:
        prefixes.append(product)
        product = product * z % P
    inverse = pow(product, -1, P)
    affine: List[FinitePoint] = []
    for (x, y, z), prefix in zip(reversed(points), reversed(prefixes)):
        z_inv = inverse * prefix % P
        inverse = inverse * z % P
        z_inv2 = z_inv * z_inv % P
        affine.append((x * z_inv2 % P, y * z_inv2 * z_inv % P))
    affine.reverse()
    return affine


def _jacobian_double(point: JacobianPoint) -> JacobianPoint:
    # secp256k1 has no point of order two, so y == 0 never occurs on the
    # curve, and infinity (Z == 0) doubles to Z == 0 without a branch.
    x, y, z = point
    ysq = y * y % P
    s = x * ysq * 4 % P
    m = x * x * 3 % P  # a == 0 for secp256k1
    nx = (m * m - s - s) % P
    return (nx, (m * (s - nx) - ysq * ysq * 8) % P, y * z * 2 % P)


def _jacobian_add(p: JacobianPoint, q: JacobianPoint) -> JacobianPoint:
    if p[2] == 0:
        return q
    if q[2] == 0:
        return p
    x1, y1, z1 = p
    x2, y2, z2 = q
    z1z1 = z1 * z1 % P
    z2z2 = z2 * z2 % P
    u1 = x1 * z2z2 % P
    s1 = y1 * z2z2 * z2 % P
    h = x2 * z1z1 % P - u1
    r = y2 * z1z1 * z1 % P - s1
    if h == 0:
        if r != 0:
            return _JACOBIAN_INFINITY
        return _jacobian_double(p)
    hh = h * h % P
    hhh = h * hh
    v = u1 * hh
    nx = (r * r - hhh - v - v) % P
    return (nx, (r * (v - nx) - s1 * hhh) % P, h * z1 * z2 % P)


# A schedule lists, per bit position, the affine points to add there; its
# value is sum(2^i * sum(schedule[i])).
Schedule = List[Optional[List[FinitePoint]]]


def _evaluate(schedule: Schedule) -> JacobianPoint:
    """The value of ``schedule``: from the top bit down, double once per
    position and add that position's points.

    This is the one hot loop of the module — every scalar multiply ends
    here — so the doubling and the mixed addition (Z2 == 1, five
    multiplies fewer than _jacobian_add) are inlined on three locals: a
    call and a tuple per group operation is ~10 % of a verify.  An
    addition that meets infinity or a point with the same x takes the
    checked function instead.
    """
    x, y, z = _JACOBIAN_INFINITY
    p = P
    for slot in reversed(schedule):
        if z:
            ysq = y * y % p
            s = x * ysq * 4 % p
            m = x * x * 3 % p
            x = (m * m - s - s) % p
            z = y * z * 2 % p
            y = (m * (s - x) - ysq * ysq * 8) % p
        if slot:
            for qx, qy in slot:
                zz = z * z % p
                h = qx * zz % p - x
                if not (h and z):
                    x, y, z = _jacobian_add((x, y, z), (qx, qy, 1))
                    continue
                r = qy * zz * z % p - y
                hh = h * h % p
                hhh = h * hh
                v = x * hh
                x = (r * r - hhh - v - v) % p
                y = (r * (v - x) - y * hhh) % p
                z = h * z % p
    return (x, y, z)


# -- the joint GLV / wNAF ladder -------------------------------------------
#
# secp256k1 has an efficiently computable endomorphism: with BETA a
# primitive cube root of unity mod P and LAMBDA the matching one mod N,
# LAMBDA * (x, y) == (BETA * x, y).  Writing k = k1 + k2 * LAMBDA (mod N)
# with |k1|, |k2| < 2^129 turns one 256-bit multiply into two 128-bit
# ones that share their doublings (Gallant–Lambert–Vanstone, CRYPTO 2001).
# (A1, B1), (A2, B2) is the reduced basis of the lattice
# {(a, b) : a + b * LAMBDA == 0 mod N}, from the extended Euclidean
# algorithm on (N, LAMBDA) — Guide to Elliptic Curve Cryptography,
# Alg. 3.74; the values equal libsecp256k1's and are re-derived from
# their defining equations in tests/test_crypto_ecdsa.py.

_LAMBDA = 0x5363AD4CC05C30E0A5261C028812645A122E22EA20816678DF02967C1B23BD72
_BETA = 0x7AE96A2B657C07106E64479EAC3434E99CF0497512F58995C1396C28719501EE
_GLV_A1 = 0x3086D221A7D46BCDE86C90E49284EB15
_GLV_B1 = -0xE4437ED6010E88286F547FA90ABFE4C3
_GLV_A2 = 0x114CA50F7A8E2F3F657C1108D9D44CFD8
_GLV_B2 = _GLV_A1

# wNAF widths: digits are odd, |d| < 2^(width - 1), at most one in any
# `width` consecutive bits.  The table of Q is kept small (8 points a base:
# building it is on the clock of a key's first and second use); G's is
# built once, so it is wider.
_Q_WIDTH = 5
_G_WIDTH = 8

# A table may hold several bases, B_j = 2^(_CHUNK_BITS * j) * Q with the
# odd multiples of each: a GLV half h = sum(c_j * 2^(_CHUNK_BITS * j)) is
# then sum(c_j * B_j), every c_j its own wNAF stream on the same ~33 bit
# positions, so the shared ladder doubles ~34 times instead of ~129.
# _BASES * _CHUNK_BITS = 132 covers the 129 bits of a half.
_CHUNK_BITS = 33
_CHUNK_MASK = (1 << _CHUNK_BITS) - 1
_BASES = 4

# Tables of Q outlive the call in a bounded LRU keyed by the affine point.
# Full of promoted entries (32 points, ~6.3 KB each) it holds ~13 MB;
# DESIGN.md section 16 states the budget: <= 16 MB.
_Q_TABLE_CACHE_SIZE = 2048

# rows[j][i] == (2i + 1) * 2^(_CHUNK_BITS * j) * point, affine.
Table = List[List[FinitePoint]]


def _glv_split(scalar: int) -> Tuple[int, int]:
    """``(k1, k2)`` with ``k1 + k2 * LAMBDA == scalar (mod N)`` and both
    halves (either sign) below 2^129 in magnitude, for ``0 <= scalar < N``.

    Babai rounding: the lattice vector nearest ``(scalar, 0)`` is
    ``c1 * (A1, B1) + c2 * (A2, B2)``; the remainder is the short pair.
    """
    c1 = (_GLV_B2 * scalar + _HALF_N) // N
    c2 = (-_GLV_B1 * scalar + _HALF_N) // N
    return (scalar - c1 * _GLV_A1 - c2 * _GLV_A2,
            -c1 * _GLV_B1 - c2 * _GLV_B2)


def _endomorphism(points: Sequence[FinitePoint]) -> List[FinitePoint]:
    """``LAMBDA * p`` for each affine ``p``: one field multiply apiece."""
    return [(x * _BETA % P, y) for x, y in points]


def _odd_multiples_table(point: FinitePoint, width: int, bases: int) -> Table:
    """The width-``width`` wNAF table of ``point`` over ``bases`` bases:
    ``[1, 3, ..., 2^(width - 1) - 1] * 2^(_CHUNK_BITS * j) * point`` for
    each ``j < bases``, all affine for one inversion."""
    count = 1 << (width - 2)
    multiples: List[JacobianPoint] = []
    base: JacobianPoint = (point[0], point[1], 1)
    for index in range(bases):
        if index:
            for _ in range(_CHUNK_BITS):
                base = _jacobian_double(base)
        twice = _jacobian_double(base)
        entry = base
        for _ in range(count - 1):
            multiples.append(entry)
            entry = _jacobian_add(entry, twice)
        multiples.append(entry)
    affine = _batch_normalise(multiples)
    return [affine[start:start + count]
            for start in range(0, len(affine), count)]


@lru_cache(maxsize=None)
def _generator_table() -> Table:
    """The multi-base table of G, built once per process."""
    return _odd_multiples_table((GX, GY), _G_WIDTH, _BASES)


class _TableCache:
    """Bounded LRU of verification tables, promoted on reuse.

    A point's first use builds what a cacheless verify would build anyway
    (one base) and keeps it; its second use replaces that with the
    ``_BASES``-base table, which every later use finds.  One-shot keys, and
    a population cycling through a cache too small for it, therefore never
    cost more than building per call; only a key seen twice pays for the
    table that makes its third verify cheap.
    """

    def __init__(self, size: int) -> None:
        self.size = size
        self._tables: "OrderedDict[FinitePoint, Table]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._tables)

    def table(self, point: FinitePoint) -> Table:
        """The table to use for ``point`` now; ``point`` must be on the
        curve (callers validate: the cache never holds an invalid key)."""
        with self._lock:
            table = self._tables.get(point)
            if table is None:
                state, bases = "first", 1
            elif len(table) == 1:
                state, bases = "promoted", _BASES
            else:
                state, bases = "hit", 0
            if bases:
                table = _odd_multiples_table(point, _Q_WIDTH, bases)
                self._tables[point] = table
                if len(self._tables) > self.size:
                    self._tables.popitem(last=False)
            self._tables.move_to_end(point)
        metrics = get_metrics()
        if metrics.enabled:
            metrics.inc(f"crypto.verify_table[{state}]")
        return table


_Q_TABLES = _TableCache(_Q_TABLE_CACHE_SIZE)


def _schedule_wnaf(schedule: Schedule, scalar: int,
                   odd_multiples: Sequence[FinitePoint], width: int) -> None:
    """Recode ``scalar`` (either sign) in width-``width`` NAF and, for each
    non-zero digit ``d`` at bit ``i``, queue the point ``d * base`` in
    ``schedule[i]`` (``odd_multiples[j] == (2j + 1) * base``)."""
    negate = scalar < 0
    if negate:
        scalar = -scalar
    window = 1 << width
    position = 0
    while scalar:
        zeros = (scalar & -scalar).bit_length() - 1
        scalar >>= zeros
        position += zeros
        digit = scalar & (window - 1)  # odd, because scalar is
        if digit & (window >> 1):
            digit -= window
        scalar -= digit  # now a multiple of `window`
        point = odd_multiples[abs(digit) >> 1]
        if (digit < 0) != negate:
            point = (point[0], P - point[1])
        slot = schedule[position]
        if slot is None:
            schedule[position] = [point]
        else:
            slot.append(point)


def _chunks(half: int, table: Table) -> Iterator[Tuple[int, List[FinitePoint]]]:
    """``half`` (either sign) as one signed chunk per base of ``table``:
    ``_CHUNK_BITS`` bits each, the last base taking whatever is left — all
    of it when the table has a single base."""
    sign = -1 if half < 0 else 1
    magnitude = abs(half)
    for row in table[:-1]:
        yield sign * (magnitude & _CHUNK_MASK), row
        magnitude >>= _CHUNK_BITS
    yield sign * magnitude, table[-1]


def _jacobian_multiply_sum(g_scalar: int, q_scalar: int,
                           q_point: AffinePoint) -> JacobianPoint:
    """``g_scalar * G + q_scalar * q_point`` in one joint ladder.

    Each scalar is GLV-split, each half cut into one chunk per base of its
    point's table, each chunk wNAF-recoded onto the bit positions of a
    shared schedule; the ladder then doubles once per bit and adds whatever
    the schedule holds there.  Tables store the plain multiples only: the
    LAMBDA halves are scheduled apart and mapped through the endomorphism
    (one field multiply per queued point) as the two schedules merge.  A
    zero scalar contributes no stream, so ``k * Q`` is the same ladder with
    the G streams empty.
    """
    operands = []  # (scalar, table, width)
    g_scalar %= N
    if g_scalar:
        operands.append((g_scalar, _generator_table(), _G_WIDTH))
    q_scalar %= N
    if q_scalar and q_point is not None:
        operands.append((q_scalar, _Q_TABLES.table(q_point), _Q_WIDTH))
    # One wNAF stream per chunk; `image` marks the chunks of a LAMBDA
    # half, whose points are still to be mapped through the endomorphism.
    streams = [(chunk, row, width, image)
               for scalar, table, width in operands
               for image, half in enumerate(_glv_split(scalar))
               for chunk, row in _chunks(half, table)]
    bits = max((abs(chunk).bit_length() for chunk, _, _, _ in streams),
               default=0)
    schedule: Schedule = [None] * (bits + 1)
    images: Schedule = [None] * (bits + 1)
    for chunk, row, width, image in streams:
        _schedule_wnaf(images if image else schedule, chunk, row, width)
    for position, slot in enumerate(images):
        if slot:
            schedule[position] = (schedule[position] or []) + _endomorphism(slot)
    return _evaluate(schedule)


def point_multiply(scalar: int, point: AffinePoint = (GX, GY)) -> AffinePoint:
    """Scalar multiplication ``scalar * point`` (defaults to the generator)."""
    if point == (GX, GY):
        return _from_jacobian(_jacobian_multiply_sum(scalar, 0, None))
    return _from_jacobian(_jacobian_multiply_sum(0, scalar, point))


def point_add(p: AffinePoint, q: AffinePoint) -> AffinePoint:
    """Affine point addition."""
    return _from_jacobian(_jacobian_add(_to_jacobian(p), _to_jacobian(q)))


def is_on_curve(point: AffinePoint) -> bool:
    """Whether ``point`` is infinity or a canonical affine point —
    coordinates in ``[0, p)`` — satisfying y^2 = x^3 + 7 (mod p)."""
    if point is None:
        return True
    x, y = point
    if not (0 <= x < P and 0 <= y < P):
        # x + P names the same point as x; admitting it would give one
        # key two unequal encodings.
        return False
    return (y * y - x * x * x - B) % P == 0


@dataclass(frozen=True)
class Signature:
    """An ECDSA signature ``(r, s)`` with low-s normalisation applied."""

    r: int
    s: int

    def to_bytes(self) -> bytes:
        """Fixed-width 64-byte encoding (32-byte r || 32-byte s)."""
        return self.r.to_bytes(32, "big") + self.s.to_bytes(32, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "Signature":
        if len(data) != 64:
            raise InvalidSignature(f"signature must be 64 bytes, got {len(data)}")
        return cls(int.from_bytes(data[:32], "big"), int.from_bytes(data[32:], "big"))


def _bits_to_int(data: bytes) -> int:
    value = int.from_bytes(data, "big")
    excess = len(data) * 8 - N.bit_length()
    if excess > 0:
        value >>= excess
    return value


def _rfc6979_nonces(private_key: int, digest: bytes) -> Iterator[int]:
    """Deterministic nonce candidates per RFC 6979 with HMAC-SHA256.

    Yields the §3.2 candidate sequence.  §3.2h: every rejection — whether
    the candidate is out of ``[1, N)`` *or* produced an unusable signature
    (r == 0 / s == 0) — advances K and V through the same HMAC update
    before the next candidate is generated.
    """
    holen = 32
    x = private_key.to_bytes(32, "big")
    h1 = _bits_to_int(digest) % N
    h1_bytes = h1.to_bytes(32, "big")
    v = b"\x01" * holen
    k = b"\x00" * holen
    k = hmac.new(k, v + b"\x00" + x + h1_bytes, hashlib.sha256).digest()
    v = hmac.new(k, v, hashlib.sha256).digest()
    k = hmac.new(k, v + b"\x01" + x + h1_bytes, hashlib.sha256).digest()
    v = hmac.new(k, v, hashlib.sha256).digest()
    while True:
        v = hmac.new(k, v, hashlib.sha256).digest()
        candidate = _bits_to_int(v)
        if 1 <= candidate < N:
            yield candidate
        k = hmac.new(k, v + b"\x00", hashlib.sha256).digest()
        v = hmac.new(k, v, hashlib.sha256).digest()


def _rfc6979_nonce(private_key: int, digest: bytes) -> int:
    """First RFC 6979 nonce candidate (retries use :func:`_rfc6979_nonces`)."""
    return next(_rfc6979_nonces(private_key, digest))


def sign(private_key: int, digest: bytes) -> Signature:
    """Sign a 32-byte ``digest`` with ``private_key``.

    The caller hashes; this function signs the digest directly, mirroring
    libsecp256k1's ``ecdsa_sign``.
    """
    if not 1 <= private_key < N:
        raise InvalidKey("private key out of range")
    if len(digest) != 32:
        raise InvalidSignature(f"digest must be 32 bytes, got {len(digest)}")
    metrics = get_metrics()
    if metrics.enabled:
        metrics.inc("crypto.sign")
    z = _bits_to_int(digest)
    for k in _rfc6979_nonces(private_key, digest):
        point = point_multiply(k)
        assert point is not None
        r = point[0] % N
        if r == 0:
            continue  # §3.2h: next candidate from the updated K/V chain
        s = pow(k, -1, N) * (z + r * private_key) % N
        if s == 0:
            continue
        if s > _HALF_N:  # low-s normalisation (BIP 62)
            s = N - s
        return Signature(r, s)
    raise InvalidSignature("nonce generation exhausted")  # pragma: no cover


def verify(public_key: Tuple[int, int], digest: bytes, signature: Signature) -> bool:
    """Verify ``signature`` over ``digest`` against an affine public key.

    Returns ``False`` (never raises) for invalid signatures so callers can
    treat verification as a predicate; malformed *keys* raise
    :class:`InvalidKey` because they indicate caller bugs, not attacks.
    """
    if public_key is None or not is_on_curve(public_key):
        raise InvalidKey("public key is not on secp256k1")
    if len(digest) != 32:
        return False
    metrics = get_metrics()
    if metrics.enabled:
        metrics.inc("crypto.verify")
    r, s = signature.r, signature.s
    if not (1 <= r < N and 1 <= s < N):
        return False
    if s > _HALF_N:
        # BIP 62 low-s rule: our signer always emits low-s (see
        # Signature), so a high-s signature is a malleated duplicate and
        # must not verify — anything persisted or gossiped would
        # otherwise admit two encodings of the same authorisation.
        return False
    s_inv = pow(s, -1, N)
    return _x_matches_r(
        _jacobian_multiply_sum(_bits_to_int(digest) * s_inv, r * s_inv,
                               public_key), r)


def _x_matches_r(point: JacobianPoint, r: int) -> bool:
    """Whether the affine x of ``point``, reduced mod N, equals ``r`` —
    without inverting Z.  x = X / Z^2 lies in [0, P) and N < P < 2N, so
    x mod N == r  iff  x == r, or x == r + N when that is still below P.
    """
    x, _, z = point
    if z == 0:
        return False
    zz = z * z % P
    if (r * zz - x) % P == 0:
        return True
    return r + N < P and ((r + N) * zz - x) % P == 0


def derive_public_key(private_key: int) -> Tuple[int, int]:
    """Compute the affine public key for ``private_key``."""
    if not 1 <= private_key < N:
        raise InvalidKey("private key out of range")
    point = point_multiply(private_key)
    assert point is not None
    return point
