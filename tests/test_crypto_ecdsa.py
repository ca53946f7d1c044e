"""secp256k1 ECDSA: curve arithmetic, RFC 6979 determinism, low-s,
verification edge cases, and cross-key rejection."""

import subprocess
import sys
import threading
import time
from functools import lru_cache

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import obs
from repro.crypto import ecdsa, keys
from repro.crypto.ecdsa import GX, GY, N, P, Signature
from repro.crypto.hashing import sha256
from repro.crypto.keys import PublicKey
from repro.errors import InvalidKey, InvalidSignature

KEY = 0x1E99423A4ED27608A15A2616A2B0E9E52CED330AC530EDCC32C8FFC6A526AEDD
DIGEST = sha256(b"teechain")
G = (GX, GY)
# Scalars where a recoding, a split or a window boundary can go wrong.
EDGE_SCALARS = [0, 1, 2, N - 1, N, N + 1, ecdsa._LAMBDA,
                (1 << 128) - 1, (1 << 128) + 1]


# -- the oracle ------------------------------------------------------------
#
# The textbook ladder the kernel replaced: Jacobian double-and-add, one
# bit at a time, Fermat inversions, no tables, no endomorphism.  It shares
# no code with repro.crypto.ecdsa, so agreement is evidence.

def _naive_double(point):
    x, y, z = point
    if z == 0 or y == 0:
        return (0, 1, 0)
    ysq = (y * y) % P
    s = (4 * x * ysq) % P
    m = (3 * x * x) % P
    nx = (m * m - 2 * s) % P
    return (nx, (m * (s - nx) - 8 * ysq * ysq) % P, (2 * y * z) % P)


def _naive_add(p, q):
    if p[2] == 0:
        return q
    if q[2] == 0:
        return p
    x1, y1, z1 = p
    x2, y2, z2 = q
    z1z1 = (z1 * z1) % P
    z2z2 = (z2 * z2) % P
    u1 = (x1 * z2z2) % P
    u2 = (x2 * z1z1) % P
    s1 = (y1 * z2 * z2z2) % P
    s2 = (y2 * z1 * z1z1) % P
    if u1 == u2:
        return _naive_double(p) if s1 == s2 else (0, 1, 0)
    h = (u2 - u1) % P
    i = (4 * h * h) % P
    j = (h * i) % P
    r = (2 * (s2 - s1)) % P
    v = (u1 * i) % P
    nx = (r * r - j - 2 * v) % P
    return (nx, (r * (v - nx) - 2 * s1 * j) % P, (2 * h * z1 * z2) % P)


def _naive_affine(point):
    x, y, z = point
    if z == 0:
        return None
    z_inv = pow(z, P - 2, P)
    return ((x * z_inv * z_inv) % P, (y * z_inv * z_inv * z_inv) % P)


def _naive_multiply_jacobian(scalar, point):
    scalar %= N
    result = (0, 1, 0)
    addend = (0, 1, 0) if point is None else (point[0], point[1], 1)
    while scalar:
        if scalar & 1:
            result = _naive_add(result, addend)
        addend = _naive_double(addend)
        scalar >>= 1
    return result


def naive_multiply(scalar, point=G):
    return _naive_affine(_naive_multiply_jacobian(scalar, point))


def naive_multiply_sum(g_scalar, q_scalar, q_point):
    return _naive_affine(_naive_add(
        _naive_multiply_jacobian(g_scalar, G),
        _naive_multiply_jacobian(q_scalar, q_point)))


def naive_verify(public_key, digest, signature):
    """Textbook ECDSA verification over the oracle ladder."""
    r, s = signature.r, signature.s
    if not (1 <= r < N and 1 <= s <= N // 2):
        return False
    s_inv = pow(s, N - 2, N)
    z = int.from_bytes(digest, "big")
    point = naive_multiply_sum(z * s_inv, r * s_inv, public_key)
    return point is not None and point[0] % N == r


def negate(point):
    return (point[0], P - point[1])

# Published RFC 6979 test vectors for secp256k1 with HMAC-SHA256 (the
# widely cross-checked set used by trezor-crypto, haskoin, and
# python-ecdsa): (private key, ASCII message, expected k, r, s).
RFC6979_VECTORS = [
    (1, b"Satoshi Nakamoto",
     0x8F8A276C19F4149656B280621E358CCE24F5F52542772691EE69063B74F15D15,
     0x934B1EA10A4B3C1757E2B0C017D0B6143CE3C9A7E6A4A49860D7A6AB210EE3D8,
     0x2442CE9D2B916064108014783E923EC36B49743E2FFA1C4496F01A512AAFD9E5),
    (1, b"All those moments will be lost in time, like tears in rain. "
        b"Time to die...",
     0x38AA22D72376B4DBC472E06C3BA403EE0A394DA63FC58D88686C611ABA98D6B3,
     0x8600DBD41E348FE5C9465AB92D23E3DB8B98B873BEECD930736488696438CB6B,
     0x547FE64427496DB33BF66019DACBF0039C04199ABB0122918601DB38A72CFC21),
    (ecdsa.N - 1, b"Satoshi Nakamoto",
     0x33A19B60E25FB6F4435AF53A3D42D493644827367E6453928554F43E49AA6F90,
     0xFD567D121DB66E382991534ADA77A6BD3106F0A1098C231E47993447CD6AF2D0,
     0x6B39CD0EB1BC8603E159EF5C20A5C8AD685A45B06CE9BEBED3F153D10D93BED5),
    (0xF8B8AF8CE3C7CCA5E300D33939540C10D45CE001B8F252BFBC57BA0342904181,
     b"Alan Turing",
     0x525A82B70E67874398067543FD84C83D30C175FDC45FDEEE082FE13B1D7CFDF1,
     0x7063AE83E7F62BBB171798131B4A0564B956930092B33B07B395615D9EC7E15C,
     0x58DFCC1E00A35E1572F366FFE34BA0FC47DB1E7189759B9FB233C5B05AB388EA),
    (0xE91671C46231F833A6406CCBEA0E3E392C76C167BAC1CB013F6F1013980455C2,
     b"There is a computer disease that anybody who works with computers "
     b"knows about. It's a very serious disease and it interferes "
     b"completely with the work. The trouble with computers is that you "
     b"'play' with them!",
     0x1F4B84C23A86A221D233F2521BE018D9318639D5B8BBD6374A8A59232D16AD3D,
     0xB552EDD27580141F3B2A5463048CB7CD3E047B97C9F98076C32DBDF85A68718B,
     0x279FA72DD19BFAE05577E06C7C0C1900C371FCD5893F7E1D56A37D30174671F6),
]


class TestCurve:
    def test_generator_on_curve(self):
        assert ecdsa.is_on_curve((ecdsa.GX, ecdsa.GY))

    def test_infinity_on_curve(self):
        assert ecdsa.is_on_curve(None)

    def test_off_curve_point_detected(self):
        assert not ecdsa.is_on_curve((ecdsa.GX, ecdsa.GY + 1))

    def test_generator_order(self):
        assert ecdsa.point_multiply(ecdsa.N) is None

    def test_point_addition_commutes(self):
        p = ecdsa.point_multiply(7)
        q = ecdsa.point_multiply(11)
        assert ecdsa.point_add(p, q) == ecdsa.point_add(q, p)

    def test_addition_matches_multiplication(self):
        assert ecdsa.point_add(
            ecdsa.point_multiply(7), ecdsa.point_multiply(11)
        ) == ecdsa.point_multiply(18)

    def test_adding_inverse_gives_infinity(self):
        p = ecdsa.point_multiply(5)
        negated = (p[0], ecdsa.P - p[1])
        assert ecdsa.point_add(p, negated) is None

    def test_infinity_is_identity(self):
        p = ecdsa.point_multiply(9)
        assert ecdsa.point_add(p, None) == p
        assert ecdsa.point_add(None, p) == p

    def test_known_vector(self):
        # 2·G from the canonical secp256k1 test vectors.
        point = ecdsa.point_multiply(2)
        assert point[0] == int(
            "C6047F9441ED7D6D3045406E95C07CD85C778E4B8CEF3CA7ABAC09B95C709EE5",
            16,
        )


class TestSignVerify:
    def test_roundtrip(self):
        public = ecdsa.derive_public_key(KEY)
        signature = ecdsa.sign(KEY, DIGEST)
        assert ecdsa.verify(public, DIGEST, signature)

    def test_deterministic_rfc6979(self):
        assert ecdsa.sign(KEY, DIGEST) == ecdsa.sign(KEY, DIGEST)

    def test_different_digests_different_signatures(self):
        assert ecdsa.sign(KEY, DIGEST) != ecdsa.sign(KEY, sha256(b"other"))

    def test_low_s(self):
        signature = ecdsa.sign(KEY, DIGEST)
        assert signature.s <= ecdsa.N // 2

    def test_wrong_key_rejected(self):
        signature = ecdsa.sign(KEY, DIGEST)
        other = ecdsa.derive_public_key(KEY + 1)
        assert not ecdsa.verify(other, DIGEST, signature)

    def test_wrong_digest_rejected(self):
        public = ecdsa.derive_public_key(KEY)
        signature = ecdsa.sign(KEY, DIGEST)
        assert not ecdsa.verify(public, sha256(b"tampered"), signature)

    def test_zero_r_rejected(self):
        public = ecdsa.derive_public_key(KEY)
        assert not ecdsa.verify(public, DIGEST, Signature(0, 1))

    def test_out_of_range_s_rejected(self):
        public = ecdsa.derive_public_key(KEY)
        assert not ecdsa.verify(public, DIGEST, Signature(1, ecdsa.N))

    def test_bad_private_key_rejected(self):
        with pytest.raises(InvalidKey):
            ecdsa.sign(0, DIGEST)
        with pytest.raises(InvalidKey):
            ecdsa.sign(ecdsa.N, DIGEST)

    def test_bad_digest_length_rejected(self):
        with pytest.raises(InvalidSignature):
            ecdsa.sign(KEY, b"short")

    def test_off_curve_public_key_rejected(self):
        with pytest.raises(InvalidKey):
            ecdsa.verify((1, 1), DIGEST, ecdsa.sign(KEY, DIGEST))

    def test_signature_serialisation_roundtrip(self):
        signature = ecdsa.sign(KEY, DIGEST)
        assert Signature.from_bytes(signature.to_bytes()) == signature

    def test_signature_bad_length(self):
        with pytest.raises(InvalidSignature):
            Signature.from_bytes(b"\x00" * 63)


class TestRFC6979Vectors:
    """Pin signing to the published secp256k1 vectors so the windowed
    precomputed-G multiply (or any future arithmetic change) cannot
    silently alter signatures."""

    @pytest.mark.parametrize(
        "private_key,message,k,r,s", RFC6979_VECTORS,
        ids=[v[1][:20].decode() for v in RFC6979_VECTORS])
    def test_vector(self, private_key, message, k, r, s):
        digest = sha256(message)
        assert ecdsa._rfc6979_nonce(private_key, digest) == k
        signature = ecdsa.sign(private_key, digest)
        assert (signature.r, signature.s) == (r, s)
        public = ecdsa.derive_public_key(private_key)
        assert ecdsa.verify(public, digest, signature)


class TestNonceRetry:
    """RFC 6979 §3.2h: an unusable nonce (r == 0 or s == 0) must be
    retried by advancing the K/V HMAC chain, never by incrementing k."""

    def test_retry_rederives_via_hmac_chain(self, monkeypatch):
        real = ecdsa._rfc6979_nonces
        z = ecdsa._bits_to_int(DIGEST)
        # Engineer a first nonce that yields s == 0: with r fixed by
        # k_bad, pick the private key solving z + r*key ≡ 0 (mod N).
        k_bad = 7
        r_bad = ecdsa.point_multiply(k_bad)[0] % ecdsa.N
        key = (-z * pow(r_bad, ecdsa.N - 2, ecdsa.N)) % ecdsa.N

        def forced_first(private_key, digest):
            chain = real(private_key, digest)
            next(chain)  # drop the true first candidate...
            yield k_bad  # ...and force the unusable nonce instead
            yield from chain  # retries continue the updated-K/V chain

        monkeypatch.setattr(ecdsa, "_rfc6979_nonces", forced_first)
        signature = ecdsa.sign(key, DIGEST)

        chain = real(key, DIGEST)
        next(chain)
        k_second = next(chain)
        assert signature == _signature_from_nonce(key, z, k_second)
        # Regression: the old behaviour retried with k_bad + 1.
        assert signature != _signature_from_nonce(key, z, k_bad + 1)

    def test_retry_on_zero_s_still_verifies(self, monkeypatch):
        real = ecdsa._rfc6979_nonces
        z = ecdsa._bits_to_int(DIGEST)
        k_bad = 7
        r_bad = ecdsa.point_multiply(k_bad)[0] % ecdsa.N
        key = (-z * pow(r_bad, ecdsa.N - 2, ecdsa.N)) % ecdsa.N

        def forced_first(private_key, digest):
            chain = real(private_key, digest)
            next(chain)
            yield k_bad
            yield from chain

        monkeypatch.setattr(ecdsa, "_rfc6979_nonces", forced_first)
        signature = ecdsa.sign(key, DIGEST)
        assert ecdsa.verify(ecdsa.derive_public_key(key), DIGEST, signature)


def _signature_from_nonce(private_key, z, k):
    """Textbook ECDSA with an explicit nonce (test oracle)."""
    r = ecdsa.point_multiply(k)[0] % ecdsa.N
    s = (pow(k, ecdsa.N - 2, ecdsa.N) * (z + r * private_key)) % ecdsa.N
    if s > ecdsa.N // 2:
        s = ecdsa.N - s
    return ecdsa.Signature(r, s)


class TestLowSEnforcement:
    def test_flipped_s_no_longer_verifies(self):
        public = ecdsa.derive_public_key(KEY)
        signature = ecdsa.sign(KEY, DIGEST)
        flipped = Signature(signature.r, ecdsa.N - signature.s)
        # (r, N - s) is algebraically valid for the same digest — the
        # classic malleability — and must now be rejected outright.
        assert not ecdsa.verify(public, DIGEST, flipped)

    def test_low_s_boundary_accepted(self):
        # s == N//2 is the largest permitted value; only s > N//2 is
        # rejected, so a boundary signature must still pass range checks
        # (it fails the curve equation here, which is fine — we only
        # assert no false rejection before the algebra).
        public = ecdsa.derive_public_key(KEY)
        signature = ecdsa.sign(KEY, DIGEST)
        assert signature.s <= ecdsa.N // 2
        assert ecdsa.verify(public, DIGEST, signature)


# st.integers() over a 256-bit range draws mostly tiny values; 32 random
# bytes exercise every window and both GLV halves.  Values may exceed N:
# every multiply reduces its scalar.
scalars = st.binary(min_size=32, max_size=32).map(
    lambda data: int.from_bytes(data, "big"))
secrets = scalars.map(lambda value: value % (N - 1) + 1)


class TestFixedBaseMultiply:
    """``k * G`` through the ladder, on the table of G verify uses."""

    @pytest.mark.parametrize("scalar", EDGE_SCALARS + [
        15, 16, 17, 0xDEADBEEF, (1 << 255) + 12345, (1 << 256) - 1])
    def test_edge_scalars(self, scalar):
        assert ecdsa.point_multiply(scalar) == naive_multiply(scalar)

    @settings(max_examples=15, deadline=None)
    @given(scalars)
    def test_property_matches_oracle(self, scalar):
        assert ecdsa.point_multiply(scalar) == naive_multiply(scalar)


class TestGlvSplit:
    def test_constants_satisfy_their_definitions(self):
        lam, beta = ecdsa._LAMBDA, ecdsa._BETA
        # Primitive cube roots of unity in their fields...
        assert lam != 1 and pow(lam, 3, N) == 1
        assert beta != 1 and pow(beta, 3, P) == 1
        # ...that match each other: lambda * (x, y) == (beta * x, y).
        assert naive_multiply(lam) == (beta * GX % P, GY)
        # Both basis vectors lie in the lattice {a + b*lambda == 0 mod N}
        # and span it (determinant N).
        a1, b1, a2, b2 = (ecdsa._GLV_A1, ecdsa._GLV_B1,
                          ecdsa._GLV_A2, ecdsa._GLV_B2)
        assert (a1 + b1 * lam) % N == 0
        assert (a2 + b2 * lam) % N == 0
        assert a1 * b2 - a2 * b1 == N

    @pytest.mark.parametrize("scalar", [k % N for k in EDGE_SCALARS] + [
        N // 2, N // 2 + 1, (1 << 255), N - ecdsa._LAMBDA])
    def test_edge_scalars(self, scalar):
        self._check(scalar)

    @settings(max_examples=200, deadline=None)
    @given(scalars)
    def test_property_recombines_and_is_short(self, scalar):
        self._check(scalar % N)

    def test_both_signs_occur(self):
        signs = set()
        for seed in range(64):
            k1, k2 = ecdsa._glv_split(
                int.from_bytes(sha256(bytes([seed])), "big") % N)
            signs.add((k1 < 0, k2 < 0))
        assert len(signs) == 4

    @staticmethod
    def _check(scalar):
        k1, k2 = ecdsa._glv_split(scalar)
        assert (k1 + k2 * ecdsa._LAMBDA - scalar) % N == 0
        assert abs(k1) < 1 << 129 and abs(k2) < 1 << 129


class TestWnafSchedule:
    @settings(max_examples=100, deadline=None)
    @given(scalars.map(lambda value: (value >> 126) - (1 << 129)),
           st.integers(min_value=2, max_value=8))
    def test_property_digits_recombine(self, scalar, width):
        # Over the "curve" of plain integers: base 1, odd multiples
        # (2j + 1, marker); a queued (x, y) stands for +x, (x, P - y) for -x.
        odd_multiples = [(2 * j + 1, 1) for j in range(1 << (width - 2))]
        schedule = [None] * (abs(scalar).bit_length() + 1)
        ecdsa._schedule_wnaf(schedule, scalar, odd_multiples, width)
        total, positions = 0, []
        for position, slot in enumerate(schedule):
            if slot is not None:
                (value, marker), = slot
                total += (value if marker == 1 else -value) << position
                positions.append(position)
        assert total == scalar
        # Non-adjacency: non-zero digits are at least `width` bits apart.
        assert all(b - a >= width for a, b in zip(positions, positions[1:]))


class TestVariableBaseMultiply:
    """``k * Q`` and ``u1 * G + u2 * Q`` through the joint GLV/wNAF
    ladder, against the oracle."""

    Q = naive_multiply(KEY)

    @pytest.mark.parametrize("scalar", EDGE_SCALARS)
    def test_edge_scalars(self, scalar):
        assert ecdsa.point_multiply(scalar, self.Q) \
            == naive_multiply(scalar, self.Q)

    @pytest.mark.parametrize("u1", EDGE_SCALARS)
    @pytest.mark.parametrize("u2", EDGE_SCALARS)
    def test_edge_scalar_pairs(self, u1, u2):
        assert ecdsa._from_jacobian(
            ecdsa._jacobian_multiply_sum(u1, u2, self.Q)) \
            == naive_multiply_sum(u1, u2, self.Q)

    @settings(max_examples=25, deadline=None)
    @given(scalars, secrets)
    def test_property_multiply_matches_oracle(self, scalar, secret):
        point = naive_multiply(secret)
        assert ecdsa.point_multiply(scalar, point) \
            == naive_multiply(scalar, point)

    @settings(max_examples=25, deadline=None)
    @given(scalars, scalars, secrets)
    @example(5, 7, 1)        # Q == G
    @example(5, 7, N - 1)    # Q == -G
    def test_property_sum_matches_oracle(self, u1, u2, secret):
        point = naive_multiply(secret)
        assert ecdsa._from_jacobian(
            ecdsa._jacobian_multiply_sum(u1, u2, point)) \
            == naive_multiply_sum(u1, u2, point)

    def test_infinity_operand(self):
        assert ecdsa.point_multiply(5, None) is None
        assert ecdsa._from_jacobian(
            ecdsa._jacobian_multiply_sum(5, 7, None)) == naive_multiply(5)

    @pytest.mark.parametrize("point", [G, negate(G)], ids=["G", "-G"])
    @pytest.mark.parametrize("u1,u2", [(1, 1), (3, 3), (2, 1), (1, 2),
                                       (0xABCDEF, 0xABCDEF), (N - 1, 1)])
    def test_streams_collide_inside_the_ladder(self, point, u1, u2):
        # With Q == +-G the G and Q streams queue equal or opposite
        # points at the same bit: the add must fall through to the
        # doubling / infinity cases, not divide by zero silently.
        assert ecdsa._from_jacobian(
            ecdsa._jacobian_multiply_sum(u1, u2, point)) \
            == naive_multiply_sum(u1, u2, point)

    @pytest.mark.parametrize("secret", [1, 2, N - 1, KEY])
    @pytest.mark.parametrize("u2", [1, 2, ecdsa._LAMBDA, KEY])
    def test_cancelling_sum_is_infinity(self, secret, u2):
        # u1*G == -(u2*Q)  =>  the sum is the point at infinity.
        u1 = (-u2 * secret) % N
        result = ecdsa._jacobian_multiply_sum(u1, u2, naive_multiply(secret))
        assert result[2] == 0
        assert ecdsa._from_jacobian(result) is None
        assert not ecdsa._x_matches_r(result, 1)

    def test_ecdh_agrees_both_ways(self):
        a, b = KEY, KEY ^ 0xFFFF
        assert ecdsa.point_multiply(a, naive_multiply(b)) \
            == ecdsa.point_multiply(b, naive_multiply(a)) \
            == naive_multiply(a * b)


def scalar_with_halves(k1, k2):
    """The scalar whose GLV split is exactly ``(k1, k2)``."""
    scalar = (k1 + k2 * ecdsa._LAMBDA) % N
    assert ecdsa._glv_split(scalar) == (k1, k2)
    return scalar


@pytest.fixture
def tables(monkeypatch):
    """An empty table cache of the real size, for this test only."""
    cache = ecdsa._TableCache(ecdsa._Q_TABLE_CACHE_SIZE)
    monkeypatch.setattr(ecdsa, "_Q_TABLES", cache)
    return cache


# A key's table goes through three states; the n-th use of a fresh key
# meets the n-th of them.
TABLE_STATES = ["first use", "promotion", "promoted"]


def rows_cached(cache, point):
    table = cache._tables.get(point)
    return 0 if table is None else len(table)


class TestVerificationTables:
    """Tables of Q that outlive the call: one base on a key's first use,
    ``_BASES`` bases of ``_CHUNK_BITS``-bit chunks from its second."""

    C = ecdsa._CHUNK_BITS
    Q = naive_multiply(KEY)

    def test_shape_constants(self):
        # The bases cover a whole GLV half, carry included.
        assert ecdsa._BASES * self.C >= 130
        assert ecdsa._CHUNK_MASK == (1 << self.C) - 1

    @pytest.mark.parametrize("point,width,bases", [
        (Q, ecdsa._Q_WIDTH, 1), (Q, ecdsa._Q_WIDTH, ecdsa._BASES),
        (G, 4, ecdsa._BASES)])
    def test_builder_rows_are_odd_multiples_of_each_base(
            self, point, width, bases):
        table = ecdsa._odd_multiples_table(point, width, bases)
        assert len(table) == bases
        for index, row in enumerate(table):
            assert len(row) == 1 << (width - 2)
            base = naive_multiply(1 << (self.C * index), point)
            assert row[0] == base
            assert row[1] == naive_multiply(3, base)
            assert row[-1] == naive_multiply(2 * len(row) - 1, base)

    def test_generator_table_comes_from_the_same_builder(self):
        assert ecdsa._generator_table() == ecdsa._odd_multiples_table(
            G, ecdsa._G_WIDTH, ecdsa._BASES)

    def test_a_key_is_promoted_on_its_second_use(self, tables):
        assert rows_cached(tables, self.Q) == 0
        for expected in (1, ecdsa._BASES, ecdsa._BASES):
            assert ecdsa.point_multiply(5, self.Q) == naive_multiply(5, self.Q)
            assert rows_cached(tables, self.Q) == expected
        assert len(tables) == 1

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(scalars, scalars), min_size=3, max_size=3),
           secrets)
    @example([(5, 7)] * 3, 1)        # Q == G
    @example([(5, 7)] * 3, N - 1)    # Q == -G
    def test_property_sum_matches_oracle_in_every_state(self, pairs, secret):
        point = naive_multiply(secret)
        ecdsa._Q_TABLES._tables.clear()
        for u1, u2 in pairs:
            assert ecdsa._from_jacobian(
                ecdsa._jacobian_multiply_sum(u1, u2, point)) \
                == naive_multiply_sum(u1, u2, point)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(scalars, min_size=3, max_size=3), secrets)
    def test_property_multiply_matches_oracle_in_every_state(
            self, multipliers, secret):
        point = naive_multiply(secret)
        ecdsa._Q_TABLES._tables.clear()
        for scalar in multipliers:
            assert ecdsa.point_multiply(scalar, point) \
                == naive_multiply(scalar, point)

    # Halves (k1, k2) placed on the chunk boundaries of a promoted table.
    BOUNDARY_HALVES = [
        ((1 << C) - 1, 1),                # exactly c bits; all-ones: the
                                          # wNAF carries out of the chunk
        ((1 << 2 * C) - 1, (1 << C) - 1),   # exactly 2c bits, carries in both
        ((1 << 3 * C) - 1, 1 << C),         # exactly 3c bits
        (1 << C, 1 << 2 * C),             # one bit above a boundary: the
        (1 << 3 * C, 1 << 2 * C),         # chunks below it are zero
        ((1 << 2 * C) + 1, 0),            # a zero chunk between two others
        (-((1 << C) - 1), (1 << C) - 1),  # negative halves, either side
        ((1 << 2 * C) - 1, -((1 << 2 * C) - 1)),
        (-(1 << C), -(1 << 3 * C)),
        ((1 << C) - 16, (1 << C) + 16),   # a digit window straddling c
        ((1 << 126) - 1, -((1 << 126) - 1)),  # every chunk full
    ]

    BOUNDARY_SCALARS = [scalar_with_halves(*halves)
                        for halves in BOUNDARY_HALVES]

    @pytest.mark.parametrize("state", range(3), ids=TABLE_STATES)
    @pytest.mark.parametrize("scalar", EDGE_SCALARS + BOUNDARY_SCALARS)
    def test_edge_and_boundary_scalars_in_every_state(
            self, tables, scalar, state):
        for _ in range(state):
            ecdsa.point_multiply(3, self.Q)
        assert ecdsa.point_multiply(scalar, self.Q) \
            == naive_multiply(scalar, self.Q)
        # G is chunked the same way, always.
        assert ecdsa._from_jacobian(
            ecdsa._jacobian_multiply_sum(scalar, scalar, self.Q)) \
            == naive_multiply_sum(scalar, scalar, self.Q)

    def test_a_carry_out_of_a_chunk_lands_on_the_next_bit(self):
        # 2^c - 1 recodes as +2^c - 1: the top digit sits at bit c, one
        # past the chunk, so the schedule needs c + 1 positions.
        chunk = (1 << self.C) - 1
        schedule = [None] * (chunk.bit_length() + 1)
        ecdsa._schedule_wnaf(schedule, chunk, [(1, 1)] * 8, ecdsa._Q_WIDTH)
        assert [i for i, slot in enumerate(schedule) if slot] == [0, self.C]

    @pytest.mark.parametrize("state", range(3), ids=TABLE_STATES)
    @pytest.mark.parametrize("point", [G, negate(G)], ids=["G", "-G"])
    def test_streams_collide_in_every_state(self, tables, point, state):
        for _ in range(state):
            ecdsa.point_multiply(3, point)
        for u1, u2 in [(1, 1), (3, 3), (2, 1), (0xABCDEF, 0xABCDEF),
                       (1 << self.C, 1), (1, 1 << self.C), (N - 1, 1)]:
            assert ecdsa._from_jacobian(
                ecdsa._jacobian_multiply_sum(u1, u2, point)) \
                == naive_multiply_sum(u1, u2, point)

    @pytest.mark.parametrize("state", range(3), ids=TABLE_STATES)
    @pytest.mark.parametrize("secret", [1, N - 1, 1 << C, KEY])
    def test_cancelling_sum_is_infinity_in_every_state(
            self, tables, secret, state):
        point = naive_multiply(secret)
        for _ in range(state):
            ecdsa.point_multiply(3, point)
        for u2 in (1, ecdsa._LAMBDA, KEY):
            result = ecdsa._jacobian_multiply_sum(
                (-u2 * secret) % N, u2, point)
            assert result[2] == 0
            assert not ecdsa._x_matches_r(result, 1)

    def test_verify_answers_alike_in_every_state(self, tables):
        signature = ecdsa.sign(KEY, DIGEST)
        z = int.from_bytes(DIGEST, "big")
        cases = [
            (DIGEST, signature, True),
            (DIGEST, Signature(signature.r, N - signature.s), False),  # high s
            (DIGEST, Signature(signature.r, signature.s ^ 1), False),
            (DIGEST, Signature(signature.r ^ 1, signature.s), False),
            (sha256(b"tampered"), signature, False),
            # u1*G + u2*Q cancels to infinity.
            (DIGEST, Signature((-z * pow(KEY, -1, N)) % N, 1), False),
        ]
        for digest, candidate, expected in cases:
            assert naive_verify(self.Q, digest, candidate) is expected
        # Every verify that reaches the ladder moves the table one state
        # on; rotating the order brings each case to each state.
        for start in range(len(cases)):
            tables._tables.clear()
            for digest, candidate, expected in (cases[start:] + cases)[:8]:
                assert ecdsa.verify(self.Q, digest, candidate) is expected
            assert rows_cached(tables, self.Q) == ecdsa._BASES
        # ...and against the wrong key, whatever its table state.
        other = naive_multiply(KEY + 1)
        for _ in range(3):
            assert not ecdsa.verify(other, DIGEST, signature)

    @settings(max_examples=10, deadline=None)
    @given(secrets, st.binary(max_size=32))
    def test_property_verify_agrees_with_oracle_in_every_state(
            self, secret, message):
        digest = sha256(message)
        public = naive_multiply(secret)
        good = ecdsa.sign(secret, digest)
        ecdsa._Q_TABLES._tables.clear()
        for _ in TABLE_STATES:
            for candidate in (good, Signature(good.r, good.s ^ 1),
                              Signature(good.r, N - good.s)):
                assert ecdsa.verify(public, digest, candidate) \
                    == naive_verify(public, digest, candidate)


class TestTableCache:
    def _use(self, secret):
        point = naive_multiply(secret)
        assert ecdsa.point_multiply(7, point) == naive_multiply(7 * secret)
        return point

    def test_size_stays_bounded_and_evicts_least_recent(self, monkeypatch):
        cache = ecdsa._TableCache(4)
        monkeypatch.setattr(ecdsa, "_Q_TABLES", cache)
        points = [self._use(secret) for secret in range(2, 6)]
        self._use(2)                       # refresh the oldest
        points.append(self._use(6))        # evicts secret 3, not 2
        assert len(cache) == 4
        assert [rows_cached(cache, point) for point in points] \
            == [ecdsa._BASES, 0, 1, 1, 1]
        for secret in range(7, 40):
            self._use(secret)
        assert len(cache) == 4

    def test_evicted_key_verifies_again_from_scratch(self, monkeypatch):
        cache = ecdsa._TableCache(2)
        monkeypatch.setattr(ecdsa, "_Q_TABLES", cache)
        public = naive_multiply(KEY)
        signature = ecdsa.sign(KEY, DIGEST)
        for _ in range(3):
            assert ecdsa.verify(public, DIGEST, signature)
        assert rows_cached(cache, public) == ecdsa._BASES
        self._use(2), self._use(3)
        assert rows_cached(cache, public) == 0
        # Back in as a first use: eviction forgets the promotion.
        assert ecdsa.verify(public, DIGEST, signature)
        assert rows_cached(cache, public) == 1
        assert not ecdsa.verify(public, DIGEST,
                                Signature(signature.r, signature.s ^ 1))
        assert rows_cached(cache, public) == ecdsa._BASES
        assert ecdsa.verify(public, DIGEST, signature)

    def test_threads_share_the_cache_without_losing_its_bound(
            self, monkeypatch):
        # More threads than cores, a cache smaller than the key set, and a
        # switch interval short enough to interleave inside a lookup: every
        # answer must still be right and the bound must hold throughout.
        cache = ecdsa._TableCache(4)
        monkeypatch.setattr(ecdsa, "_Q_TABLES", cache)
        items = []
        for secret in range(2, 8):
            digest = sha256(b"stress %d" % secret)
            items.append((naive_multiply(secret), digest,
                          ecdsa.sign(secret, digest)))
        failures, oversize = [], []
        deadline = time.monotonic() + 1.0

        def worker(offset):
            step = 0
            while time.monotonic() < deadline and not failures:
                public, digest, signature = items[(offset + step) % len(items)]
                bad = Signature(signature.r, signature.s ^ 1)
                if (not ecdsa.verify(public, digest, signature)
                        or ecdsa.verify(public, digest, bad)):
                    failures.append((offset, step))
                # Read under the cache's lock: inside ``table`` the length
                # is size + 1 between insert and evict, which an unlocked
                # reader sees whenever a profiler adds switch points there.
                with cache._lock:
                    if len(cache) > cache.size:
                        oversize.append(len(cache))
                step += 1 + offset % 2

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(index,))
                       for index in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures and not oversize
        assert 0 < len(cache) <= cache.size

    def test_real_cache_size_and_footprint_budget(self):
        cache = ecdsa._Q_TABLES
        assert cache.size == ecdsa._Q_TABLE_CACHE_SIZE
        promoted = ecdsa._odd_multiples_table(
            naive_multiply(KEY), ecdsa._Q_WIDTH, ecdsa._BASES)
        # Key tuple, table and points: < 6.5 KB a promoted key (plain
        # multiples only: the LAMBDA images are derived per verify), and
        # the whole cache, were every entry promoted, <= 16 MB.
        per_key = deep_size(promoted) + deep_size(naive_multiply(KEY)) + 128
        assert per_key < 6656
        assert per_key * cache.size <= 16 << 20

    @pytest.mark.parametrize("key", [None, (1, 1), (GX, GY + 1), (GX + P, GY)])
    def test_invalid_keys_never_enter(self, tables, key):
        for _ in range(2):
            with pytest.raises(InvalidKey):
                ecdsa.verify(key, DIGEST, ecdsa.sign(KEY, DIGEST))
        assert len(tables) == 0

    def test_rejected_signatures_build_nothing(self, tables):
        public = naive_multiply(KEY)
        assert not ecdsa.verify(public, DIGEST, Signature(0, 1))
        assert not ecdsa.verify(public, DIGEST[:31], ecdsa.sign(KEY, DIGEST))
        assert not ecdsa.verify(public, DIGEST, Signature(1, N - 1))  # high s
        assert len(tables) == 0
        # Neither does a multiply that never touches the point.
        assert ecdsa.point_multiply(0, public) is None
        assert ecdsa.point_multiply(5, None) is None
        assert len(tables) == 0

    def test_counters_follow_the_table_states(self, tables):
        public = naive_multiply(KEY)
        other = naive_multiply(KEY + 1)
        signature = ecdsa.sign(KEY, DIGEST)
        with obs.collecting() as (registry, _):
            for _ in range(5):
                assert ecdsa.verify(public, DIGEST, signature)
            assert not ecdsa.verify(other, DIGEST, signature)
            assert not ecdsa.verify(public, DIGEST, Signature(0, 1))
            counters = registry.snapshot()["counters"]
        assert counters["crypto.verify"] == 7
        assert counters["crypto.verify_table[first]"] == 2
        assert counters["crypto.verify_table[promoted]"] == 1
        assert counters["crypto.verify_table[hit]"] == 3
        # Disabled metrics (the default) record nothing and cost a flag test.
        assert ecdsa.verify(public, DIGEST, signature)


def deep_size(obj):
    own = sys.getsizeof(obj)
    if isinstance(obj, (list, tuple)):
        own += sum(deep_size(item) for item in obj)
    return own


class TestInversionFreeComparison:
    """``_x_matches_r``: x(point) mod N == r without computing x."""

    @staticmethod
    def _blind(point, z):
        return (point[0] * z * z % P, point[1] * z * z * z % P, z)

    def test_plain_branch(self):
        point = naive_multiply(KEY)
        assert point[0] < N
        for z in (1, 2, KEY, P - 1):
            assert ecdsa._x_matches_r(self._blind(point, z), point[0])
            assert not ecdsa._x_matches_r(self._blind(point, z), point[0] ^ 1)

    def test_wrapped_branch(self):
        # r + N < P only for r < P - N (~2^128.4): no honest signature
        # lands there, so drive the helper directly.  Only the X and Z it
        # reads matter; x = r + N need not be on the curve.
        for r in (1, 2, P - N - 1):
            for z in (1, 3, KEY):
                wrapped = ((r + N) * z * z % P, 1, z)
                assert ecdsa._x_matches_r(wrapped, r)
                assert not ecdsa._x_matches_r(wrapped, r + 1)
        # At r == P - N the wrapped value would be P == 0: not a match.
        assert not ecdsa._x_matches_r((0, 1, 1), P - N)

    def test_infinity_never_matches(self):
        assert not ecdsa._x_matches_r((0, 1, 0), 1)


class TestVerifyRejects:
    """Negative vectors: every one must be ``False``, never an exception."""

    PUBLIC = naive_multiply(KEY)
    SIGNATURE = ecdsa.sign(KEY, DIGEST)

    @pytest.mark.parametrize("r,s", [
        (0, 1), (N, 1), (1, 0), (1, N), (0, 0), (N, N), (N + 1, 1), (-1, 1)])
    def test_out_of_range_components(self, r, s):
        assert not ecdsa.verify(self.PUBLIC, DIGEST, Signature(r, s))

    def test_high_s(self):
        high = Signature(self.SIGNATURE.r, N - self.SIGNATURE.s)
        assert not ecdsa.verify(self.PUBLIC, DIGEST, high)

    def test_wrong_key(self):
        assert not ecdsa.verify(naive_multiply(KEY + 1), DIGEST, self.SIGNATURE)
        assert not ecdsa.verify(negate(self.PUBLIC), DIGEST, self.SIGNATURE)

    @pytest.mark.parametrize("bit", [0, 7, 128, 255])
    def test_flipped_digest_bit(self, bit):
        flipped = bytearray(DIGEST)
        flipped[bit // 8] ^= 1 << (bit % 8)
        assert not ecdsa.verify(self.PUBLIC, bytes(flipped), self.SIGNATURE)

    def test_flipped_signature_bits(self):
        for delta in (1, 1 << 64, 1 << 200):
            assert not ecdsa.verify(self.PUBLIC, DIGEST, Signature(
                self.SIGNATURE.r ^ delta, self.SIGNATURE.s))
            assert not ecdsa.verify(self.PUBLIC, DIGEST, Signature(
                self.SIGNATURE.r, self.SIGNATURE.s ^ delta))

    def test_wrong_digest_length_is_false(self):
        assert not ecdsa.verify(self.PUBLIC, DIGEST[:31], self.SIGNATURE)

    def test_sum_at_infinity_is_false(self):
        # Choose (r, s) so that u1*G + u2*Q cancels: with Q = d*G,
        # u1 + u2*d == 0  <=>  z + r*d == 0.
        z = int.from_bytes(DIGEST, "big")
        r = (-z * pow(KEY, -1, N)) % N
        assert not ecdsa.verify(self.PUBLIC, DIGEST, Signature(r, 1))

    @pytest.mark.parametrize("key", [
        None, (1, 1), (GX, GY + 1), (0, 0)])
    def test_malformed_key_raises(self, key):
        with pytest.raises(InvalidKey):
            ecdsa.verify(key, DIGEST, self.SIGNATURE)

    @settings(max_examples=20, deadline=None)
    @given(secrets, st.binary(max_size=32))
    def test_property_agrees_with_oracle(self, secret, message):
        digest = sha256(message)
        public = naive_multiply(secret)
        good = ecdsa.sign(secret, digest)
        bad = Signature(good.r, good.s ^ 1)
        for signature in (good, bad):
            assert ecdsa.verify(public, digest, signature) \
                == naive_verify(public, digest, signature)


class TestNonCanonicalCoordinates:
    """Regression: ``is_on_curve`` reduced mod P, so x + P (whenever it
    still fits 256 bits), oversized and negative coordinates aliased a
    real point — a second, unequal encoding of the same key."""

    # Smallest x below 2^256 - P with a curve point: x + P fits 32 bytes.
    X = next(x for x in range(1, 100)
             if pow(pow(x, 3, P) + 7, (P - 1) // 2, P) == 1)
    Y = pow(pow(X, 3, P) + 7, (P + 1) // 4, P)

    ALIASES = [(X + P, Y), (X, Y + P), (X - P, Y), (X, Y - P),
               (X + P, Y + P), (X, -Y % P - P)]

    def test_canonical_point_is_on_curve(self):
        assert self.X + P < 1 << 256
        assert ecdsa.is_on_curve((self.X, self.Y))
        assert PublicKey(self.X, self.Y).point == (self.X, self.Y)

    @pytest.mark.parametrize("alias", ALIASES)
    def test_alias_is_not_on_curve(self, alias):
        assert not ecdsa.is_on_curve(alias)

    @pytest.mark.parametrize("alias", ALIASES)
    def test_alias_cannot_become_a_public_key(self, alias):
        with pytest.raises(InvalidKey):
            PublicKey(*alias)

    @pytest.mark.parametrize("alias", ALIASES[:2])
    def test_alias_cannot_verify(self, alias):
        with pytest.raises(InvalidKey):
            ecdsa.verify(alias, DIGEST, ecdsa.sign(KEY, DIGEST))

    def test_none_key_raises_invalid_key(self):
        with pytest.raises(InvalidKey):
            ecdsa.verify(None, DIGEST, ecdsa.sign(KEY, DIGEST))


class TestDecompressionCache:
    @pytest.fixture(autouse=True)
    def _fresh_cache(self):
        keys._decompress.cache_clear()
        yield keys._decompress
        keys._decompress.cache_clear()

    def test_hit_returns_an_equal_key(self, _fresh_cache):
        encoded = PublicKey(*naive_multiply(KEY)).to_bytes()
        first = PublicKey.from_bytes(encoded)
        again = PublicKey.from_bytes(bytearray(encoded))
        assert first == again == PublicKey(*naive_multiply(KEY))
        info = _fresh_cache.cache_info()
        assert (info.hits, info.misses) == (1, 1)

    def test_both_parities_are_distinct_entries(self, _fresh_cache):
        encoded = PublicKey(*naive_multiply(KEY)).to_bytes()
        mirrored = bytes([encoded[0] ^ 1]) + encoded[1:]
        assert PublicKey.from_bytes(mirrored).point \
            == negate(PublicKey.from_bytes(encoded).point)

    @pytest.mark.parametrize("encoded", [
        b"", b"\x02" + b"\x00" * 31, b"\x04" + b"\x01" * 32,
        b"\x02" + b"\xff" * 32,                   # x >= P
        b"\x02" + (5).to_bytes(32, "big"),         # no point with x == 5
    ])
    def test_invalid_encodings_raise_and_are_never_cached(
            self, _fresh_cache, encoded):
        for _ in range(2):
            with pytest.raises(InvalidKey):
                PublicKey.from_bytes(encoded)
        info = _fresh_cache.cache_info()
        assert info.currsize == 0 and info.hits == 0

    def test_size_stays_bounded(self, _fresh_cache, monkeypatch):
        bound = keys._DECOMPRESSION_CACHE_SIZE
        assert _fresh_cache.cache_info().maxsize == bound
        # Filling 4096 real keys costs seconds; wrap the same function
        # in a small LRU to watch eviction, then check the real bound.
        small = lru_cache(maxsize=4)(_fresh_cache.__wrapped__)
        monkeypatch.setattr(keys, "_decompress", small)
        encodings = [PublicKey(*naive_multiply(secret)).to_bytes()
                     for secret in range(1, 9)]
        for encoded in encodings:
            PublicKey.from_bytes(encoded)
        assert small.cache_info().currsize == 4
        # Evicted keys decode again, correctly.
        assert PublicKey.from_bytes(encodings[0]).point == naive_multiply(1)


class TestKernelBudgets:
    """Guards that do not depend on how fast the host is."""

    def test_verify_is_faster_than_the_naive_ladder(self):
        public = naive_multiply(KEY)
        signature = ecdsa.sign(KEY, DIGEST)
        assert ecdsa.verify(public, DIGEST, signature)  # tables built

        def best_of(call, rounds):
            best = float("inf")
            for _ in range(rounds):
                started = time.perf_counter()
                assert call(public, DIGEST, signature)
                best = min(best, time.perf_counter() - started)
            return best

        # Interleave so a host-speed swing hits both sides alike.
        fast = slow = float("inf")
        for _ in range(3):
            fast = min(fast, best_of(ecdsa.verify, 5))
            slow = min(slow, best_of(naive_verify, 2))
        # Measured ~4.2x against this fully naive ladder (~3x against the
        # verify it replaced, which walked a table for G).
        assert slow / fast >= 2.5, f"verify only {slow / fast:.2f}x naive"

    def test_process_first_use_budget(self, monkeypatch):
        # The one lazy table of G, rebuilt from scratch: the multi-base
        # wNAF table (3 * 33 doublings + 4 * 64 odd multiples; 366 group
        # operations in all, measured) — ~4 ms once per process, and well
        # under 1 MB.
        counts = count_group_operations(monkeypatch)
        ecdsa._generator_table.cache_clear()
        monkeypatch.setattr(ecdsa, "_Q_TABLES", ecdsa._TableCache(4))
        public = ecdsa.derive_public_key(KEY)              # the table of G
        signature = ecdsa.sign(KEY, DIGEST)
        assert ecdsa.verify(public, DIGEST, signature)
        assert counts["generic"] <= 366
        assert deep_size(ecdsa._generator_table()) < 1 << 20

    # What one verify cost before tables outlived the call, in group
    # operations (ladder positions + additions + the per-call table):
    # measured 204–214 over 200 keys, mean 209.4.
    PARENT_VERIFY_OPS = 209
    # Three bases of 33 doublings, four rows of 1 + 7, measured 132.
    PROMOTION_OPS = 135

    @staticmethod
    def _signed(count):
        for index in range(1, count + 1):
            secret = int.from_bytes(sha256(b"key %d" % index), "big") % N
            digest = sha256(b"digest %d" % index)
            yield (ecdsa.derive_public_key(secret), digest,
                   ecdsa.sign(secret, digest))

    def test_per_key_budgets(self, monkeypatch):
        # Counted in group operations, so the host's speed is not in it.
        # A key's first verify costs what every verify used to; its second
        # pays for the promotion; from the third on a verify is <= 0.65 of
        # the old cost, and the same work every time.
        items = list(self._signed(40))
        assert ecdsa.verify(*items[0])                     # G tables built
        monkeypatch.setattr(ecdsa, "_Q_TABLES", ecdsa._TableCache(64))
        counts = count_group_operations(monkeypatch)

        def sweep():
            costs = []
            for item in items:
                before = sum(counts.values())
                evaluations = counts["evaluations"]
                assert ecdsa.verify(*item)
                assert counts["evaluations"] == evaluations + 1  # one ladder
                costs.append(sum(counts.values()) - before - 1)
            return costs

        parent = self.PARENT_VERIFY_OPS
        first, promotion, promoted, again = sweep(), sweep(), sweep(), sweep()
        assert sum(first) / len(first) <= 1.05 * parent
        assert max(first) <= 1.1 * parent
        assert max(promotion) <= max(promoted) + self.PROMOTION_OPS
        assert sum(promoted) / len(promoted) <= 0.6 * parent
        assert max(promoted) <= 0.65 * parent
        assert promoted == again                           # nothing warms up
        assert max(promoted) <= 1.15 * min(promoted), (
            min(promoted), max(promoted))
        assert ecdsa._generator_table.cache_info().misses == 1

    def test_a_population_larger_than_the_cache_costs_what_it_used_to(
            self, monkeypatch):
        # Cyclic access over size + 1 keys never hits: every verify is a
        # first use, no dearer than building the table per call was —
        # which building the big table on every miss would not give.
        size = 8
        items = list(self._signed(size + 1))
        assert ecdsa.verify(*items[0])
        cache = ecdsa._TableCache(size)
        monkeypatch.setattr(ecdsa, "_Q_TABLES", cache)
        counts = count_group_operations(monkeypatch)
        rounds = 4
        for _ in range(rounds):
            for item in items:
                assert ecdsa.verify(*item)
        assert all(len(table) == 1 for table in cache._tables.values())
        per_verify = sum(counts.values()) / (rounds * len(items))
        assert per_verify <= 1.05 * self.PARENT_VERIFY_OPS

    def test_nothing_is_built_at_import(self):
        code = ("from repro.crypto import ecdsa, keys\n"
                "assert ecdsa._generator_table.cache_info().currsize == 0\n"
                "assert len(ecdsa._Q_TABLES) == 0\n"
                "assert keys._decompress.cache_info().currsize == 0\n")
        subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


def count_group_operations(monkeypatch):
    """Count every group operation ``ecdsa`` performs from now on: calls
    of the generic add and double, and, per ladder, its positions (one
    doubling each) and queued additions."""
    counts = {"generic": 0, "ladder": 0, "evaluations": 0}
    real_add, real_double = ecdsa._jacobian_add, ecdsa._jacobian_double
    real_evaluate = ecdsa._evaluate

    def counting_add(p, q):
        counts["generic"] += 1
        return real_add(p, q)

    def counting_double(p):
        counts["generic"] += 1
        return real_double(p)

    def counting_evaluate(schedule):
        counts["evaluations"] += 1
        counts["ladder"] += len(schedule) + sum(
            len(slot) for slot in schedule if slot)
        return real_evaluate(schedule)

    monkeypatch.setattr(ecdsa, "_jacobian_add", counting_add)
    monkeypatch.setattr(ecdsa, "_jacobian_double", counting_double)
    monkeypatch.setattr(ecdsa, "_evaluate", counting_evaluate)
    return counts


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=ecdsa.N - 1),
       st.binary(min_size=1, max_size=64))
def test_property_sign_verify_roundtrip(private_key, message):
    digest = sha256(message)
    signature = ecdsa.sign(private_key, digest)
    public = ecdsa.derive_public_key(private_key)
    assert ecdsa.verify(public, digest, signature)
    assert signature.s <= ecdsa.N // 2
    # Low-s invariance: the mirrored signature must never verify.
    mirrored = Signature(signature.r, ecdsa.N - signature.s)
    assert not ecdsa.verify(public, digest, mirrored)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=2, max_value=ecdsa.N - 2))
def test_property_scalar_homomorphism(k):
    # (k·G) + G == (k+1)·G
    assert ecdsa.point_add(
        ecdsa.point_multiply(k), (ecdsa.GX, ecdsa.GY)
    ) == ecdsa.point_multiply(k + 1)
