import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ferro import clifford, grassmann
from ferro.grassmann import GrassmannPoly
from oracles import compute_reference

from helpers import (
    embed_disjoint,
    g_monomial,
    g_one,
    g_zero,
    random_even_state,
    random_gaussian_unitary,
    random_state,
    rotate_generators,
)


def fourier(rho):
    """The moment polynomial of any state, even or not."""
    return GrassmannPoly(2 * clifford.num_qubits(rho), clifford.moments(rho))


def eta(generators, *indices):
    mask = 0
    for j in indices:
        mask |= 1 << (j - 1)
    return g_monomial(generators, mask)


def test_generator_products():
    p = grassmann.g_mul(eta(4, 1), eta(4, 2))
    assert abs(p.coeffs[0b11] - 1.0) < 1e-15
    q = grassmann.g_mul(eta(4, 2), eta(4, 1))
    assert abs(q.coeffs[0b11] + 1.0) < 1e-15
    z = grassmann.g_mul(eta(4, 1), eta(4, 1))
    assert not z.coeffs.any()


def test_g_mul_associative_distributive(rng):
    gens = 8
    polys = [
        GrassmannPoly(gens, rng.normal(size=256) + 1j * rng.normal(size=256)) for _ in range(3)
    ]
    p, q, r = polys
    lhs = grassmann.g_mul(grassmann.g_mul(p, q), r)
    rhs = grassmann.g_mul(p, grassmann.g_mul(q, r))
    assert np.abs(lhs.coeffs - rhs.coeffs).max() < 1e-10
    lhs2 = grassmann.g_mul(p, GrassmannPoly(gens, q.coeffs + r.coeffs))
    rhs2 = grassmann.g_mul(p, q).coeffs + grassmann.g_mul(p, r).coeffs
    assert np.abs(lhs2.coeffs - rhs2).max() < 1e-10


def test_g_exp_small_cases():
    one = grassmann.g_exp(g_zero(2))
    assert abs(one.coeffs[0] - 1.0) < 1e-15 and not one.coeffs[1:].any()
    p = g_monomial(2, 0b11, 0.7)
    e = grassmann.g_exp(p)
    assert abs(e.coeffs[0] - 1.0) < 1e-15
    assert abs(e.coeffs[0b11] - 0.7) < 1e-15


def test_g_log_inverts_g_exp(rng):
    gens = 8
    coeffs = rng.normal(size=256) + 1j * rng.normal(size=256)
    coeffs[grassmann.popcounts(gens) % 2 == 1] = 0.0
    coeffs[0] = 0.0
    p = GrassmannPoly(gens, coeffs * 0.3)
    back = grassmann.g_log(grassmann.g_exp(p))
    assert np.abs(back.coeffs - p.coeffs).max() < 1e-10


def test_constant_term_preconditions():
    with pytest.raises(ValueError):
        grassmann.g_exp(g_one(2))
    with pytest.raises(ValueError):
        grassmann.g_log(g_zero(2))


def test_contract():
    p = g_monomial(4, 0b0011, 2.0)
    assert np.abs(grassmann.contract(p, 1.0).coeffs - p.coeffs).max() < 1e-15
    c = grassmann.contract(p, 0.5)
    assert abs(c.coeffs[0b0011] - 2.0 * 0.25) < 1e-15
    a, b = 0.3 + 0.1j, -1.2
    lhs = grassmann.contract(grassmann.contract(p, a), b)
    rhs = grassmann.contract(p, a * b)
    assert np.abs(lhs.coeffs - rhs.coeffs).max() < 1e-15


def test_fourier_round_trip(rng):
    assert np.abs(grassmann.even_fourier(np.eye(4, dtype=complex) / 4).coeffs[1:]).max() < 1e-12
    for n in (1, 2, 3):
        rho = random_state(rng, n)
        back = grassmann.inverse_fourier(fourier(rho))
        assert np.abs(back - rho).max() < 1e-12


def test_fourier_isometry(rng):
    """2^-n * (coefficient norm) equals the normalized operator L2 norm."""
    n = 2
    rho, sigma = random_state(rng, n), random_state(rng, n)
    diff = fourier(rho) - fourier(sigma)
    lhs = grassmann.l2_norm(diff) / (1 << n)
    rhs = compute_reference.l2_norm(rho - sigma, n)
    assert abs(lhs - rhs) < 1e-10


def test_fourier_unitary_covariance(rng):
    n = 2
    rho = random_state(rng, n)
    u, r = random_gaussian_unitary(rng, n)
    lhs = fourier(u @ rho @ u.conj().T)
    rhs = rotate_generators(fourier(rho), r)
    assert np.abs(lhs.coeffs - rhs.coeffs).max() < 1e-9


def test_quadratic_cumulants_equal_moments(rng):
    n = 2
    rho = random_even_state(rng, n)
    psi = grassmann.cumulants(rho)
    mom = clifford.moments(rho)
    pc = grassmann.popcounts(2 * n)
    sel = pc == 2
    assert np.abs(psi.coeffs[sel] - mom[sel]).max() < 1e-10


def test_cumulants_reject_odd_state():
    plus = np.full((2, 2), 0.5, dtype=complex)
    with pytest.raises(ValueError):
        grassmann.cumulants(plus)


def test_tensor_additivity(rng):
    ra = random_even_state(rng, 1)
    rb = random_even_state(rng, 2)
    joint = grassmann.cumulants(np.kron(ra, rb))
    emb = embed_disjoint(grassmann.cumulants(ra), grassmann.cumulants(rb))
    assert np.abs(joint.coeffs - emb.coeffs).max() < 1e-10


def to_dict(p):
    """Oracle form of a polynomial: sorted 1-based index tuples to coefficients."""
    return {
        tuple(j + 1 for j in range(p.generators) if mask >> j & 1): complex(c)
        for mask, c in enumerate(p.coeffs)
        if c != 0
    }


def from_dict(d, generators):
    coeffs = np.zeros(1 << generators, dtype=complex)
    for key, c in d.items():
        coeffs[sum(1 << (j - 1) for j in key)] += c
    return GrassmannPoly(generators, coeffs)


def assert_matches(p, d, tol=1e-12):
    want = from_dict(d, p.generators).coeffs
    assert np.abs(p.coeffs - want).max() <= tol * max(1.0, np.abs(want).max())


def complex_array(rng, size):
    return rng.normal(size=size) + 1j * rng.normal(size=size)


@settings(max_examples=20, deadline=None)
@given(gens=st.sampled_from([0, 2, 4, 6]), seed=st.integers(0, 2**32 - 1))
def test_g_mul_matches_oracle_dense(gens, seed):
    rng = np.random.default_rng(seed)
    p, q = (GrassmannPoly(gens, complex_array(rng, 1 << gens)) for _ in range(2))
    assert_matches(grassmann.g_mul(p, q), compute_reference.g_mul_dict(to_dict(p), to_dict(q)))


def sparse_poly(rng, gens, terms, parity):
    """At most `terms` random monomials; parity 0 even, 1 odd, None mixed."""
    masks = rng.integers(0, 1 << gens, size=terms)
    if parity is not None:
        masks = masks[grassmann.popcounts(gens)[masks] % 2 == parity]
    coeffs = np.zeros(1 << gens, dtype=complex)
    coeffs[masks] = complex_array(rng, len(masks))
    return GrassmannPoly(gens, coeffs)


# 8-10 generators start in the batched regime, 12 and more recurse depth first
# above it; every size ends in the pair-table base case
@settings(max_examples=15, deadline=None)
@given(
    gens=st.sampled_from([8, 10, 12, 14, 16]),
    terms=st.integers(1, 40),
    parities=st.tuples(*[st.sampled_from([0, 1, None])] * 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_g_mul_matches_oracle_sparse(gens, terms, parities, seed):
    rng = np.random.default_rng(seed)
    p, q = (sparse_poly(rng, gens, terms, parity) for parity in parities)
    assert_matches(grassmann.g_mul(p, q), compute_reference.g_mul_dict(to_dict(p), to_dict(q)))


def test_g_mul_zero(rng):
    for gens in (2, 8, 14):
        x = GrassmannPoly(gens, complex_array(rng, 1 << gens))
        zero = g_zero(gens)
        assert not grassmann.g_mul(zero, x).coeffs.any()
        assert not grassmann.g_mul(x, zero).coeffs.any()


@settings(max_examples=12, deadline=None)
@given(
    gens=st.sampled_from([6, 8, 12, 16]),
    low=st.sampled_from([2, 4]),
    terms=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_g_log_matches_oracle(gens, low, terms, seed):
    """Even 1 + x whose lowest degree is `low`, against the dict-based series."""
    rng = np.random.default_rng(seed)
    pc = grassmann.popcounts(gens)
    lowest = np.flatnonzero(pc == low)
    higher = np.flatnonzero((pc > low) & (pc % 2 == 0))
    masks = np.concatenate([rng.choice(lowest, 1), rng.choice(higher, terms - 1)])
    coeffs = np.zeros(1 << gens, dtype=complex)
    coeffs[masks] = 0.5 * complex_array(rng, terms)
    coeffs[0] = 1.0
    p = GrassmannPoly(gens, coeffs)
    assert_matches(grassmann.g_log(p), compute_reference.g_log_dict(to_dict(p), gens))


def count_products(monkeypatch):
    calls = []
    g_mul = grassmann.g_mul

    def counted(p, q):
        calls.append(1)
        return g_mul(p, q)

    monkeypatch.setattr(grassmann, "g_mul", counted)
    return calls


def test_g_log_stops_at_the_nilpotency_degree(monkeypatch):
    """x = sum_i eta_{2i-1} eta_{2i} has x^6 != 0 at 12 generators: 5 products, no more."""
    gens = 12
    x = g_one(gens)
    for i in range(gens // 2):
        x.coeffs[0b11 << 2 * i] = 0.3 + 0.1j * i
    calls = count_products(monkeypatch)
    out = grassmann.g_log(x)
    assert len(calls) == gens // 2 - 1
    assert_matches(out, compute_reference.g_log_dict(to_dict(x), gens))


def test_g_log_stops_at_a_zero_power(monkeypatch):
    """x = eta_1 eta_2 + eta_1 eta_3 has x^2 = 0: one product, then the series ends."""
    x = g_one(16)
    x.coeffs[0b011] = 0.4
    x.coeffs[0b101] = -0.7j
    calls = count_products(monkeypatch)
    out = grassmann.g_log(x)
    assert len(calls) == 1
    assert_matches(out, compute_reference.g_log_dict(to_dict(x), 16))


def g_exp_dict(q, nilpotency):
    out, power = {(): 1.0}, {(): 1.0}
    for k in range(1, nilpotency + 1):
        power = {key: v / k for key, v in compute_reference.g_mul_dict(power, q).items()}
        for key, v in power.items():
            out[key] = out.get(key, 0.0) + v
    return out


def test_g_exp_zero_and_nilpotent_quadratic(rng, monkeypatch):
    calls = count_products(monkeypatch)
    one = grassmann.g_exp(g_zero(8))
    assert one.coeffs[0] == 1.0 and not one.coeffs[1:].any()
    assert not calls
    gens = 8
    q = g_zero(gens)
    q.coeffs[grassmann.popcounts(gens) == 2] = complex_array(rng, 28)
    assert_matches(grassmann.g_exp(q), g_exp_dict(to_dict(q), gens))
    assert len(calls) == gens // 2 - 1


def test_g_mul_memory_16_generators(rng):
    """One dense 16-generator product stays within a few times its 1 MB output.

    A product that stacks all 3^l sub-products of a level at once grows far past it.
    """
    gens = 16
    p, q = (GrassmannPoly(gens, complex_array(rng, 1 << gens)) for _ in range(2))
    grassmann.g_mul(p, q)  # fills the kernel's cached tables
    tracemalloc.start()
    try:
        grassmann.g_mul(p, q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6e6


def parity_poly(rng, gens, parity, terms=None):
    """Random polynomial of one parity (0 even, 1 odd, None mixed): dense, or `terms` monomials."""
    if terms is not None:
        return sparse_poly(rng, gens, terms, parity)
    coeffs = complex_array(rng, 1 << gens)
    if parity is not None:
        coeffs[grassmann.popcounts(gens) % 2 != parity] = 0.0
    return GrassmannPoly(gens, coeffs)


PARITY_PAIRS = [(0, 0), (0, 1), (1, 0), (1, 1), (None, 0), (None, None)]


def parity_id(parities):
    return "x".join({0: "even", 1: "odd", None: "mixed"}[x] for x in parities)


@pytest.mark.parametrize("gens", [2, 4, 6, 8, 10, 12])
@pytest.mark.parametrize("parities", PARITY_PAIRS, ids=parity_id)
def test_g_mul_parity_blocks_match_oracle(gens, parities):
    """Every parity combination of the factors, dense up to 6 generators and sparse above."""
    rng = np.random.default_rng(gens * 31 + PARITY_PAIRS.index(parities))
    terms = None if gens <= 6 else 30
    p, q = (parity_poly(rng, gens, parity, terms) for parity in parities)
    got = grassmann.g_mul(p, q)
    assert_matches(got, compute_reference.g_mul_dict(to_dict(p), to_dict(q)))
    if None not in parities:  # the product of parts of definite parity has their summed parity
        odd = grassmann.popcounts(gens) % 2 != sum(parities) % 2
        assert not got.coeffs[odd].any()


@pytest.mark.parametrize("parities", PARITY_PAIRS[:4], ids=parity_id)
def test_g_mul_parity_blocks_in_a_tall_stack(parities):
    """A stack tall enough to split its rows at the base case, against the oracle row by row."""
    rng = np.random.default_rng(PARITY_PAIRS.index(parities))
    rows, gens = 70, 8
    p, q = (GrassmannPoly(gens, np.stack([sparse_poly(rng, gens, 12, parity).coeffs
                                          for _ in range(rows)])) for parity in parities)
    got = grassmann.g_mul(p, q)
    assert got.coeffs.shape == (rows, 1 << gens)
    for r in range(rows):
        pr, qr = (GrassmannPoly(gens, x.coeffs[r]) for x in (p, q))
        assert_matches(GrassmannPoly(gens, got.coeffs[r]),
                       compute_reference.g_mul_dict(to_dict(pr), to_dict(qr)))


@pytest.mark.parametrize("rows", [1, 70])
def test_g_mul_keeps_a_tiny_odd_part(rng, rows):
    """A lone 1e-300 odd coefficient lights the odd blocks: it is multiplied, never dropped."""
    gens, mask = 8, 0b1011
    even = parity_poly(rng, gens, 0).coeffs
    p = np.stack([even] * rows)
    p[-1, mask] = 1e-300
    q = GrassmannPoly(gens, np.stack([parity_poly(rng, gens, 0).coeffs] * rows))
    got = grassmann.g_mul(GrassmannPoly(gens, p), q).coeffs[-1]
    q_row = GrassmannPoly(gens, q.coeffs[-1])
    want_even = grassmann.g_mul(GrassmannPoly(gens, even), q_row).coeffs
    want_odd = 1e-300 * grassmann.g_mul(g_monomial(gens, mask), q_row).coeffs
    odd = grassmann.popcounts(gens) % 2 == 1
    assert np.abs(got[odd]).max() > 0
    assert np.abs(got[odd] - want_odd[odd]).max() <= 1e-12 * np.abs(want_odd).max()
    assert np.abs(got[~odd] - want_even[~odd]).max() <= 1e-12 * np.abs(want_even).max()
    # and the same as the product that reads every block
    dense = np.zeros((rows, 1 << gens), dtype=complex)
    grassmann._mul_into(p, q.coeffs, dense, False, 1.0, 0b11, 0b11)
    assert np.abs(got - dense[-1]).max() <= 1e-12 * np.abs(dense).max()
    assert np.abs(got[odd] - dense[-1][odd]).max() <= 1e-12 * np.abs(want_odd).max()


def test_stacked_polynomials_match_rows(rng):
    """g_mul, g_exp, g_log and contract act on each polynomial of a stack, to 1e-14."""
    gens, rows = 8, 5
    pc = grassmann.popcounts(gens)
    x = complex_array(rng, (rows, 1 << gens)) * 0.2
    x[:, pc % 2 == 1] = 0.0
    x[:, 0] = 0.0
    y = complex_array(rng, (rows, 1 << gens))
    p, q = GrassmannPoly(gens, x), GrassmannPoly(gens, y)
    one_plus = GrassmannPoly(gens, x + (pc == 0))
    stacked = {
        "g_mul": grassmann.g_mul(p, q),
        "g_exp": grassmann.g_exp(p),
        "g_log": grassmann.g_log(one_plus),
        "contract": grassmann.contract(q, 0.3 - 0.2j),
    }
    for r in range(rows):
        pr, qr = GrassmannPoly(gens, x[r]), GrassmannPoly(gens, y[r])
        single = {
            "g_mul": grassmann.g_mul(pr, qr),
            "g_exp": grassmann.g_exp(pr),
            "g_log": grassmann.g_log(GrassmannPoly(gens, one_plus.coeffs[r])),
            "contract": grassmann.contract(qr, 0.3 - 0.2j),
        }
        for name, poly in stacked.items():
            assert np.abs(poly.coeffs[r] - single[name].coeffs).max() < 1e-14, name
    # a single polynomial broadcasts against a stack
    bq = grassmann.g_mul(GrassmannPoly(gens, y[0]), p)
    assert np.abs(bq.coeffs[2] - grassmann.g_mul(GrassmannPoly(gens, y[0]),
                                                 GrassmannPoly(gens, x[2])).coeffs).max() < 1e-14
