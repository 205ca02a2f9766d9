"""Grassmann polynomial arithmetic and the Grassmann-Clifford Fourier transform.

A polynomial over 2n anticommuting generators is a dense complex array of
length 4^n indexed by bitmask; bit j-1 set means generator eta_j appears.
Leading axes, (..., 4^n), hold a stack of polynomials, and every operation
acts on each of them; the sweeps over a state family run as one stack.

Products split both factors on the top generator, p = p0 + p1 eta_m, so that
pq = p0 q0 + (p0 q1 + p1 q0') eta_m with q0' the grade involution of q0. The
three half-products recurse depth first into the output's halves and end in
a table of disjoint mask pairs with their signs over at most eight
generators, which runs the rows of a stack in chunks.  The table is built by
the same split: each pair (I, J) below the top generator t gives (I, J),
(I + t, J) with sign (-1)^|J| and (I, J + t).  Each factor carries the set
of degrees at which some coefficient of its stack is nonzero, an exact zero
test on entry; p0 keeps p's set and p1 takes it shifted down by one.  A
half-product whose two lowest degrees sum past its generator count is
skipped, and the base case reads only the pairs (I, J) with |I| and |J| in
the two sets.  So even factors read one parity block in four, and the
powers of a log series skip the low degrees at which they vanish.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import clifford
from .clifford import popcounts

# a validated state's moment table has its trace, 1 within EPS_TRACE, as
# constant term; the rest of the slack covers the transform's rounding
EPS_UNIT = 2 * clifford.EPS_TRACE


class GrassmannPoly:
    """Dense coefficient array over 2n Grassmann generators, or a stack (..., 4^n) of them."""

    __slots__ = ("generators", "coeffs")

    def __init__(self, generators: int, coeffs: np.ndarray):
        if generators % 2:
            raise ValueError("generator count must be even (2n)")
        if coeffs.shape[-1:] != (1 << generators,):
            raise ValueError(f"coefficient array has shape {coeffs.shape}, "
                             f"expected (..., {1 << generators})")
        self.generators, self.coeffs = generators, coeffs

    def __sub__(self, other: "GrassmannPoly") -> "GrassmannPoly":
        self._check(other)
        return GrassmannPoly(self.generators, self.coeffs - other.coeffs)

    def _check(self, other: "GrassmannPoly") -> None:
        if self.generators != other.generators:
            raise ValueError("generator counts differ")


# Sizes of the divide-and-conquer product. Polynomials over at most
# _BASE_GENERATORS generators are multiplied from a table of disjoint pairs,
# a chunk of rows at a time whose pair terms fit _TERMS complex entries; the
# chunks keep the base case's work in cache and its scratch small.
_BASE_GENERATORS = 8
_TERMS = 1 << 13


@lru_cache(maxsize=None)
def _grade_sign(nbits: int) -> np.ndarray:
    """(-1)^|K| for every mask K over nbits bits: the grade involution."""
    out = 1.0 - 2.0 * (popcounts(nbits) & 1)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _pair_table(nbits: int, da: int, db: int):
    """Disjoint mask pairs (I, J) sorted by K = I|J, then I, with eta_I eta_J = sign * eta_K.

    Built by the product's split on each top generator t in turn (see the
    module docstring), then filtered: only pairs with |I| in the degree set
    da and |J| in db are kept (see _degrees).
    Returns I, J, the sign, the sign times (-1)^|J|, the index of the K of
    each group (a full slice when every K occurs) and the start of each group.
    """
    grade = _grade_sign(nbits)
    i = j = np.zeros(1, dtype=np.int64)
    sign = np.ones(1)
    for t in (1 << bit for bit in range(nbits)):
        sign = np.concatenate([sign, sign * grade[j], sign])
        i, j = np.concatenate([i, i | t, i]), np.concatenate([j, j, j | t])
    deg = popcounts(nbits)
    keep = (da >> deg[i]) & (db >> deg[j]) & 1 == 1
    order = np.lexsort((i[keep], (i | j)[keep]))
    i, j, sign = i[keep][order], j[keep][order], sign[keep][order]
    ks, starts = np.unique(i | j, return_index=True)
    table = (i, j, sign, sign * grade[j], ks, starts)
    for arr in table:
        arr.setflags(write=False)
    if len(ks) == 1 << nbits:
        table = table[:4] + (slice(None), starts)
    return table


def _degrees(c: np.ndarray) -> int:
    """Bit d set when a degree-d coefficient of any row of a stack (..., 2^k) is nonzero.

    An exact test: a coefficient as small as it may be still sets its bit.
    """
    nz = np.any(c.reshape(-1, c.shape[-1]) != 0, axis=0)
    return int(np.bitwise_or.reduce(1 << popcounts(c.shape[-1].bit_length() - 1)[nz], initial=0))


def _lowest_degree(degrees: int) -> int:
    """Lowest degree in a degree set (see _degrees), or -1 for the empty set."""
    return (degrees & -degrees).bit_length() - 1


def _mul_into(a: np.ndarray, b: np.ndarray, out: np.ndarray, inv: bool, s: float,
              da: int, db: int) -> None:
    """out += s * a b' row by row; b' is b, or its grade involution when inv is set.

    a, b and out have shape (rows, 2^k); da and db are degree sets of a and b
    (see _degrees), and a pair of degrees outside them is skipped.
    With p = p0 + p1 eta_k and q = q0 + q1 eta_k on the top generator,
    pq = p0 q0 + (p0 q1 + p1 q0') eta_k where q0' is the grade involution of q0.
    """
    rows, size = a.shape
    k = size.bit_length() - 1
    da, db = da & (2 << k) - 1, db & (2 << k) - 1
    if not da or not db or _lowest_degree(da) + _lowest_degree(db) > k:
        return
    if k <= _BASE_GENERATORS:
        i, j, sign, sign_inv, ks, starts = _pair_table(k, da, db)
        sign = s * (sign_inv if inv else sign)
        step = max(1, _TERMS // len(i))
        for r in range(0, rows, step):
            terms = a[r:r + step].take(i, axis=1)
            terms *= b[r:r + step].take(j, axis=1)
            terms *= sign
            out[r:r + step, ks] += np.add.reduceat(terms, starts, axis=1)
        return
    # depth first into the output's halves; the involution of b is b0' - b1' eta_k
    h = size >> 1
    _mul_into(a[:, :h], b[:, :h], out[:, :h], inv, s, da, db)
    _mul_into(a[:, :h], b[:, h:], out[:, h:], inv, -s if inv else s, da, db >> 1)
    _mul_into(a[:, h:], b[:, :h], out[:, h:], not inv, s, da >> 1, db)


def g_mul(p: GrassmannPoly, q: GrassmannPoly) -> GrassmannPoly:
    """Grassmann product; bilinear, with eta_a^2 = 0 and anticommuting generators.

    Stacks multiply row by row, broadcasting their leading axes.
    """
    p._check(q)
    a, b = np.broadcast_arrays(*(np.asarray(c, dtype=complex) for c in (p.coeffs, q.coeffs)))
    shape = a.shape
    a, b = a.reshape(-1, shape[-1]), b.reshape(-1, shape[-1])
    out = np.zeros(a.shape, dtype=complex)
    _mul_into(a, b, out, False, 1.0, _degrees(a), _degrees(b))
    return GrassmannPoly(p.generators, out.reshape(shape))


# g_exp has no runtime caller; it stays while the benchmark names it as a
# per-layer metric (until the benchmark change), and the tests use it as a
# reference.
def g_exp(p: GrassmannPoly) -> GrassmannPoly:
    """exp of a polynomial with zero constant term (nilpotent, series truncates).

    p^k has no degree below k * d, d the lowest degree of p, so the series
    ends at K = m // d for m generators.  It is summed by Horner's rule,
    e_K = 1 + p/K and e_k = 1 + p e_{k+1} / k, so exp(p) = e_1 takes K - 1
    products and holds two partial sums, not a power and a sum.
    """
    if np.any(p.coeffs[..., 0] != 0):
        raise ValueError("g_exp needs a zero constant term")
    d = _lowest_degree(_degrees(p.coeffs))
    top = p.generators // d if d > 0 else 1
    e = p.coeffs / top
    e[..., 0] = 1.0
    for k in range(top - 1, 0, -1):
        e = g_mul(p, GrassmannPoly(p.generators, e)).coeffs
        e *= 1.0 / k
        e[..., 0] += 1.0
    return GrassmannPoly(p.generators, e)


def g_log(p: GrassmannPoly) -> GrassmannPoly:
    """log of a polynomial with unit constant term, via the truncated Mercator series.

    The series in x = p - 1 stops once x^k must vanish, as in g_exp.
    """
    if np.any(np.abs(p.coeffs[..., 0] - 1.0) > EPS_UNIT):
        raise ValueError("g_log needs a unit constant term")
    x = GrassmannPoly(p.generators, p.coeffs.copy())
    x.coeffs[..., 0] = 0.0
    d = _lowest_degree(_degrees(x.coeffs))
    if d < 0:
        return x
    out = x.coeffs.copy()
    power = x
    for k in range(2, p.generators // d + 1):
        power = g_mul(power, x)
        if not power.coeffs.any():
            break
        out += power.coeffs * ((-1.0) ** (k + 1) / k)
    return GrassmannPoly(p.generators, out)


def contract(p: GrassmannPoly, alpha: complex) -> GrassmannPoly:
    """Scale every generator by alpha: coefficient at J picks up alpha^|J|."""
    powers = np.power(complex(alpha), popcounts(p.generators))
    return GrassmannPoly(p.generators, p.coeffs * powers)


def even_fourier(rho: np.ndarray) -> GrassmannPoly:
    """Moment-generating polynomial of an even state, or of a stack of them, validated once.

    The coefficient at J is Tr(gamma_J^dag rho).
    """
    clifford.assert_even_state(rho)
    return GrassmannPoly(2 * clifford.stack_qubits(rho), clifford._moments(rho))


def inverse_fourier(xi: GrassmannPoly) -> np.ndarray:
    """Reconstruct the operator 2^-n sum_J c_J gamma_J from its transform."""
    n = xi.generators // 2
    return clifford.from_moments(xi.coeffs, n)


def cumulants(rho: np.ndarray) -> GrassmannPoly:
    """Cumulant-generating polynomial log Xi_rho; defined for even states."""
    return cumulants_from_moments(even_fourier(rho))


def cumulants_from_moments(xi: GrassmannPoly) -> GrassmannPoly:
    """log Xi of the moment polynomial Xi of an even state, as even_fourier returns it."""
    # project out odd-degree rounding noise: it is certified <= EPS_EVEN and
    # would otherwise be amplified by cumulant scalings downstream
    coeffs = xi.coeffs.copy()
    coeffs[..., popcounts(xi.generators) & 1 == 1] = 0.0
    return g_log(GrassmannPoly(xi.generators, coeffs))


def l2_norm(p: GrassmannPoly) -> float:
    """Norm under which the basis monomials are orthonormal."""
    return float(math.sqrt(np.sum(np.abs(p.coeffs) ** 2)))
