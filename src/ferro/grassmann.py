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
(I + t, J) with sign (-1)^|J| and (I, J + t).  The product is
parity blocked at every level: each factor carries two flags, whether its
even and its odd part may be nonzero, set by an exact zero test of the whole
stack on entry.  p0 keeps p's flags and p1 swaps them, and the base case
reads only the (|I| mod 2, |J| mod 2) blocks of the pair table where both
factors may be nonzero.  Moment, cumulant and covariance polynomials of even
states are even, so their products read one block in four; dense input
reads all four.
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
def _pair_table(nbits: int, blocks: int):
    """Disjoint mask pairs (I, J) sorted by K = I|J, then I, with eta_I eta_J = sign * eta_K.

    Built by the product's split on each top generator t in turn (see the
    module docstring), then filtered: only pairs whose parity block
    (|I| mod 2, |J| mod 2) = (x, y) has bit x + 2y set in `blocks` are kept.
    Returns I, J, the sign, the sign times (-1)^|J|, the index of the K of
    each group (a full slice when every K occurs) and the start of each group.
    """
    grade = _grade_sign(nbits)
    i = j = np.zeros(1, dtype=np.int64)
    sign = np.ones(1)
    for t in (1 << bit for bit in range(nbits)):
        sign = np.concatenate([sign, sign * grade[j], sign])
        i, j = np.concatenate([i, i | t, i]), np.concatenate([j, j, j | t])
    par = popcounts(nbits) & 1
    keep = (blocks >> (par[i] + 2 * par[j])) & 1 == 1
    order = np.lexsort((i[keep], (i | j)[keep]))
    i, j, sign = i[keep][order], j[keep][order], sign[keep][order]
    ks, starts = np.unique(i | j, return_index=True)
    table = (i, j, sign, sign * grade[j], ks, starts)
    for arr in table:
        arr.setflags(write=False)
    if len(ks) == 1 << nbits:
        table = table[:4] + (slice(None), starts)
    return table


def _parity_flags(c: np.ndarray) -> int:
    """Bit 0 set when an even-degree coefficient of any row is nonzero, bit 1 for odd degree.

    An exact test: a coefficient as small as it may be still sets its flag.
    """
    nz = np.any(c != 0, axis=0)
    par = popcounts(c.shape[1].bit_length() - 1) & 1
    return int(nz[par == 0].any()) | int(nz[par == 1].any()) << 1


def _swap(flags: int) -> int:
    """Flags of the eta_m part p1 of p = p0 + p1 eta_m: its degrees are one below p's."""
    return (flags & 1) << 1 | flags >> 1


def _mul_into(a: np.ndarray, b: np.ndarray, out: np.ndarray, inv: bool, s: float,
              fa: int, fb: int) -> None:
    """out += s * a b' row by row; b' is b, or its grade involution when inv is set.

    a, b and out have shape (rows, 2^k); fa and fb are the parity flags of a
    and b (see _parity_flags), and a block that a flag rules out is skipped.
    With p = p0 + p1 eta_k and q = q0 + q1 eta_k on the top generator,
    pq = p0 q0 + (p0 q1 + p1 q0') eta_k where q0' is the grade involution of q0.
    """
    if not fa or not fb:
        return
    rows, size = a.shape
    if size <= 1 << _BASE_GENERATORS:
        blocks = sum(1 << (x + 2 * y) for x in (0, 1) for y in (0, 1)
                     if fa >> x & 1 and fb >> y & 1)
        i, j, sign, sign_inv, ks, starts = _pair_table(size.bit_length() - 1, blocks)
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
    _mul_into(a[:, :h], b[:, :h], out[:, :h], inv, s, fa, fb)
    _mul_into(a[:, :h], b[:, h:], out[:, h:], inv, -s if inv else s, fa, _swap(fb))
    _mul_into(a[:, h:], b[:, :h], out[:, h:], not inv, s, _swap(fa), fb)


def g_mul(p: GrassmannPoly, q: GrassmannPoly) -> GrassmannPoly:
    """Grassmann product; bilinear, with eta_a^2 = 0 and anticommuting generators.

    Stacks multiply row by row, broadcasting their leading axes.
    """
    p._check(q)
    a, b = np.broadcast_arrays(*(np.asarray(c, dtype=complex) for c in (p.coeffs, q.coeffs)))
    shape = a.shape
    a, b = a.reshape(-1, shape[-1]), b.reshape(-1, shape[-1])
    out = np.zeros(a.shape, dtype=complex)
    _mul_into(a, b, out, False, 1.0, _parity_flags(a), _parity_flags(b))
    return GrassmannPoly(p.generators, out.reshape(shape))


def _lowest_degree(p: GrassmannPoly) -> int | None:
    """Lowest degree with a nonzero coefficient in any row, or None for zero."""
    nz = np.flatnonzero(np.any(p.coeffs.reshape(-1, 1 << p.generators) != 0, axis=0))
    return int(popcounts(p.generators)[nz].min()) if len(nz) else None


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
    d = _lowest_degree(p)
    top = p.generators // d if d else 1
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
    d = _lowest_degree(x)
    if d is None:
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
