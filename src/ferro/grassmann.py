"""Grassmann polynomial arithmetic and the Grassmann-Clifford Fourier transform.

A polynomial over 2n anticommuting generators is a dense complex array of
length 4^n indexed by bitmask; bit j-1 set means generator eta_j appears.
Products are computed by submask convolution with an inversion-count sign,
vectorized in numpy over the free masks of each nonzero term of the left factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import clifford


@lru_cache(maxsize=None)
def popcounts(nbits: int) -> np.ndarray:
    """Popcount of every mask over nbits bits."""
    masks = np.arange(1 << nbits, dtype=np.int64)
    out = np.zeros(1 << nbits, dtype=np.int64)
    while masks.any():
        out += masks & 1
        masks >>= 1
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class GrassmannPoly:
    """Dense coefficient array over 2n Grassmann generators."""

    generators: int
    coeffs: np.ndarray

    def __post_init__(self):
        if self.generators % 2:
            raise ValueError("generator count must be even (2n)")
        if self.coeffs.shape != (1 << self.generators,):
            raise ValueError(
                f"coefficient array has length {len(self.coeffs)}, expected {1 << self.generators}"
            )

    @classmethod
    def zero(cls, generators: int) -> "GrassmannPoly":
        return cls(generators, np.zeros(1 << generators, dtype=complex))

    @classmethod
    def one(cls, generators: int) -> "GrassmannPoly":
        c = np.zeros(1 << generators, dtype=complex)
        c[0] = 1.0
        return cls(generators, c)

    @classmethod
    def monomial(cls, generators: int, mask: int, coeff: complex = 1.0) -> "GrassmannPoly":
        c = np.zeros(1 << generators, dtype=complex)
        c[mask] = coeff
        return cls(generators, c)

    def __add__(self, other: "GrassmannPoly") -> "GrassmannPoly":
        self._check(other)
        return GrassmannPoly(self.generators, self.coeffs + other.coeffs)

    def __sub__(self, other: "GrassmannPoly") -> "GrassmannPoly":
        self._check(other)
        return GrassmannPoly(self.generators, self.coeffs - other.coeffs)

    def __mul__(self, other):
        if isinstance(other, GrassmannPoly):
            return g_mul(self, other)
        return GrassmannPoly(self.generators, self.coeffs * other)

    __rmul__ = __mul__

    def _check(self, other: "GrassmannPoly") -> None:
        if self.generators != other.generators:
            raise ValueError("generator counts differ")

    def degree_slice(self, k: int) -> np.ndarray:
        """Coefficients of all degree-k monomials, in ascending mask order."""
        return self.coeffs[popcounts(self.generators) == k]

    def is_even(self, eps: float = 1e-12) -> bool:
        odd = popcounts(self.generators) & 1 == 1
        return bool(np.all(np.abs(self.coeffs[odd]) <= eps))


def g_mul(p: GrassmannPoly, q: GrassmannPoly) -> GrassmannPoly:
    """Grassmann product; bilinear, with eta_a^2 = 0 and anticommuting generators."""
    p._check(q)
    a, b = p.coeffs, q.coeffs
    out = np.zeros_like(a)
    par = popcounts(p.generators) & 1
    masks = np.arange(len(out), dtype=np.int64)
    for j in np.nonzero(a)[0]:
        # eta_J eta_K = sign * eta_{J|K} for each K disjoint from J
        free = masks[(masks & j) == 0]
        sign = np.ones(len(free))
        t = int(j)
        while t:
            low = t & (-t)
            sign *= 1.0 - 2.0 * par[free & (low - 1)]
            t ^= low
        out[free | j] += a[j] * sign * b[free]
    return GrassmannPoly(p.generators, out)


def g_exp(p: GrassmannPoly) -> GrassmannPoly:
    """exp of a polynomial with zero constant term (nilpotent, series truncates)."""
    if p.coeffs[0] != 0:
        raise ValueError("g_exp needs a zero constant term")
    out = GrassmannPoly.one(p.generators)
    term = GrassmannPoly.one(p.generators)
    for k in range(1, p.generators + 1):
        term = g_mul(term, p) * (1.0 / k)
        if not term.coeffs.any():
            break
        out = out + term
    return out


def g_log(p: GrassmannPoly) -> GrassmannPoly:
    """log of a polynomial with unit constant term, via the truncated Mercator series."""
    if abs(p.coeffs[0] - 1.0) > 1e-9:
        raise ValueError("g_log needs a unit constant term")
    x = GrassmannPoly(p.generators, p.coeffs.copy())
    x.coeffs[0] = 0.0
    out = GrassmannPoly.zero(p.generators)
    power = GrassmannPoly.one(p.generators)
    for k in range(1, p.generators + 1):
        power = g_mul(power, x)
        if not power.coeffs.any():
            break
        out = out + power * ((-1.0) ** (k + 1) / k)
    return out


def contract(p: GrassmannPoly, alpha: complex) -> GrassmannPoly:
    """Scale every generator by alpha: coefficient at J picks up alpha^|J|."""
    powers = np.power(complex(alpha), popcounts(p.generators))
    return GrassmannPoly(p.generators, p.coeffs * powers)


def rotate_generators(p: GrassmannPoly, r: np.ndarray) -> GrassmannPoly:
    """Substitute eta_j -> sum_k R_jk eta_k, degree by degree via minors of R."""
    m = p.generators
    if r.shape != (m, m):
        raise ValueError("rotation dimension mismatch")
    from itertools import combinations

    pc = popcounts(m)
    out = np.zeros_like(p.coeffs)
    out[0] = p.coeffs[0]
    for k in range(1, m + 1):
        src = [mask for mask in range(1 << m) if pc[mask] == k and p.coeffs[mask] != 0]
        if not src:
            continue
        for tgt_idx in combinations(range(m), k):
            tgt_mask = sum(1 << i for i in tgt_idx)
            acc = 0.0 + 0.0j
            for mask in src:
                rows = [i for i in range(m) if mask >> i & 1]
                acc += p.coeffs[mask] * np.linalg.det(r[np.ix_(rows, tgt_idx)])
            out[tgt_mask] = acc
    return GrassmannPoly(m, out)


def embed_disjoint(p: GrassmannPoly, q: GrassmannPoly) -> GrassmannPoly:
    """p and q on disjoint generator blocks, p on the low bits, combined additively."""
    m = p.generators + q.generators
    out = np.zeros(1 << m, dtype=complex)
    pm = np.nonzero(p.coeffs)[0]
    out[pm] += p.coeffs[pm]
    qm = np.nonzero(q.coeffs)[0]
    out[qm << p.generators] += q.coeffs[qm]
    out[0] = p.coeffs[0] + q.coeffs[0]
    return GrassmannPoly(m, out)


def fourier(rho: np.ndarray, check: bool = True) -> GrassmannPoly:
    """Moment-generating polynomial: coefficient at J is Tr(gamma_J^dag rho)."""
    n = clifford.num_qubits(rho)
    return GrassmannPoly(2 * n, clifford.moments(rho, check=check))


def inverse_fourier(xi: GrassmannPoly) -> np.ndarray:
    """Reconstruct the operator 2^-n sum_J c_J gamma_J from its transform."""
    n = xi.generators // 2
    return clifford.from_moments(xi.coeffs, n)


def cumulants(rho: np.ndarray, check: bool = True) -> GrassmannPoly:
    """Cumulant-generating polynomial log Xi_rho; defined for even states."""
    if check and not clifford.is_even(rho):
        raise ValueError("cumulants are defined for even states only")
    xi = fourier(rho, check=check)
    # project out odd-degree rounding noise: it is certified <= eps_even and
    # would otherwise be amplified by cumulant scalings downstream
    coeffs = xi.coeffs.copy()
    coeffs[popcounts(xi.generators) & 1 == 1] = 0.0
    return g_log(GrassmannPoly(xi.generators, coeffs))


def l2_norm(p: GrassmannPoly) -> float:
    """Norm under which the basis monomials are orthonormal."""
    return float(math.sqrt(np.sum(np.abs(p.coeffs) ** 2)))
