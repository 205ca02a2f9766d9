"""Reference state constructors."""

from __future__ import annotations

import numpy as np


def magic_state_vector(phi) -> np.ndarray:
    """The 4-qubit family (|0000> + |0011> + |1100> + e^{i phi}|1111>)/2.

    Even for every phi; Gaussian exactly at phi in {0, 2 pi} and maximally
    non-Gaussian at phi = pi.  An array of phi gives a stack (..., 16).
    """
    phi = np.asarray(phi, dtype=float)
    v = np.zeros(phi.shape + (16,), dtype=complex)
    v[..., 0b0000] = 0.5
    v[..., 0b0011] = 0.5
    v[..., 0b1100] = 0.5
    v[..., 0b1111] = 0.5 * np.exp(1j * phi)
    return v


def magic_state(phi) -> np.ndarray:
    """|v><v| of magic_state_vector(phi); an array of phi gives a stack (..., 16, 16)."""
    v = magic_state_vector(phi)
    return v[..., :, None] * v[..., None, :].conj()
