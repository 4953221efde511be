"""Statevector kernels, in numpy: the simulator's one backend.

Every function takes a flat complex128 amplitude array of length 2**n,
where qubit j is bit j of the basis index (qubit 0 is the least
significant bit), and returns the updated array, modified in place where
the operation allows.  prob_one sums in a fixed (C) order, so a seeded
run is reproducible.

No kernel assumes that n is the size of one state.  The simulator runs a
block of B = 2**b states, stored as one C-contiguous (B, 2**n) array,
through the same kernels as a single state on n + b qubits: the row index
sits on the bits above the circuit's n, which no gate of the circuit
touches.

apply_1q given exactly [[0, 1], [1, 0]] swaps the two halves of the
target qubit in place rather than multiplying, so X moves amplitudes
without touching their bits.  Any other matrix, even one that rounds to
X, is multiplied.
"""

from __future__ import annotations

import numpy as np

# the benchmark records this name with each result
BACKEND_NAME = "python"


def _axis(n: int, q: int) -> int:
    # amps.reshape([2]*n) puts the most significant bit on axis 0
    return n - 1 - q


def apply_1q(amps: np.ndarray, n: int, q: int, m: np.ndarray) -> np.ndarray:
    if m[0, 0] == 0 and m[1, 1] == 0 and m[0, 1] == 1 and m[1, 0] == 1:
        # exactly X: swap the two halves in place, no arithmetic
        a = amps.reshape(-1, 2, 1 << q)
        tmp = a[:, 0, :].copy()
        a[:, 0, :] = a[:, 1, :]
        a[:, 1, :] = tmp
        return amps
    a = amps.reshape([2] * n)
    res = np.tensordot(m, a, axes=([1], [_axis(n, q)]))
    res = np.moveaxis(res, 0, _axis(n, q))
    return np.ascontiguousarray(res).reshape(-1)


def apply_diag_1q(amps: np.ndarray, n: int, q: int, d0: complex, d1: complex) -> np.ndarray:
    a = amps.reshape(-1, 2, 1 << q)
    if d0 != 1.0:
        a[:, 0, :] *= d0
    if d1 != 1.0:
        a[:, 1, :] *= d1
    return amps


def apply_cnot(amps: np.ndarray, n: int, control: int, target: int) -> np.ndarray:
    a = amps.reshape([2] * n)
    sel = [slice(None)] * n
    sel[_axis(n, control)] = 1
    block = a[tuple(sel)]
    t_ax = _axis(n, target) - (1 if _axis(n, control) < _axis(n, target) else 0)
    i0 = [slice(None)] * (n - 1)
    i1 = list(i0)
    i0[t_ax] = 0
    i1[t_ax] = 1
    tmp = block[tuple(i0)].copy()
    block[tuple(i0)] = block[tuple(i1)]
    block[tuple(i1)] = tmp
    return amps


def apply_toffoli(amps: np.ndarray, n: int, c1: int, c2: int, target: int) -> np.ndarray:
    a = amps.reshape([2] * n)
    sel = [slice(None)] * n
    sel[_axis(n, c1)] = 1
    sel[_axis(n, c2)] = 1
    block = a[tuple(sel)]
    t_ax = _axis(n, target)
    t_ax -= sum(1 for c in (c1, c2) if _axis(n, c) < _axis(n, target))
    i0 = [slice(None)] * (n - 2)
    i1 = list(i0)
    i0[t_ax] = 0
    i1[t_ax] = 1
    tmp = block[tuple(i0)].copy()
    block[tuple(i0)] = block[tuple(i1)]
    block[tuple(i1)] = tmp
    return amps


def apply_phase_on_ones(amps: np.ndarray, n: int, mask: int, phase: complex) -> np.ndarray:
    a = amps.reshape([2] * n)
    sel = [slice(None)] * n
    for q in range(n):
        if (mask >> q) & 1:
            sel[_axis(n, q)] = 1
    a[tuple(sel)] *= phase
    return amps


def prob_one(amps: np.ndarray, n: int, q: int) -> float:
    a = amps.reshape(-1, 2, 1 << q)
    return float(np.sum(np.abs(a[:, 1, :]) ** 2))


def collapse(amps: np.ndarray, n: int, q: int, outcome: int, prob: float) -> np.ndarray:
    a = amps.reshape(-1, 2, 1 << q)
    a[:, 1 - outcome, :] = 0.0
    amps *= 1.0 / np.sqrt(prob)
    return amps
