"""Statevector kernels, in numpy; there is no other kernel backend.

A dense run() and the block runs of the whole-matrix checks take every
gate through them but X and CNOT, which sim._Relabel folds into a
pending relabelling of basis indices and applies, when a gate needs it,
with one gather instead of a swap.  A one-qubit diagonal gate on a
relabelled wire is also multiplied there, on the amplitudes it selects;
on any other wire it reaches apply_diag_1q.  run() leaves the kernels
out altogether while a sparse input's circuit holds a MEASURE or only
X, CNOT and Toffoli gates: sim's support route runs those on the listed
amplitudes, and hands the rest of the circuit to the dense path only if
the support outgrows its share.  The whole-matrix checks of a circuit
built from X, CNOT, Toffoli and diagonal gates alone take sim's
basis-state evaluator instead.  apply_cnot, and apply_1q's swap for X,
serve the gate-by-gate oracle of the tests.

Each function takes a flat, C-contiguous complex128 array of 2**n
amplitudes, where qubit j is bit j of the basis index.  A kernel that
changes amplitudes does so in place and returns the array it was given.
prob_one sums in a fixed (C) order, so a seeded run is reproducible.  No
kernel assumes that n is the size of one state: sim runs a block of 2**b
states, stored as one C-contiguous (2**b, 2**n) array, as one state on
n + b qubits, whose top b bits no gate of the circuit touches.

A dense 1-qubit gate, CNOT and Toffoli work on the two halves of the
target qubit, where every control bit is 1, in tiles of _TILE amplitudes,
through a scratch of three tiles that each thread allocates on first use.
A dense gate copies a tile's bit-clear half a0 into the scratch and
writes m00*a0 + m01*a1 and m10*a0 + m11*a1 back with out= ufuncs; a swap
moves a0 through it.  So a tile stays in cache, no state-sized temporary
is made and no BLAS call runs.

apply_1q given exactly [[0, 1], [1, 0]] swaps the two halves of the
target qubit tile by tile, as CNOT does with no control, rather than
multiplying, so X moves amplitudes without touching their bits.  Any
other matrix, even one that rounds to X, is multiplied.
"""

from __future__ import annotations

import functools
import math
import threading

import numpy as np

# the benchmark records this name with each result
BACKEND_NAME = "python"

# amplitudes per tile: a tile of both halves and the scratch fit in cache
_TILE = 1 << 13
_SHORT = 8  # a shorter last axis is cut into single columns, so numpy loops along a longer one
_local = threading.local()  # each thread's scratch of three tiles


@functools.cache
def _layout(t: int, controls: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[tuple, tuple]]:
    """A shape that gives bit t and each control bit an axis of its own, and
    the indices of its halves with bit t clear and set, every control 1."""
    bits = sorted((t, *controls), reverse=True)
    shape = [-1, 2]
    for hi, lo in zip(bits, bits[1:]):
        shape += [1 << (hi - lo - 1), 2]
    k = bits.index(t)
    pick, rest = (slice(None), 1) * k, (slice(None), 1) * (len(bits) - k - 1)
    return (*shape, 1 << bits[-1]), (pick + (slice(None), 0) + rest, pick + (slice(None), 1) + rest)


def _tiles(amps: np.ndarray, t: int, controls: tuple[int, ...], k: int):
    """The two halves of qubit t as views, k scratch arrays of one tile's
    shape, and the index of every tile of the halves."""
    shape, picks = _layout(t, controls)
    x0, x1 = (amps.reshape(shape)[p] for p in picks)
    shape = x0.shape
    cols = shape[-1] if shape[-1] < _SHORT and x0.size > _TILE else 0
    body, budget = (shape[:-1], _TILE // cols) if cols else (shape, _TILE)
    d, inner = len(body), 1
    while d and inner * body[d - 1] <= budget:
        d -= 1
        inner *= body[d]
    if d:
        step = budget // inner
        tile = (step, *body[d:])
        index = [(*i, slice(j, j + step), ...) for i in np.ndindex(*body[: d - 1])
                 for j in range(0, body[d - 1], step)]
    else:
        tile, index = body, [()]
    if cols:
        index = [(*i, j) for i in index for j in range(cols)]
    if not hasattr(_local, "buf"):
        _local.buf = np.empty((3, _TILE), dtype=np.complex128)
    return x0, x1, [b[: math.prod(tile)].reshape(tile) for b in _local.buf[:k]], index


def _swap(amps: np.ndarray, t: int, controls: tuple[int, ...]) -> np.ndarray:
    """Swap the two halves of qubit t where every control bit is 1."""
    x0, x1, (s,), index = _tiles(amps, t, controls, 1)
    for i in index:
        a0, a1 = x0[i], x1[i]
        s[...] = a0
        a0[...] = a1
        a1[...] = s
    return amps


def apply_1q(amps: np.ndarray, n: int, q: int, m: np.ndarray) -> np.ndarray:
    if m[0, 0] == 0 and m[1, 1] == 0 and m[0, 1] == 1 and m[1, 0] == 1:
        return _swap(amps, q, ())  # exactly X: no arithmetic
    m00, m01, m10, m11 = m.flat
    x0, x1, (s, t, u), index = _tiles(amps, q, (), 3)
    for i in index:
        a0, a1 = x0[i], x1[i]
        s[...] = a0
        np.add(np.multiply(s, m00, out=u), np.multiply(a1, m01, out=t), out=a0)
        np.add(np.multiply(s, m10, out=u), np.multiply(a1, m11, out=t), out=a1)
    return amps


def apply_diag_1q(amps: np.ndarray, n: int, q: int, d0: complex, d1: complex) -> np.ndarray:
    a = amps.reshape(-1, 2, 1 << q)
    if d0 != 1.0:
        a[:, 0, :] *= d0
    if d1 != 1.0:
        a[:, 1, :] *= d1
    return amps


def apply_cnot(amps: np.ndarray, n: int, control: int, target: int) -> np.ndarray:
    return _swap(amps, target, (control,))


def apply_toffoli(amps: np.ndarray, n: int, c1: int, c2: int, target: int) -> np.ndarray:
    return _swap(amps, target, (c1, c2))


def apply_phase_on_ones(amps: np.ndarray, n: int, mask: int, phase: complex) -> np.ndarray:
    a = amps.reshape([2] * n)  # bit n - 1 on axis 0
    sel = [slice(None)] * n
    for q in range(n):
        if (mask >> q) & 1:
            sel[n - 1 - q] = 1
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
