"""Quantum variable rotations: bitwise, kickback, and a QFT built on them.

A q-wire register holding the integer u (little-endian: wire j is bit j)
represents the fraction u / 2^q.  A variable rotation with scale xi
multiplies each basis state |u> by e^{2 pi i xi u / 2^q}.

The bitwise form spends one single-qubit rotation per wire, each of
which needs its own Clifford+T synthesis when placeholders are not
allowed.  The kickback form instead adds the register once into an
eigenstate of modular addition (ftqc.kickback): writing the binary
approximation [xi] = k / 2^p with k odd, the wanted phase equals
e^{2 pi i k u / 2^(p+q)}, which is exactly the kick produced by adding u
into |gamma^(k)> of width n = p + q.  Aligning the register with the
adder follows from the same identity:

* p >= 1: the addend is the register extended above by p zero bits.
  The top zero never needs a wire (the adder's closing carry CNOT
  absorbs it), so p - 1 explicit pad wires remain.
* p <= 0: only the low n register bits enter the adder; each dropped
  top bit would contribute a whole turn.

The eigenstate register is an input the circuits expect to receive, not
something they prepare; ``eigenstate_for`` builds the right state.
Controlled variants never control the adder internals: they go through
ftqc.kickback.emit_controlled_add, which copies the addend bits out under
the control (Toffolis), adds, and uncopies, since adding zero is the
identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .core import (
    H,
    TWO_PI,
    CircuitBuilder,
    Circuit,
    cnot,
    crz,
    gate,
    rz,
    rz_matrix,
)
from .kickback import GammaRegister, emit_controlled_add, emit_register_add, gamma_state
from .sim import StateVector
from .synth import synthesize

ROTATION_EXACT = "exact"
ROTATION_SEQUENCE = "sequence"

DEFAULT_FRAC_BITS = 32


@dataclass(frozen=True)
class QvrParams:
    """Alignment arithmetic for one variable rotation.

    numerator / 2^frac_bits is [xi], the fixed-point value actually
    realized (truncated toward zero).  m counts its significant bits
    from the leading 1 through the last 1, w is floor(log2 [xi]), and
    p = (m - 1) - w so that k = 2^p [xi] is odd.  The eigenstate
    register width is n = p + q; n <= 0 (or [xi] = 0) means every phase
    is a whole turn and the rotation is empty.
    """

    xi: float
    q: int
    frac_bits: int
    numerator: int
    m: int
    w: int
    p: int
    k: int

    @property
    def xi_bits(self) -> Fraction:
        return Fraction(self.numerator, 1 << self.frac_bits)

    @property
    def n(self) -> int:
        return self.p + self.q

    @property
    def empty(self) -> bool:
        return self.numerator == 0 or self.n <= 0

    @property
    def k_reduced(self) -> int:
        """k modulo the register size; only this much of k is observable."""
        if self.empty:
            raise ValueError("empty rotation has no eigenstate register")
        return self.k % (1 << self.n)


def qvr_params(xi, q: int, *, frac_bits: int = DEFAULT_FRAC_BITS) -> QvrParams:
    """Fixed-point scale decomposition driving the kickback alignment."""
    if q < 1:
        raise ValueError("register needs at least one qubit")
    if frac_bits < 0:
        raise ValueError("frac_bits must be non-negative")
    exact = Fraction(xi)
    if exact < 0:
        raise ValueError("scale must be non-negative")
    v = math.floor(exact * (1 << frac_bits))
    if v == 0:
        return QvrParams(float(xi), q, frac_bits, 0, 0, 0, 0, 0)
    tz = (v & -v).bit_length() - 1
    return QvrParams(
        xi=float(xi),
        q=q,
        frac_bits=frac_bits,
        numerator=v,
        m=v.bit_length() - tz,
        w=v.bit_length() - 1 - frac_bits,
        p=frac_bits - tz,
        k=v >> tz,
    )


def build_qvr_bitwise(
    q: int,
    xi,
    epsilon_total: float = 1e-3,
    controlled: bool = False,
    method: str = ROTATION_EXACT,
) -> Circuit:
    """One rotation per register wire: bit j turns by 2 pi xi 2^(j-q).

    With ``method`` "exact" the rotations are placeholder gates; with
    "sequence" each is compiled to Clifford+T within epsilon_total / q,
    so the whole diagonal lands within epsilon_total by the triangle
    inequality.  The controlled form (control wire appended after the
    register) only exists for exact placeholders; controlled synthesis
    is what the kickback form is for.
    """
    if q < 1:
        raise ValueError("register needs at least one qubit")
    if method not in (ROTATION_EXACT, ROTATION_SEQUENCE):
        raise ValueError(f"unknown rotation method {method!r}")
    if method == ROTATION_SEQUENCE and controlled:
        raise ValueError("synthesized controlled rotations are not provided; use the kickback form")
    control = q if controlled else None
    builder = CircuitBuilder(q + 1 if controlled else q)
    for j in range(q):
        frac = math.fmod(float(xi) * 2.0 ** (j - q), 1.0)
        angle = TWO_PI * frac
        if angle == 0.0:
            continue
        if method == ROTATION_EXACT:
            builder.append(crz(angle, control, j) if controlled else rz(angle, j))
        else:
            seq = synthesize(rz_matrix(angle), epsilon_total / q)
            builder.extend(seq.to_gates(j))
    return builder.build()


class QvrLayout(NamedTuple):
    """Wire assignment of a kickback rotation circuit."""

    theta: tuple[int, ...]
    gamma: tuple[int, ...]
    control: int | None
    scratch: tuple[int, ...]
    pads: tuple[int, ...]
    ancilla: int | None

    @property
    def n_qubits(self) -> int:
        wires = [*self.theta, *self.gamma, *self.scratch, *self.pads]
        if self.control is not None:
            wires.append(self.control)
        if self.ancilla is not None:
            wires.append(self.ancilla)
        return max(wires) + 1


def qvr_layout(params: QvrParams, controlled: bool = False) -> QvrLayout:
    q = params.q
    if params.empty:
        control = q if controlled else None
        return QvrLayout(tuple(range(q)), (), control, (), (), None)
    n = params.n
    theta = tuple(range(q))
    gamma = tuple(range(q, q + n))
    nxt = q + n
    control = None
    if controlled:
        control = nxt
        nxt += 1
    addend_bits = min(q, n)
    scratch: tuple[int, ...] = ()
    if controlled:
        scratch = tuple(range(nxt, nxt + addend_bits))
        nxt += addend_bits
    pad_count = max(0, (n - 1) - addend_bits)
    pads = tuple(range(nxt, nxt + pad_count))
    nxt += pad_count
    return QvrLayout(theta, gamma, control, scratch, pads, nxt)


def eigenstate_for(params: QvrParams) -> StateVector:
    """The addition eigenstate the kickback circuit expects on its gamma wires."""
    return gamma_state(GammaRegister(params.k_reduced, params.n))


def build_qvr_kickback(params: QvrParams, controlled: bool = False) -> Circuit:
    """Variable rotation as one register addition into an eigenstate.

    Realizes [xi] exactly, with no per-bit synthesis.  The returned
    circuit covers the registers of ``qvr_layout``; feed the gamma wires
    ``eigenstate_for(params)`` and pads/ancilla |0>.  An empty rotation
    yields a gate-free circuit on the data wires.
    """
    layout = qvr_layout(params, controlled)
    builder = CircuitBuilder(layout.n_qubits)
    if params.empty:
        return builder.build()
    addend_bits = layout.theta[: min(params.q, params.n)]
    if controlled:
        copies = layout.scratch + layout.pads
        emit_controlled_add(builder, layout.control, addend_bits, copies, layout.gamma, layout.ancilla)
    else:
        emit_register_add(builder, addend_bits + layout.pads, layout.gamma, layout.ancilla)
    return builder.build()


def qft_gamma_width(q: int, approx_drop: int = 0) -> int:
    """Width of the |gamma^(1)> register build_qft_via_qvr places on its gamma wires.

    Zero when no block keeps a rotation (q - 1 <= approx_drop): the
    transform then has no gamma wires.
    """
    return q - approx_drop if q - 1 >= approx_drop + 1 else 0


def build_qft_via_qvr(q: int, approx_drop: int = 0) -> Circuit:
    """Fourier transform with each controlled-rotation block one kickback QVR.

    Processing wire t after its Hadamard applies phases
    e^{2 pi i x_t u_low / 2^(t+1)} with u_low the value of the lower
    wires: a controlled variable rotation at scale 1/2, i.e. k = 1, so
    every block can borrow top slices of a single |gamma^(1)> register
    (its top w wires are exactly the width-w eigenstate).  Explicit
    CNOT-triple swaps finish the standard bit reversal.

    approx_drop > 0 truncates the eigenstate register by that many bits,
    which silently drops each block's smallest rotations; the induced
    error is bounded by the sum of the dropped angles.  The gamma wires
    expect |gamma^(1)> of width qft_gamma_width(q, approx_drop): q -
    approx_drop when q - 1 > approx_drop, and none otherwise.
    """
    if q < 1:
        raise ValueError("transform needs at least one qubit")
    if approx_drop < 0:
        raise ValueError("approx_drop must be non-negative")
    drop = approx_drop
    gamma_width = qft_gamma_width(q, drop)
    scratch_count = max(0, q - 1 - drop)
    total = q + gamma_width + scratch_count + (1 if gamma_width else 0)
    builder = CircuitBuilder(total)
    gamma = tuple(range(q, q + gamma_width))
    scratch = tuple(range(q + gamma_width, q + gamma_width + scratch_count))
    ancilla = q + gamma_width + scratch_count
    for t in range(q - 1, -1, -1):
        builder.append(gate(H, t))
        bits = tuple(range(drop, t))
        if not bits:
            continue
        gamma_slice = gamma[gamma_width - (t + 1 - drop) :]
        emit_controlled_add(builder, t, bits, scratch[: len(bits)], gamma_slice, ancilla)
    for i in range(q // 2):
        j = q - 1 - i
        builder.extend([cnot(i, j), cnot(j, i), cnot(i, j)])
    return builder.build()
