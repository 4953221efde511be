"""Quantum variable rotations: bitwise, kickback, and a QFT built on them.

A q-wire register holding the integer u (little-endian: wire j is bit j)
represents the fraction u / 2^q.  A variable rotation with scale xi
multiplies each basis state |u> by e^{2 pi i xi u / 2^q}.

The bitwise form spends one single-qubit rotation per wire, each from
synth.emit_rz, and each a Clifford+T word of its own when placeholders
are not allowed.  The kickback form instead adds the register once into an
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
    EXACT,
    H,
    TWO_PI,
    CircuitBuilder,
    Circuit,
    cnot,
    gate,
)
from .kickback import GammaRegister, emit_controlled_add, emit_register_add, gamma_state
from .sim import StateVector
from .synth import emit_rz

FRAC_BITS = 32  # binary places of the fixed-point scale [xi]


@dataclass(frozen=True)
class QvrParams:
    """Alignment arithmetic for one variable rotation.

    numerator / 2^FRAC_BITS is [xi], the fixed-point value actually
    realized (truncated toward zero).  m counts its significant bits
    from the leading 1 through the last 1, w is floor(log2 [xi]), and
    p = (m - 1) - w so that k = 2^p [xi] is odd.  The eigenstate
    register width is n = p + q; n <= 0 (or [xi] = 0) means every phase
    is a whole turn and the rotation is empty.
    """

    xi: float
    q: int
    numerator: int
    m: int
    w: int
    p: int
    k: int

    @property
    def xi_bits(self) -> Fraction:
        return Fraction(self.numerator, 1 << FRAC_BITS)

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


def qvr_params(xi, q: int) -> QvrParams:
    """Fixed-point scale decomposition driving the kickback alignment."""
    if q < 1:
        raise ValueError("register needs at least one qubit")
    exact = Fraction(xi)
    if exact < 0:
        raise ValueError("scale must be non-negative")
    v = math.floor(exact * (1 << FRAC_BITS))
    if v == 0:
        return QvrParams(float(xi), q, 0, 0, 0, 0, 0)
    tz = (v & -v).bit_length() - 1
    return QvrParams(
        xi=float(xi),
        q=q,
        numerator=v,
        m=v.bit_length() - tz,
        w=v.bit_length() - 1 - FRAC_BITS,
        p=FRAC_BITS - tz,
        k=v >> tz,
    )


def build_qvr_bitwise(
    q: int,
    xi,
    epsilon_total: float = 1e-3,
    controlled: bool = False,
    method: str = EXACT,
) -> Circuit:
    """One rotation per register wire: bit j turns by 2 pi xi 2^(j-q).

    With ``method`` "exact" the rotations are placeholder gates; with
    "sequence" each is compiled to Clifford+T within epsilon_total / q,
    so the whole diagonal lands within epsilon_total by the triangle
    inequality, and a word that misses its share raises ValueError.  The
    controlled form (control wire appended after the register) only
    exists for exact placeholders; controlled synthesis is what the
    kickback form is for.
    """
    if q < 1:
        raise ValueError("register needs at least one qubit")
    builder = CircuitBuilder(q + 1 if controlled else q)
    emit_qvr_bitwise(builder, range(q), xi, epsilon_total / q, method, q if controlled else None)
    return builder.build()


def emit_qvr_bitwise(builder, wires, xi, epsilon_each=None, method: str = EXACT, control=None) -> None:
    """Append the bitwise rotation of build_qvr_bitwise on the given wires
    (little-endian: wires[j] is bit j), each through synth.emit_rz."""
    q = len(wires)
    for j, wire in enumerate(wires):
        angle = TWO_PI * math.fmod(float(xi) * 2.0 ** (j - q), 1.0)
        emit_rz(builder, angle, wire, method, epsilon_each, control)


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


def build_qft_via_qvr(q: int) -> Circuit:
    """Fourier transform with each controlled-rotation block one kickback QVR.

    Processing wire t after its Hadamard applies phases
    e^{2 pi i x_t u_low / 2^(t+1)} with u_low the value of the lower
    wires: a controlled variable rotation at scale 1/2, i.e. k = 1, so
    every block can borrow top slices of a single |gamma^(1)> register
    (its top w wires are exactly the width-w eigenstate).  Explicit
    CNOT-triple swaps finish the standard bit reversal.

    For q > 1 the q gamma wires q..2q-1 expect |gamma^(1)> of width q,
    and q - 1 scratch wires and one ancilla follow them; a one-wire
    transform is a single Hadamard.
    """
    if q < 1:
        raise ValueError("transform needs at least one qubit")
    builder = CircuitBuilder(3 * q if q > 1 else 1)
    gamma = tuple(range(q, 2 * q))
    scratch = tuple(range(2 * q, 3 * q - 1))
    ancilla = 3 * q - 1
    for t in range(q - 1, -1, -1):
        builder.append(gate(H, t))
        bits = tuple(range(t))
        if not bits:
            continue
        emit_controlled_add(builder, t, bits, scratch[:t], gamma[q - 1 - t :], ancilla)
    for i in range(q // 2):
        j = q - 1 - i
        builder.extend([cnot(i, j), cnot(j, i), cnot(i, j)])
    return builder.build()
