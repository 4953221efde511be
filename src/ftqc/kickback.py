"""Arbitrary phase rotations by kickback onto addition eigenstates.

An n-qubit register holding the state with amplitudes
e^{-2 pi i k y / 2^n} / sqrt(2^n) (k odd) is an eigenvector of in-place
addition modulo 2^n: adding a constant u multiplies it by the global
phase e^{2 pi i k u / 2^n}.  Performing that addition controlled on a
target qubit therefore applies diag(1, e^{2 pi i k u / 2^n}) to the
target while returning the register unchanged, so one register serves
arbitrarily many rotations.  Solving k u = round(2^n phi / 2 pi)
(mod 2^n) for u realizes any angle phi to within
|dphi| <= 2 pi / 2^{n+1} using only X, CNOT and Toffoli.

Conventions: registers are little-endian (data qubit j carries weight
2^j, matching the simulator's basis-index convention), and the adder
folds the classical addend into the gate sequence instead of loading it
into a second quantum register.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .core import (
    TWO_PI,
    X,
    Circuit,
    CircuitBuilder,
    Gate,
    ResourceProfile,
    cnot,
    gate,
    toffoli,
)
from .sim import StateVector, _check_size

RIPPLE_CARRY = "ripple-carry"


@dataclass(frozen=True)
class GammaRegister:
    """Parameters of an addition eigenstate on n qubits.

    k must be odd so that it is invertible modulo 2^n; the register then
    reaches every multiple of 2 pi / 2^n as a kickback phase.
    """

    k: int
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("register needs at least one qubit")
        if self.k % 2 == 0:
            raise ValueError(f"k={self.k} is even and has no inverse modulo 2^{self.n}")
        if not 1 <= self.k < (1 << self.n):
            raise ValueError(f"k={self.k} outside [1, 2^{self.n})")

    @property
    def modulus(self) -> int:
        return 1 << self.n


def gamma_state(reg: GammaRegister) -> StateVector:
    """Eigenstate of modular addition: amplitudes e^{-2 pi i k y / 2^n} / sqrt(2^n).

    The state is a product state; qubit j holds
    (|0> + e^{-2 pi i k / 2^(n-j)} |1>) / sqrt(2).  k y is reduced modulo
    2^n in integers, so each phase is one rounding of an angle in (-2 pi, 0].
    The simulator's size limit is checked before any amplitude is built.
    """
    _check_size(reg.n)
    n_amp = reg.modulus
    turns = (np.arange(n_amp, dtype=np.int64) * reg.k) % n_amp
    return StateVector(reg.n, np.exp((-TWO_PI / n_amp) * turns * 1j) / np.sqrt(n_amp))


def _reduce_angle(phi: float) -> float:
    """Map phi into [0, 2 pi)."""
    out = math.fmod(phi, TWO_PI)
    if out < 0.0:
        out += TWO_PI
    return out


def solve_mod(k: int, n: int, phi: float) -> int:
    """Addend u with k u = round(2^n phi / 2 pi) (mod 2^n).

    The right-hand side rounds half up; u is the unique solution in
    [0, 2^n) because odd k is invertible modulo a power of two.
    """
    if k % 2 == 0:
        raise ValueError(f"k={k} is even and has no inverse modulo 2^{n}")
    modulus = 1 << n
    target = math.floor(modulus * _reduce_angle(phi) / TWO_PI + 0.5)
    return (target * pow(k, -1, modulus)) % modulus


def phase_error(n: int, phi: float) -> float:
    """Signed residual phi - 2 pi round(2^n phi / 2 pi) / 2^n after reduction.

    Bounded by 2 pi / 2^{n+1} in magnitude; independent of k, which only
    permutes which addend reaches the rounded phase.
    """
    modulus = 1 << n
    reduced = _reduce_angle(phi)
    target = math.floor(modulus * reduced / TWO_PI + 0.5)
    return reduced - TWO_PI * target / modulus


@dataclass(frozen=True)
class AdderSpec:
    """Which adder construction to use and at what width.

    ripple-carry, the folded constant adder of emit_add_constant, is the
    one construction; build_adder turns the spec into its circuit.
    """

    kind: str
    n: int
    controlled: bool = False

    def __post_init__(self) -> None:
        if self.kind != RIPPLE_CARRY:
            raise ValueError(f"unknown adder kind {self.kind!r}")
        if self.n < 1:
            raise ValueError("adder needs at least one data qubit")


def carries_needed(n: int, addend: int) -> int:
    """Carry ancillas the folded ripple-carry adder uses for this addend."""
    addend %= 1 << n
    if addend == 0:
        return 0
    low = (addend & -addend).bit_length() - 1  # lowest set bit index
    return n - 1 - low


def emit_add_constant(
    builder: CircuitBuilder,
    data: list[int] | tuple[int, ...],
    addend: int,
    carries: list[int] | tuple[int, ...],
    control: int | None = None,
) -> None:
    """Emit an in-place |x> -> |x + addend mod 2^len(data)> onto the builder.

    data is little-endian (data[j] has weight 2^j).  carries must supply
    at least carries_needed(len(data), addend) clean ancillas; each is
    returned to |0>.  The classical addend is folded in: bits below its
    lowest set bit cost nothing, zero bits above it skip their sum CNOT.

    With a control qubit, only the writes to data qubits acquire the
    control; the carry bookkeeping is computed and uncomputed identically
    either way, so a cleared control leaves the register untouched.
    """
    n = len(data)
    addend %= 1 << n
    if addend == 0:
        return
    need = carries_needed(n, addend)
    if len(carries) < need:
        raise ValueError(f"addend {addend} on {n} bits needs {need} carry ancillas")
    low = n - 1 - need  # lowest set bit of the addend
    bit = [(addend >> j) & 1 for j in range(n)]
    # carry[j] holds the carry into data bit j, for j in low+1 .. n-1
    carry = {j: carries[i] for i, j in enumerate(range(low + 1, n))}

    def compute_carry_into(j: int) -> list[Gate]:
        """Gates setting carry[j] from data bit j-1 (and carry[j-1])."""
        src = j - 1
        if src == low:
            # carry out of the lowest set bit is just that data bit
            return [cnot(data[src], carry[j])]
        gates = [toffoli(data[src], carry[src], carry[j])]
        if bit[src]:
            # with the addend bit set the carry out is an OR, not an AND
            gates += [cnot(data[src], carry[j]), cnot(carry[src], carry[j])]
        return gates

    for j in range(low + 1, n):
        builder.extend(compute_carry_into(j))
    for j in range(n - 1, low, -1):
        if control is None:
            builder.append(cnot(carry[j], data[j]))
            if bit[j]:
                builder.append(gate(X, data[j]))
        else:
            builder.append(toffoli(control, carry[j], data[j]))
            if bit[j]:
                builder.append(cnot(control, data[j]))
        builder.extend(reversed(compute_carry_into(j)))
    if control is None:
        builder.append(gate(X, data[low]))
    else:
        builder.append(cnot(control, data[low]))


def emit_register_add(builder: CircuitBuilder, addend, target, carry: int) -> None:
    """Emit |a>|t> -> |a>|t + a mod 2^len(target)>; len(addend) in {len-1, len}.

    MAJ/UMA ripple (little-endian) with one clean ancilla, carry, seeding
    the chain; the addend and the ancilla are restored.  A width-(len-1)
    addend stands for a zero top bit, in which case the top sum bit needs
    only the final carry, one CNOT.
    """
    width = len(target)
    reach = len(addend)
    if width < 1 or reach not in (width - 1, width):
        raise ValueError("addend must be as wide as the target or one bit narrower")
    chain = []
    for i in range(reach):
        chain.append((carry, target[i], addend[i]))
        carry = addend[i]
    for c, t, a in chain:  # MAJ
        builder.extend([cnot(a, t), cnot(a, c), toffoli(c, t, a)])
    if reach == width - 1:
        builder.append(cnot(carry, target[width - 1]))
    for c, t, a in reversed(chain):  # UMA
        builder.extend([toffoli(c, t, a), cnot(a, c), cnot(c, t)])


def emit_controlled_add(builder: CircuitBuilder, control: int, addend, copies, target, carry: int) -> None:
    """Emit |c>|a>|t> -> |c>|a>|t + c a mod 2^len(target)>.

    Toffolis copy the addend onto copies under the control,
    emit_register_add adds the copies into the target, and the same
    Toffolis uncopy; adding zero is the identity, so the adder needs no
    control.  Entries of copies past len(addend) are pad wires holding 0.
    Every wire but the target comes back as it went in.
    """
    if len(copies) < len(addend):
        raise ValueError("need one copy wire per addend bit")
    copy = [toffoli(control, a, c) for a, c in zip(addend, copies)]
    builder.extend(copy)
    emit_register_add(builder, copies, target, carry)
    builder.extend(copy)


@lru_cache(maxsize=None)
def ripple_profile(n: int, controlled: bool = False) -> ResourceProfile:
    """Worst-case ripple-carry constant-adder cost at this width: addend
    2^n - 1 maximizes the carry chain.  Built once per (n, controlled)."""
    return build_adder(AdderSpec(RIPPLE_CARRY, n, controlled), (1 << n) - 1).profile()


def build_adder(spec: AdderSpec, addend: int) -> Circuit:
    """Ripple-carry circuit adding the constant addend modulo 2^n.

    Layout: data qubits 0..n-1 (little-endian), then the carry ancillas,
    then the control qubit last when controlled.
    """
    if not 0 <= addend < (1 << spec.n):
        raise ValueError(f"addend {addend} outside [0, 2^{spec.n})")
    n = spec.n
    n_carry = carries_needed(n, addend)
    total = n + n_carry + (1 if spec.controlled else 0)
    builder = CircuitBuilder(total)
    emit_add_constant(
        builder,
        list(range(n)),
        addend,
        list(range(n, n + n_carry)),
        control=total - 1 if spec.controlled else None,
    )
    return builder.build()


@dataclass(frozen=True)
class KickbackLayout:
    """Where kickback_rotation placed each register inside its circuit."""

    target: int
    gamma: tuple[int, ...]
    carries: tuple[int, ...]
    control: int | None = None
    and_ancilla: int | None = None


class KickbackRotation(NamedTuple):
    circuit: Circuit
    delta_phi: float
    u: int
    layout: KickbackLayout


def kickback_rotation(phi: float, reg: GammaRegister, controlled: bool = False) -> KickbackRotation:
    """Rotation diag(1, e^{i(phi - delta_phi)}) on a target qubit by kickback.

    Adds u = solve_mod(reg.k, reg.n, phi) into the eigenstate register,
    controlled on the target; the register comes back unchanged and the
    target picks up the phase on |1>.  With controlled=True the phase
    lands on |11> of (control, target) instead, via a Toffoli-computed
    AND ancilla wrapped around the singly-controlled adder.

    Matches rz_matrix(phi) up to global phase and the quantization
    residual: dist <= |delta_phi| / 2 + numerical noise.
    """
    u = solve_mod(reg.k, reg.n, phi)
    start = 2 if controlled else 1  # wires before the gamma register: (control,) target
    end = start + reg.n + carries_needed(reg.n, u)  # one past the carries
    and_anc = end if controlled else None
    gamma, carries = tuple(range(start, start + reg.n)), tuple(range(start + reg.n, end))
    layout = KickbackLayout(start - 1, gamma, carries, 0 if controlled else None, and_anc)
    builder = CircuitBuilder(end + controlled)
    and_pair = [toffoli(0, 1, and_anc)] if controlled and u else []
    builder.extend(and_pair)
    emit_add_constant(builder, gamma, u, carries, control=and_anc if controlled else 0)
    builder.extend(and_pair)
    return KickbackRotation(builder.build(), phase_error(reg.n, phi), u, layout)
