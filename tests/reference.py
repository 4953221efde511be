"""Reference constructions and helpers the tests check ftqc against.

No entry point of the package reaches these.  Some are independent
oracles: gate matrices, the general unitarity check, the 7-T Toffoli
expansion, the angle bound of a truncated transform, the gate-by-gate
kernel runs with and without measurements, a Pauli frame applied one
factor at a time, the einsum projection of a state onto a register
block (effective_unitary's matrix entries must equal it bit for bit),
the per-trial PAR Monte Carlo, the Jordan-Wigner expansion over
``core.Pauli`` products and the string-by-string excitation circuit
whose basis changes ``build_excitation`` merges.  The rest are test
conveniences: one-gate-per-layer circuits, the eigenstate that
``build_qft_via_qvr`` expects, the weight of a state on a register
block, and a script's output under one and two BLAS threads.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from typing import Iterable

import numpy as np

import ftqc
from ftqc import kernels
from ftqc.core import (
    CNOT,
    CRZ,
    EXACT,
    FRAME,
    GATE_MATRICES,
    H,
    MEASURE,
    PLUS,
    RZ,
    S,
    SDG,
    T,
    TDG,
    TOFFOLI,
    TWO_PI,
    X,
    Circuit,
    CircuitBuilder,
    Gate,
    Pauli,
    cnot,
    gate,
    rz_matrix,
    toffoli,
)
from ftqc.kickback import GammaRegister, gamma_state
from ftqc.par import execute_par, expected_rounds, prepare_ancillas
from ftqc.secondq import OneBodyTerm, excitation_operator_strings
from ftqc.sim import SimResult, StateVector, _apply_unitary, _propagate
from ftqc.synth import emit_rz


def sequential_circuit(n_qubits: int, gates: Iterable[Gate]) -> Circuit:
    """One gate per layer, in order."""
    return Circuit(n_qubits, [[g] for g in gates])


def packed_circuit(n_qubits: int, gates: Iterable[Gate]) -> Circuit:
    """ASAP-packed layering of a gate list."""
    return CircuitBuilder(n_qubits).extend(gates).build()


_CNOT_M = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
_TOFFOLI_M = np.eye(8, dtype=complex)[[0, 1, 2, 3, 4, 5, 7, 6]]


def crz_matrix(angle: float) -> np.ndarray:
    """diag(1, 1, 1, e^{i angle}): the controlled phase rotation (CRZ gate)."""
    m = np.eye(4, dtype=complex)
    m[3, 3] = np.exp(1j * angle)
    return m


def matrix_of(g: Gate) -> np.ndarray:
    """Unitary of a gate on its own qubits (control = more significant bit
    for CNOT/Toffoli, matching the qubit order in ``g.qubits``)."""
    if g.kind in GATE_MATRICES:
        return GATE_MATRICES[g.kind]
    if g.kind == RZ:
        return rz_matrix(g.angle)
    if g.kind == CRZ:
        return crz_matrix(g.angle)
    if g.kind == CNOT:
        return _CNOT_M
    if g.kind == TOFFOLI:
        return _TOFFOLI_M
    raise ValueError(f"{g.kind} has no unitary matrix")


def is_unitary(u: np.ndarray, tol: float = 1e-10) -> bool:
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return False
    return bool(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) <= tol)


def toffoli_expansion(c1: int, c2: int, target: int) -> list[Gate]:
    """Standard 7-T realization of the Toffoli over {H, T, T†, CNOT}."""
    g = gate
    return [
        g(H, target),
        cnot(c2, target),
        g(TDG, target),
        cnot(c1, target),
        g(T, target),
        cnot(c2, target),
        g(TDG, target),
        cnot(c1, target),
        g(T, c2),
        g(T, target),
        g(H, target),
        cnot(c1, c2),
        g(T, c1),
        g(TDG, c2),
        cnot(c1, c2),
    ]


def decompose_toffolis(c: Circuit) -> Circuit:
    """Rewrite every Toffoli via ``toffoli_expansion``; other gates pass through."""
    b = CircuitBuilder(c.n_qubits)
    for layer in c.layers:
        for g in layer:
            if g.kind == TOFFOLI:
                b.extend(toffoli_expansion(*g.qubits))
            else:
                b.append(g)
    return b.build()


def dense_run(circuit: Circuit, amps: np.ndarray) -> np.ndarray:
    """Amplitudes after a measurement-free circuit, one kernel call per gate.

    The oracle that run()'s dense path, which relabels X and CNOT instead
    of moving amplitudes, and the phase-permutation evaluator of the
    whole-matrix checks must match bit for bit.
    """
    out = np.array(amps, dtype=np.complex128)
    for g in circuit.gates():
        out = _apply_unitary(out, circuit.n_qubits, g)
    return out


def dense_measured_run(circuit: Circuit, amps: np.ndarray, seed: int) -> SimResult:
    """run() on the kernels alone, gate by gate, measurements and frames included.

    The oracle run()'s support route must match on a measured circuit:
    its record, outcomes and frame exactly, its amplitudes up to rounding.
    run()'s dense path must match it bit for bit.
    """
    n = circuit.n_qubits
    out = np.array(amps, dtype=np.complex128)
    rng = np.random.default_rng(seed)
    frame = Pauli()
    record: dict[int, int] = {}
    qubit_outcomes: dict[int, int] = {}
    for g in circuit.gates():
        if g.kind == MEASURE:
            q = g.qubits[0]
            p1 = kernels.prob_one(out, n, q)
            p0 = 1.0 - p1
            outcome = 0 if rng.random() < p0 else 1
            out = kernels.collapse(out, n, q, outcome, p0 if outcome == 0 else p1)
            x, z, phase = frame
            true_outcome = outcome ^ (x >> q & 1)
            if z >> q & 1:
                frame = Pauli(x, z ^ 1 << q, (phase + 2 * true_outcome) % 4)
            record[g.key] = true_outcome
            qubit_outcomes[q] = true_outcome
        elif g.kind == FRAME:
            if g.cond is None or record.get(g.cond, 0) == 1:
                bit = 1 << g.qubits[0]
                frame = (Pauli(x=bit) if g.pauli == "X" else Pauli(z=bit)) * frame
        else:
            frame = _propagate(frame, g)
            out = _apply_unitary(out, n, g)
    return SimResult(state=StateVector(n, out), record=record, frame=frame, qubit_outcomes=qubit_outcomes)


def apply_frame_by_factors(frame: Pauli, state: StateVector) -> StateVector:
    """E|state> for a frame E, one kernel pass per X or Z factor after a copy.

    The oracle sim.apply_frame must match bit for bit: for each qubit in
    ascending order its X swaps the halves, then its Z negates the set half,
    and i^s multiplies the result.
    """
    out = state.amps.copy()
    n = state.n_qubits
    x, z, phase = frame
    for q in range(n):
        if x >> q & 1:
            out = kernels.apply_1q(out, n, q, GATE_MATRICES[X])
        if z >> q & 1:
            out = kernels.apply_diag_1q(out, n, q, 1.0, -1.0)
    if phase:
        out *= 1j ** phase
    return StateVector(n, out)


def project_onto(
    state: StateVector, qubits: tuple[int, ...], block: np.ndarray
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Contract <block| against the given qubits.

    Returns (residual amplitudes on the remaining qubits in ascending
    order, those qubit indices).  The residual norm squared is the
    probability weight on |block>; it is NOT renormalized.  einsum without
    optimize runs its own loop, not BLAS, so the sums and their bits do
    not depend on how many threads BLAS may use.
    """
    n = state.n_qubits
    rest = tuple(q for q in range(n) if q not in qubits)
    m = len(qubits)
    if not m:
        return (state.amps * block).reshape(-1), rest
    # state axis i holds qubit n - 1 - i; block axis j holds bit m - 1 - j
    # of the block index, which lives on qubits[m - 1 - j]
    block_axes = [n - 1 - qubits[m - 1 - j] for j in range(m)]
    keep = [i for i in range(n) if i not in block_axes]
    vec = np.asarray(block).reshape([2] * m)
    res = np.einsum(vec.conj(), block_axes, state.amps.reshape([2] * n), range(n), keep, optimize=False)
    return res.reshape(-1), rest


def block_overlap(state: StateVector, qubits: tuple[int, ...], block: np.ndarray) -> float:
    """Fidelity-style weight: probability that `qubits` hold |block>."""
    res, _ = project_onto(state, qubits, block)
    return float(np.sum(np.abs(res) ** 2))


def qft_gamma_state(q: int) -> StateVector | None:
    """Eigenstate to feed build_qft_via_qvr's gamma wires: |gamma^(1)> of
    width q, or None for the one-wire transform, which has no gamma wires."""
    return gamma_state(GammaRegister(1, q)) if q > 1 else None


def per_trial_par_statistics(
    phi: float,
    m_count: int,
    trials: int,
    *,
    seed: int = 0,
    method: str = EXACT,
    epsilon_each: float = 1e-4,
) -> dict:
    """par.par_statistics as one execute_par call per trial on one generator.

    The oracle the failure-path table must match exactly: the same random
    stream, consumed one rng.random() per executed round.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    aset = prepare_ancillas(phi, m_count, method, epsilon_each)
    rng = np.random.default_rng(seed)
    histogram = {m: 0 for m in range(1, m_count + 1)}
    fallbacks = 0
    total_rounds = 0
    for _ in range(trials):
        out = execute_par(PLUS, aset, rng=rng)
        histogram[out.rounds] += 1
        total_rounds += out.rounds
        if out.fallback_used:
            fallbacks += 1
    mean_rounds = total_rounds / trials
    return {
        "phi": phi,
        "ancillas": m_count,
        "trials": trials,
        "mean_rounds": mean_rounds,
        "mean_gates": 2.0 * mean_rounds,
        "fallback_rate": fallbacks / trials,
        "expected_rounds": expected_rounds(m_count),
        "histogram": histogram,
    }


_I_POW = (1, 1j, -1, -1j)


def _pauli_ladder_product(mode_ops) -> list[tuple[float, Pauli]]:
    """A product of ladder operators [(index, dagger)], one Pauli product per
    choice of factors: a_j = (X_j + Z_j X_j)/2 and a_j^dag = (X_j - Z_j X_j)/2
    on the Z chain below j."""
    terms = [(1.0, Pauli())]
    for j, dagger in mode_ops:
        bit, chain = 1 << j, (1 << j) - 1
        factors = ((0.5, Pauli(bit, chain)), (-0.5 if dagger else 0.5, Pauli(bit, chain | bit)))
        terms = [(c * f, p * factor) for c, p in terms for f, factor in factors]
    return terms


def pauli_generator_masks(term) -> dict[tuple[int, int], float]:
    """A term's hermitian generator as {(x, z): coeff}, coeff times the letters
    of Z^z X^x, expanded as core.Pauli products.

    The oracle the mask expansion of ``secondq`` must match float for float:
    the operator product and its conjugate are expanded separately, each
    collected exactly before the term value scales it, and phases ride the
    complex coefficients.
    """
    if isinstance(term, OneBodyTerm):
        ops = [(term.p, True), (term.q, False)]
        conj = [(term.q, True), (term.p, False)]
        self_adjoint = term.p == term.q
    else:
        ops = [(term.p, True), (term.q, True), (term.r, False), (term.s, False)]
        conj = [(term.s, True), (term.r, True), (term.q, False), (term.p, False)]
        self_adjoint = term.s == term.p and term.r == term.q
    collected: dict[tuple[int, int], complex] = {}
    for product in [ops] if self_adjoint else [ops, conj]:
        exact: dict[tuple[int, int], complex] = {}
        for c, p in _pauli_ladder_product(product):
            exact[p.x, p.z] = exact.get((p.x, p.z), 0.0j) + c * _I_POW[p.phase]
        for key, c in exact.items():
            collected[key] = collected.get(key, 0.0j) + c * term.value
    out = {}
    for (x, z), c in collected.items():
        if abs(c) <= 1e-15 * max(1.0, abs(term.value)):
            continue
        c *= _I_POW[(x & z).bit_count() % 4]  # Z^z X^x = i^|x & z| (its letters)
        if c.imag != 0.0:
            raise ValueError(f"expansion of {term} is not hermitian at {(x, z)}: {c}")
        out[x, z] = c.real
    return out


_SANDWICH_IN = {"X": (H,), "Y": (H, S, H)}
_SANDWICH_OUT = {"X": (H,), "Y": (H, SDG, H)}


def excitation_sandwich(
    term, dt: float, *, n_orbitals: int, method: str, epsilon: float, controlled: bool
) -> Circuit:
    """``build_excitation`` string by string, with no merging: every Pauli
    string gets its full basis change into the Z basis (H for X, H.S.H for
    Y), ladder, rotation, mirror ladder and basis change back (H, H.S^dag.H).

    The merged builder must realize the same unitary from the same CNOT,
    Toffoli and rotation gates, with no more H, S or S^dag.
    """
    strings = excitation_operator_strings(term, n_orbitals)
    width = n_orbitals + 2 if controlled else max(n_orbitals, 1)
    control, ancilla = n_orbitals, n_orbitals + 1
    builder = CircuitBuilder(width)
    phase_sum = 0.0
    for coeff, ops in strings:
        alpha = coeff * dt
        phase_sum += alpha
        if not ops:
            continue
        wires = [q for q, _ in ops]
        ladder = [cnot(a, b) for a, b in zip(wires, wires[1:])]
        builder.extend(gate(kind, q) for q, letter in ops for kind in _SANDWICH_IN.get(letter, ()))
        builder.extend(ladder)
        if controlled:
            builder.append(toffoli(control, wires[-1], ancilla))
            emit_rz(builder, 2.0 * alpha % TWO_PI, ancilla, method, epsilon)
            builder.append(toffoli(control, wires[-1], ancilla))
        else:
            emit_rz(builder, 2.0 * alpha % TWO_PI, wires[-1], method, epsilon)
        builder.extend(reversed(ladder))
        builder.extend(gate(kind, q) for q, letter in ops for kind in _SANDWICH_OUT.get(letter, ()))
    if controlled:
        emit_rz(builder, -phase_sum % TWO_PI, control, method, epsilon)
    return builder.build()


def digests_across_blas_threads(script: str, stdin: bytes = b"") -> set[bytes]:
    """The stdout of a script run in a fresh interpreter under one and under two BLAS threads."""
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        package_root = str(Path(ftqc.__file__).parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        argv = [sys.executable, "-c", script]
        out = subprocess.run(argv, env=env, input=stdin, capture_output=True, timeout=120, check=True)
        digests.add(out.stdout.strip())
    return digests
