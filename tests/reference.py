"""Reference constructions and helpers the tests check ftqc against.

No entry point of the package reaches these.  Some are independent
oracles: gate matrices, the general unitarity check, the 7-T Toffoli
expansion, the angle bound of a truncated transform, the gate-by-gate
kernel run and the per-trial PAR Monte Carlo.  The rest are
test conveniences: one-gate-per-layer circuits, the eigenstate that
``build_qft_via_qvr`` expects, and the weight of a state on a register
block.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ftqc.core import (
    CNOT,
    CRZ,
    GATE_MATRICES,
    H,
    PLUS,
    RZ,
    T,
    TDG,
    TOFFOLI,
    TWO_PI,
    Circuit,
    CircuitBuilder,
    Gate,
    cnot,
    crz_matrix,
    gate,
    rz_matrix,
)
from ftqc.kickback import GammaRegister, gamma_state
from ftqc.par import PREPARE_EXACT, execute_par, expected_rounds, prepare_ancillas
from ftqc.qvr import qft_gamma_width
from ftqc.sim import StateVector, _apply_unitary, project_onto


def sequential_circuit(n_qubits: int, gates: Iterable[Gate]) -> Circuit:
    """One gate per layer, in order."""
    return Circuit(n_qubits, [[g] for g in gates])


def packed_circuit(n_qubits: int, gates: Iterable[Gate]) -> Circuit:
    """ASAP-packed layering of a gate list."""
    return CircuitBuilder(n_qubits).extend(gates).build()


_CNOT_M = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
_TOFFOLI_M = np.eye(8, dtype=complex)[[0, 1, 2, 3, 4, 5, 7, 6]]


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

    The statevector path gate by gate, as a run() takes it: the oracle the
    phase-permutation evaluator of the whole-matrix checks must match bit
    for bit.
    """
    out = np.array(amps, dtype=np.complex128)
    for g in circuit.gates():
        out = _apply_unitary(out, circuit.n_qubits, g)
    return out


def block_overlap(state: StateVector, qubits: tuple[int, ...], block: np.ndarray) -> float:
    """Fidelity-style weight: probability that `qubits` hold |block>."""
    res, _ = project_onto(state, qubits, block)
    return float(np.sum(np.abs(res) ** 2))


def qft_gamma_state(q: int, approx_drop: int = 0) -> StateVector | None:
    """Eigenstate to feed build_qft_via_qvr's gamma wires (None if it has none)."""
    gamma_width = qft_gamma_width(q, approx_drop)
    if gamma_width == 0:
        return None
    return gamma_state(GammaRegister(1, gamma_width))


def qft_drop_bound(q: int, approx_drop: int) -> float:
    """Sum of the rotation angles approx_drop removes from the transform."""
    total = 0.0
    for t in range(1, q):
        for i in range(min(approx_drop, t)):
            total += TWO_PI / 2.0 ** (t + 1 - i)
    return total


def per_trial_par_statistics(
    phi: float,
    m_count: int,
    trials: int,
    *,
    seed: int = 0,
    method: str = PREPARE_EXACT,
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
