"""Independent checks for the outputs of ftqc.

Nothing here imports ftqc.  Every expected value is computed from first
principles (closed-form gate matrices, integer arithmetic, the
definition of the fermionic operators) or is a property the method must
have.  A failed check raises Mismatch with a one-line reason.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

import numpy as np


class Mismatch(Exception):
    """An output of the program disagrees with its oracle."""


def require(ok: bool, reason: str) -> None:
    if not ok:
        raise Mismatch(reason)


# ---------------------------------------------------------------------------
# single-qubit sequences

_R = 1.0 / math.sqrt(2.0)
_W = complex(_R, _R)  # e^{i pi/4}

GATE_MATRICES = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[_R, _R], [_R, -_R]], dtype=complex),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "SDG": np.array([[1, 0], [0, -1j]], dtype=complex),
    "T": np.array([[1, 0], [0, _W]], dtype=complex),
    "TDG": np.array([[1, 0], [0, _W.conjugate()]], dtype=complex),
}


ADJOINT = {"X": "X", "Y": "Y", "Z": "Z", "H": "H", "S": "SDG", "SDG": "S", "T": "TDG", "TDG": "T"}

_KIND_INDEX = {k: i for i, k in enumerate(GATE_MATRICES)}
_GATE_STACK = np.stack(list(GATE_MATRICES.values()))
_CHUNK = 4096


def compose(kinds) -> np.ndarray:
    """Matrix of a gate word in circuit order (first gate applied first).

    Chunks of the word are multiplied as pairwise trees (element 2i+1
    acts after element 2i), which keeps memory small on long words.
    """
    product = np.eye(2, dtype=complex)
    for start in range(0, len(kinds), _CHUNK):
        stack = _GATE_STACK[[_KIND_INDEX[k] for k in kinds[start:start + _CHUNK]]]
        while len(stack) > 1:
            if len(stack) % 2:
                stack = np.concatenate([stack, np.eye(2, dtype=complex)[None]])
            stack = np.einsum("nij,njk->nik", stack[1::2], stack[0::2])
        product = stack[0] @ product
    return product


def fowler_distance(u: np.ndarray, v: np.ndarray) -> float:
    """||U - e^{i theta} V||_F / sqrt(2d) at the phase that best aligns V with U."""
    overlap = np.vdot(v, u)  # tr(V^dag U)
    phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
    diff = u - phase * v
    return float(np.sqrt(np.vdot(diff, diff).real / (2 * u.shape[0])))


def t_count(kinds) -> int:
    return sum(1 for k in kinds if k in ("T", "TDG"))


def check_sequence(kinds, target, epsilon, reported_distance, reported_t_count):
    """A compiled word meets its tolerance, and its reported figures are honest."""
    require(all(k in GATE_MATRICES for k in kinds), "sequence uses a gate outside the alphabet")
    d = fowler_distance(compose(kinds), target)
    require(d <= epsilon + 1e-12, f"recomputed distance {d:.3e} exceeds epsilon {epsilon:.1e}")
    require(
        abs(d - reported_distance) <= 1e-9,
        f"reported distance {reported_distance:.3e} differs from recomputed {d:.3e}",
    )
    require(t_count(kinds) == reported_t_count, "reported T count differs from the recount")
    return d


def adjoint(kinds) -> tuple:
    return tuple(ADJOINT[k] for k in reversed(kinds))


def _letters(kinds) -> str:
    return "".join(chr(65 + _KIND_INDEX[k]) for k in kinds)


def is_commutator_tail(tail) -> bool:
    """tail = adj(W) adj(V) W V for some words V and W.

    Its first half adj(W) adj(V) is then a rotation of the adjoint of its
    second half, adj(V) adj(W), and conversely any such rotation yields V, W.
    """
    if len(tail) % 2:
        return False
    half = len(tail) // 2
    back = _letters(adjoint(tail[half:]))
    return (back + back).find(_letters(tail[:half])) >= 0


NET_DEPTH = 14  # the length of the net that SK's level 0 reads


def check_sk_ladder(seqs, target) -> None:
    """solovay_kitaev(target, l) for l = 0 .. L, as (kinds, distance, T count).

    Each word's reported figures are honest, and the words have the
    recursion's structure.  The level-0 word is a net element.  Level l
    is level l - 1 followed by a group commutator correction
    adj(W) adj(V) W V, where V and W are level-(l - 1) words of the
    commutator factors.  So a level holds five level-(l - 1) words and
    grows about fivefold; the first levels may add nothing while the
    factors are finer than the net.  From level 3 on a word is at least
    4 * 5^l gates (40 seeded Z rotations gave 6.3 * 5^l and more at
    level 3, 9.4 * 5^l and more at levels 4 and 5), and one level short
    would give about 2 * 5^l.  A recursion cut short, or one that returns
    its level-0 lookup, fails here.
    """
    require(len(seqs[0][0]) <= NET_DEPTH, f"SK level 0 is {len(seqs[0][0])} gates, beyond the net")
    for kinds, dist, t in seqs:
        check_sequence(kinds, target, 1.0, dist, t)
    for level in range(1, len(seqs)):
        below, word = seqs[level - 1][0], seqs[level][0]
        require(word[:len(below)] == below, f"SK level {level} does not extend level {level - 1}")
        require(is_commutator_tail(word[len(below):]), f"SK level {level} adds no group commutator")
        require(level < 3 or len(word) >= 4 * 5 ** level,
                f"SK level {level} is {len(word)} gates, too short for its level")


def su2_from_quaternion(a: float, b: float, c: float, d: float) -> np.ndarray:
    norm = math.sqrt(a * a + b * b + c * c + d * d)
    a, b, c, d = a / norm, b / norm, c / norm, d / norm
    return np.array([[complex(a, b), complex(c, d)], [complex(-c, d), complex(a, -b)]])


def z_rotation(theta: float) -> np.ndarray:
    return np.array([[1, 0], [0, complex(math.cos(theta), math.sin(theta))]])


# ---------------------------------------------------------------------------
# whole-matrix verification

def check_unitary(m: np.ndarray) -> None:
    err = float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))))
    require(err <= 1e-10, f"matrix is not unitary: max |M^dag M - I| = {err:.2e}")


def check_equal(m: np.ndarray, expected: np.ndarray, tol: float, what: str) -> None:
    err = float(np.max(np.abs(m - expected)))
    require(err <= tol, f"{what}: max entry error {err:.2e}")


def check_effective(m: np.ndarray, leak: float, expected: np.ndarray, what: str) -> None:
    """An effective_unitary result: unitary, equal to its oracle, no leakage.

    The reported leakage is sqrt(1 - |column|^2), which shows rounding eps
    as sqrt(eps); 1e-6 admits that noise and nothing larger.
    """
    check_unitary(m)
    check_equal(m, expected, 1e-10, what)
    require(leak <= 1e-6, f"{what}: leakage {leak:.2e}")


def check_adder_unitary(u: np.ndarray, n: int, addend: int) -> None:
    """A constant adder is a permutation that sends |x>|0> to |x + a mod 2^n>|0>.

    Data bits are the low n index bits; the carry ancillas above them.
    """
    dim = u.shape[0]
    mags = np.abs(u)
    require(bool(np.all((mags < 1e-12) | (np.abs(mags - 1.0) < 1e-12))), "adder matrix has fractional entries")
    require(bool(np.all(np.count_nonzero(mags > 0.5, axis=0) == 1)), "adder matrix is not a permutation")
    require(len(set(np.argmax(mags, axis=0).tolist())) == dim, "adder matrix maps two inputs to one output")
    x = np.arange(1 << n)
    y = (x + addend) % (1 << n)
    require(bool(np.all(np.abs(u[y, x] - 1.0) < 1e-12)), "adder output is not x + addend")


def check_shifted_state(out: np.ndarray, psi: np.ndarray, n: int, addend: int) -> None:
    """Output of the adder on sum_x psi_x |x>|0>: amplitude psi_x at x + a mod 2^n."""
    expected = np.zeros_like(out)
    expected[(np.arange(1 << n) + addend) % (1 << n)] = psi
    check_equal(out, expected, 1e-10, "adder on a superposition")


def grid_phase(phi: float, n: int) -> float:
    """The multiple of 2 pi / 2^n nearest phi."""
    step = 2.0 * math.pi / (1 << n)
    return step * math.floor(phi / step + 0.5)


def phases(angles) -> np.ndarray:
    angles = np.asarray(angles, dtype=float)
    return np.cos(angles) + 1j * np.sin(angles)


def addition_eigenstate(k: int, n: int) -> np.ndarray:
    """Amplitudes e^{-2 pi i k y / 2^n} / sqrt(2^n), y = 0 .. 2^n - 1."""
    y = np.arange(1 << n)
    return phases(-2.0 * math.pi * ((k * y) % (1 << n)) / (1 << n)) / math.sqrt(1 << n)


def qvr_diagonal(xi: Fraction, q: int) -> np.ndarray:
    """diag(e^{2 pi i xi u / 2^q}) over u = 0 .. 2^q - 1, reduced exactly."""
    angles = [2.0 * math.pi * float((xi * u / (1 << q)) % 1) for u in range(1 << q)]
    return np.diag(phases(angles))


def fixed_point_inverse_root(r_squared: int, width: int) -> int:
    """1/sqrt(r^2) in the width-bit format with width - width//2 fraction bits.

    Rounded to nearest and saturated at 2^width - 1; r^2 = 0 saturates.
    """
    top = (1 << width) - 1
    if r_squared == 0:
        return top
    frac_bits = width - width // 2
    return min(round((1 << frac_bits) / math.sqrt(r_squared)), top)


def potential_diagonal(p: int, width: int, q1: float, q2: float, dt: float) -> np.ndarray:
    """exp(-i V dt / hbar), V = q1 q2 / (4 pi eps0 r), at the quantized 1/r.

    Hartree atomic units, the program's default: hbar = 4 pi eps0 = 1.
    Column index: x1 on the low p bits, x2 on the next p bits.
    """
    frac_bits = width - width // 2
    scale = q1 * q2 * dt
    angles = []
    for index in range(1 << (2 * p)):
        x1, x2 = index & ((1 << p) - 1), index >> p
        inv_r = fixed_point_inverse_root((x1 - x2) ** 2, width) / (1 << frac_bits)
        angles.append(-scale * inv_r)
    return np.diag(phases(angles))


# ---------------------------------------------------------------------------
# fermionic operators by bit arithmetic (Jordan-Wigner order: orbital j is bit j)

def _ladder(vec: np.ndarray, n: int, j: int, create: bool) -> np.ndarray:
    idx = np.arange(1 << n, dtype=np.int64)
    occupied = (idx >> j) & 1
    below = idx & ((1 << j) - 1)
    parity = np.zeros(idx.shape, dtype=np.int64)
    for bit in range(j):
        parity ^= (below >> bit) & 1
    src = idx[occupied == (0 if create else 1)]
    sign = 1.0 - 2.0 * parity[src]
    out = np.zeros_like(vec)
    out[src ^ (1 << j)] = sign * vec[src]
    return out


def apply_term(vec: np.ndarray, n: int, creators, annihilators, h: float) -> np.ndarray:
    """h (prod a_c^dag prod a_a + h.c.) |vec>, operators applied right to left."""
    ops = [(c, True) for c in creators] + [(a, False) for a in annihilators]
    forward = vec
    for j, create in reversed(ops):
        forward = _ladder(forward, n, j, create)
    backward = vec
    for j, create in ops:  # the adjoint reverses the order and flips each operator
        backward = _ladder(backward, n, j, not create)
    return h * (forward + backward)


def excitation_expected(psi: np.ndarray, n: int, creators, annihilators, h: float, dt: float) -> np.ndarray:
    """exp(-i A dt) psi = psi + (cos(h dt) - 1) Pi psi - i sin(h dt)/h A psi, with A^2 = h^2 Pi."""
    a_psi = apply_term(psi, n, creators, annihilators, h)
    a2_psi = apply_term(a_psi, n, creators, annihilators, h)
    return psi + (math.cos(h * dt) - 1.0) / (h * h) * a2_psi - 1j * math.sin(h * dt) / h * a_psi


def check_same_ray(a: np.ndarray, b: np.ndarray, tol: float, what: str) -> None:
    """Equal up to a global phase, both of unit norm."""
    na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    require(abs(na - 1.0) <= tol and abs(nb - 1.0) <= tol, f"{what}: state not normalized")
    overlap = abs(np.vdot(a, b))
    require(1.0 - overlap <= tol, f"{what}: overlap {overlap:.12f} differs from 1")


def ladder_output_wires(span: int) -> tuple[int, ...]:
    """Teleported parity ladder: wire 0, the f_j Bell halves (span + 2j + 1), the last wire."""
    return (0,) + tuple(span + 2 * j + 1 for j in range(span - 2)) + (span - 1,)


def prefix_parity_state(psi: np.ndarray, span: int, n_qubits: int, out_wires, fixed_bits: dict) -> np.ndarray:
    """The direct parity ladder on psi, placed on out_wires; other wires hold fixed_bits."""
    x = np.arange(1 << span, dtype=np.int64)
    index = np.zeros_like(x)
    parity = np.zeros_like(x)
    for j in range(span):
        parity ^= (x >> j) & 1
        index |= parity << out_wires[j]
    for q, bit in fixed_bits.items():
        index |= bit << q
    out = np.zeros(1 << n_qubits, dtype=complex)
    out[index] = psi
    return out


# ---------------------------------------------------------------------------
# estimator records

def _reject_constant(name: str):
    raise Mismatch(f"JSON holds the non-finite constant {name}")


def strict_json(text: str) -> dict:
    """Parse JSON that must not hold NaN or Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def check_2q_record(rec: dict, readout_bits: int, seconds_per_gate: float, terms: int) -> None:
    steps = (1 << readout_bits) - 1
    require(rec["steps"] == steps, "steps is not 2^readout_bits - 1")
    prof, per = rec["profile"], rec["per_step"]
    for key in ("depth", "t_count", "total_gates"):
        require(prof[key] == per[key] * steps, f"profile.{key} is not per_step.{key} x steps")
    require(prof["qubits"] == per["qubits"], "profile and per_step disagree on qubits")
    require(
        math.isclose(rec["wall_clock_seconds"], prof["depth"] * seconds_per_gate, rel_tol=1e-12),
        "wall_clock_seconds is not depth x seconds_per_gate",
    )
    require(rec["clifford_depth"] == prof["depth"] - rec["rotation_depth"], "depth split does not add up")
    require(rec["terms"] == terms, f"terms {rec['terms']} differs from the table's {terms} entries")


def check_method_family(records: dict) -> None:
    """Records of one table: equal rotation counts, and depth par < sequence < sk."""
    counts = {rec["rotation_count"] for rec in records.values()}
    require(len(counts) == 1, f"rotation_count differs across methods: {sorted(counts)}")
    depth = {key: rec["profile"]["depth"] for key, rec in records.items()}
    require(
        depth[("par", 1e-4)] < depth[("sequence", 1e-4)] < depth[("sk", 1e-4)],
        "depth does not order as par < sequence < sk",
    )


def read_csv(text: str) -> list[list[str]]:
    require(text.endswith("\r\n"), "CSV lines do not end in CRLF")
    return list(csv.reader(io.StringIO(text, newline="")))


def check_1q_curves(inplace: list[list[int]], parallel: list[list[int]]) -> None:
    """Rows (particles, depth, t_count, qubits) for b = 2 .. B.

    In place, rounds of disjoint pairs run one after another, and a
    round-robin over b particles takes b - 1 rounds (b even) or b (odd):
    depth is affine in that round count.  Fully parallel, every pair runs
    at once, so depth stays flat (only a log-depth fan-out grows), and the
    b(b - 1) register copies make the qubit count quadratic in b.
    """
    for rows in (inplace, parallel):
        require([r[0] for r in rows] == list(range(2, 2 + len(rows))), "curve does not run over b = 2 .. B")
    rounds = [b - 1 + b % 2 for b, *_ in inplace]
    depth = [r[1] for r in inplace]
    slope = Fraction(depth[-1] - depth[0], rounds[-1] - rounds[0])
    require(slope > 0, "in-place depth does not grow with the particle count")
    for rnd, d in zip(rounds, depth):
        require(depth[0] + slope * (rnd - rounds[0]) == d, "in-place depth is not linear in the rounds")
    flat = [r[1] for r in parallel]
    require((max(flat) - min(flat)) / min(flat) <= 1e-3, "fully-parallel depth is not flat in particles")
    qubits = [r[3] for r in parallel][1:]  # b = 2 has no copies to make
    second = np.diff(qubits, 2)
    require(bool(np.all(second == second[0])) and second[0] > 0, "fully-parallel qubits are not quadratic in b")


def pareto(points) -> set:
    """Brute force: (qubits, depth) pairs no other pair matches or beats in both."""
    pts = set(points)
    return {
        (q, d) for q, d in pts
        if not any(q2 <= q and d2 <= d and (q2, d2) != (q, d) for q2, d2 in pts)
    }


def check_frontier(clouds: dict, rows: list[list[str]], record: dict) -> None:
    """CSV rows (method, qubits, depth) are exactly each method's non-dominated set."""
    require(rows[0] == ["method", "qubits", "depth"], "frontier CSV header")
    got: dict[str, set] = {}
    for method, q, d in rows[1:]:
        got.setdefault(method, set()).add((int(q), int(d)))
    expected = {m: pareto(pts) for m, pts in clouds.items()}
    require(got == expected, "frontier differs from the brute-force non-dominated set")
    require(record["frontier_sizes"] == {m: len(s) for m, s in expected.items()}, "frontier sizes")
    best = min((d, q, m) for m, s in expected.items() for q, d in s)
    arg = record["argmin"]
    require((arg["depth"], arg["qubits"], arg["method"]) == best, "argmin is not the least-depth point")


def _log_binom_pmf(k: int, n: int, p: float) -> float:
    return (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
            + k * math.log(p) + (n - k) * math.log1p(-p))


FOUR_SIGMA_TAIL = math.erfc(4.0 / math.sqrt(2.0))  # two-sided, 6.3e-5


def binomial_within_four_sigma(k: int, n: int, p: float) -> bool:
    """k of n is no less likely than a 4-sigma deviation: the exact two-sided
    binomial tail, since the normal approximation fails at n p << 1."""
    low = sum(math.exp(_log_binom_pmf(i, n, p)) for i in range(0, k + 1))
    high = 1.0 - low + math.exp(_log_binom_pmf(k, n, p))
    return min(1.0, 2.0 * min(low, high)) >= FOUR_SIGMA_TAIL


def check_par_record(rec: dict, ancillas: int, trials: int) -> None:
    """Round counts follow P(m) = 2^-m for m < M and P(M) = 2^(1-M)."""
    m_range = range(1, ancillas + 1)
    prob = {m: 2.0 ** -m for m in m_range}
    prob[ancillas] += 2.0 ** -ancillas  # the fallback also ends at round M
    mean = sum(m * pm for m, pm in prob.items())
    var = sum((m - mean) ** 2 * pm for m, pm in prob.items())
    require(math.isclose(rec["expected_rounds"], mean, rel_tol=1e-12), "expected_rounds formula")
    require(rec["trials"] == trials and sum(rec["histogram"].values()) == trials, "histogram total")
    require(abs(rec["mean_rounds"] - mean) <= 4.0 * math.sqrt(var / trials), "mean rounds beyond 4 sigma")
    require(math.isclose(rec["mean_gates"], 2.0 * rec["mean_rounds"], rel_tol=1e-12), "mean_gates")
    fallbacks = round(rec["fallback_rate"] * trials)
    require(binomial_within_four_sigma(fallbacks, trials, 2.0 ** -ancillas), "fallback rate beyond 4 sigma")
