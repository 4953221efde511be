"""Statevector kernels against dense-matrix oracles, and across tile
boundaries against index-arithmetic oracles."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ftqc
from ftqc import kernels

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def dense_op_on(n, q, m):
    """Matrix for a 1-qubit operator on qubit q of n (qubit 0 = LSB)."""
    out = np.array([[1.0 + 0j]])
    for j in reversed(range(n)):
        out = np.kron(out, m if j == q else I2)
    return out


def dense_cnot(n, c, t):
    dim = 1 << n
    m = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        j = i ^ (1 << t) if (i >> c) & 1 else i
        m[j, i] = 1.0
    return m


def dense_toffoli(n, c1, c2, t):
    dim = 1 << n
    m = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        j = i ^ (1 << t) if ((i >> c1) & 1 and (i >> c2) & 1) else i
        m[j, i] = 1.0
    return m


def cases(*values):
    """pytest params whose ids lead with the name of the kernels that ran them."""
    values = [v if isinstance(v, tuple) else (v,) for v in values]
    return [pytest.param(*v, id="-".join(map(str, (kernels.BACKEND_NAME, *v)))) for v in values]


def rand_state(n, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return (v / np.linalg.norm(v)).astype(np.complex128)


class TestAgainstDenseOracle:
    @pytest.mark.parametrize("q", cases(0, 1, 3))
    def test_apply_1q(self, q):
        n = 4
        v = rand_state(n, 21)
        got = kernels.apply_1q(v.copy(), n, q, H)
        np.testing.assert_allclose(got, dense_op_on(n, q, H) @ v, atol=1e-14)

    @pytest.mark.parametrize("q", cases(0, 2))
    def test_apply_diag_1q(self, q):
        n = 3
        v = rand_state(n, 22)
        d = np.diag([1.0, np.exp(0.37j)])
        got = kernels.apply_diag_1q(v.copy(), n, q, 1.0, np.exp(0.37j))
        np.testing.assert_allclose(got, dense_op_on(n, q, d) @ v, atol=1e-14)

    @pytest.mark.parametrize("c,t", cases((0, 1), (1, 0), (0, 3), (3, 1)))
    def test_apply_cnot(self, c, t):
        n = 4
        v = rand_state(n, 23)
        got = kernels.apply_cnot(v.copy(), n, c, t)
        np.testing.assert_allclose(got, dense_cnot(n, c, t) @ v, atol=1e-14)

    @pytest.mark.parametrize("c1,c2,t", cases((0, 1, 2), (2, 0, 1), (3, 1, 0)))
    def test_apply_toffoli(self, c1, c2, t):
        n = 4
        v = rand_state(n, 24)
        got = kernels.apply_toffoli(v.copy(), n, c1, c2, t)
        np.testing.assert_allclose(got, dense_toffoli(n, c1, c2, t) @ v, atol=1e-14)

    @pytest.mark.parametrize("mask", [pytest.param(0b101, id=kernels.BACKEND_NAME)])
    def test_apply_phase_on_ones(self, mask):
        n = 3
        v = rand_state(n, 25)
        ph = np.exp(1.234j)
        got = kernels.apply_phase_on_ones(v.copy(), n, mask, ph)
        expect = v.copy()
        for i in range(1 << n):
            if i & mask == mask:
                expect[i] *= ph
        np.testing.assert_allclose(got, expect, atol=1e-14)

    @pytest.mark.parametrize("q", cases(0, 1, 2))
    def test_prob_one(self, q):
        n = 3
        v = rand_state(n, 26)
        expect = sum(abs(v[i]) ** 2 for i in range(1 << n) if (i >> q) & 1)
        assert abs(kernels.prob_one(v.copy(), n, q) - expect) < 1e-13

    @pytest.mark.parametrize("outcome", cases(0, 1))
    def test_collapse(self, outcome):
        n = 3
        q = 1
        v = rand_state(n, 27)
        p1 = sum(abs(v[i]) ** 2 for i in range(1 << n) if (i >> q) & 1)
        p = p1 if outcome else 1.0 - p1
        got = kernels.collapse(v.copy(), n, q, outcome, p)
        expect = v.copy()
        for i in range(1 << n):
            if ((i >> q) & 1) != outcome:
                expect[i] = 0.0
        expect /= np.sqrt(p)
        np.testing.assert_allclose(got, expect, atol=1e-13)
        assert abs(np.linalg.norm(got) - 1.0) < 1e-12


class TestXSwap:
    """apply_1q moves amplitudes for exactly X and multiplies for anything else."""

    @pytest.mark.parametrize("n", cases(*range(1, 9)))
    def test_x_equals_dense_oracle(self, n):
        for q in range(n):
            v = rand_state(n, 100 * n + q)
            got = kernels.apply_1q(v.copy(), n, q, X)
            np.testing.assert_array_equal(got, dense_op_on(n, q, X) @ v)

    @pytest.mark.parametrize("n", cases(*range(1, 9)))
    def test_matrix_that_only_rounds_to_x_is_multiplied(self, n):
        near_x = np.array([[1e-300, 1], [1, 0]], dtype=complex)
        for q in range(n):
            v = rand_state(n, 200 * n + q)
            got = kernels.apply_1q(v.copy(), n, q, near_x)
            np.testing.assert_array_equal(got, dense_op_on(n, q, near_x) @ v)
            # with the bit-q-set half empty, only the 1e-300 entry fills the
            # bit-q-clear half: a swap would leave that half zero
            w = np.array([0.0 if i >> q & 1 else 2.0 ** -(i % 7) for i in range(1 << n)], dtype=complex)
            got = kernels.apply_1q(w.copy(), n, q, near_x)
            expect = dense_op_on(n, q, near_x) @ w
            assert np.count_nonzero(expect) == 1 << n
            np.testing.assert_array_equal(got, expect)


def index_1q(v, q, m):
    """apply_1q by index arithmetic: pair each bit-q-clear index with its bit-q-set partner."""
    i0 = np.flatnonzero((np.arange(v.size) >> q & 1) == 0)
    i1 = i0 | 1 << q
    out = v.copy()
    out[i0] = m[0, 0] * v[i0] + m[0, 1] * v[i1]
    out[i1] = m[1, 0] * v[i0] + m[1, 1] * v[i1]
    return out


def index_flip(v, controls, t):
    """Flip bit t of every index whose control bits are all set."""
    idx = np.arange(v.size)
    mask = sum(1 << c for c in controls)
    src = np.flatnonzero(idx & mask == mask)
    out = v.copy()
    out[src ^ 1 << t] = v[src]
    return out


def random_unitary(seed):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestAcrossTiles:
    """States larger than one tile, with gates below, across and above the
    tile bit (amplitude index bit log2(_TILE))."""

    TILE_BIT = kernels._TILE.bit_length() - 1

    @pytest.mark.parametrize("n", cases(15, 16))
    @pytest.mark.parametrize("name", ["H", "random"])
    def test_apply_1q_every_qubit(self, n, name):
        m = H if name == "H" else random_unitary(n)
        for q in range(n):
            v = rand_state(n, 300 * n + q)
            expect = index_1q(v, q, m)
            got = kernels.apply_1q(v, n, q, m)
            assert got is v
            np.testing.assert_allclose(got, expect, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n", cases(15, 16))
    def test_apply_x_every_qubit(self, n):
        for q in range(n):
            v = rand_state(n, 700 * n + q)
            expect = index_flip(v, (), q)
            got = kernels.apply_1q(v, n, q, X)
            assert got is v
            np.testing.assert_array_equal(got, expect)

    @pytest.mark.parametrize("n", cases(15, 16))
    def test_apply_cnot(self, n):
        b = self.TILE_BIT
        pairs = [(1, 4), (2, b + 1), (b, n - 1)]  # below, across and above the tile bit
        for c, t in pairs + [(t, c) for c, t in pairs]:
            v = rand_state(n, 400 * n + c)
            expect = index_flip(v, (c,), t)
            got = kernels.apply_cnot(v, n, c, t)
            assert got is v
            np.testing.assert_array_equal(got, expect)

    @pytest.mark.parametrize("n", cases(15, 16))
    def test_apply_toffoli(self, n):
        b = self.TILE_BIT
        for c1, c2, t in [(3, b + 1, 0), (b + 1, 3, 7), (3, b, n - 1), (0, 1, b + 1), (b, n - 1, 2)]:
            v = rand_state(n, 500 * n + t)
            expect = index_flip(v, (c1, c2), t)
            got = kernels.apply_toffoli(v, n, c1, c2, t)
            assert got is v
            np.testing.assert_array_equal(got, expect)


class TestNoStateSizedTemporaries:
    """A dense 1-qubit gate, X, CNOT and Toffoli at n = 20 allocate less
    than an eighth of the 16-MB state, scratch included."""

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda v, n: kernels.apply_1q(v, n, 9, H), id="apply_1q"),
            pytest.param(lambda v, n: kernels.apply_1q(v, n, 13, X), id="apply_1q-X"),
            pytest.param(lambda v, n: kernels.apply_cnot(v, n, 19, 2), id="apply_cnot"),
            pytest.param(lambda v, n: kernels.apply_toffoli(v, n, 0, 15, 8), id="apply_toffoli"),
        ],
    )
    def test_peak_below_an_eighth_of_the_state(self, call):
        n = 20
        v = rand_state(n, 600)
        tracemalloc.start()
        try:
            call(v, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < v.nbytes / 8, peak


_RUN_DIGEST = """
import hashlib, sys
import numpy as np
from ftqc import core, sim

n = 16
rng = np.random.default_rng(int(sys.argv[1]))
b = core.CircuitBuilder(n)
for q in range(n):
    b.append(core.gate(core.H, q))
for _ in range(240):
    kind = rng.integers(4)
    q = [int(x) for x in rng.choice(n, size=3, replace=False)]
    if kind == 0:
        b.append(core.gate(core.H, q[0]))
    elif kind == 1:
        b.append(core.rz(float(rng.uniform(0.0, 2.0 * np.pi)), q[0]))
    elif kind == 2:
        b.append(core.cnot(q[0], q[1]))
    else:
        b.append(core.toffoli(q[0], q[1], q[2]))
amps = sim.run(b.build()).state.amps
print(hashlib.sha256(amps.tobytes()).hexdigest())
"""


class TestDeterminism:
    def test_run_is_byte_identical_across_blas_threads(self):
        """run() makes no BLAS call through the kernels, so its bytes do not
        depend on how many threads BLAS may use."""
        digests = set()
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            package_root = str(Path(ftqc.__file__).parents[1])
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
            argv = [sys.executable, "-c", _RUN_DIGEST, "17"]
            out = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120, check=True)
            digests.add(out.stdout.strip())
        assert len(digests) == 1, digests


class TestModule:
    def test_module_exports_match_contract(self):
        for name in (
            "apply_1q",
            "apply_diag_1q",
            "apply_cnot",
            "apply_toffoli",
            "apply_phase_on_ones",
            "prob_one",
            "collapse",
        ):
            assert hasattr(kernels, name)
        assert kernels.BACKEND_NAME == "python"
