"""Write the seeded integral table of the estimate workload.

Same text format as tests/data/integrals_12.txt (1-based ``p q value`` and
``p q r s value`` lines), over 14 orbitals: all 105 one-body pairs p <= q
and 110 two-body tuples with four distinct orbitals, drawn from the
canonical representatives (p,q,r,s) < (s,r,q,p).  Distinct orbitals make
every two-body term expand to exactly 8 Pauli strings, so the table
always holds 1076 strings (integrals_12.txt: 1034) and the work does not
depend on the seed; 120 magnitudes are log-uniform over
1e-9 .. 2, the rest sit at 1e-13 .. 1e-11.

    python3 bench/integrals.py SEED PATH
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

N_ORBITALS = 14
N_TWO_BODY = 110
N_SIGNIFICANT = 120


def integral_lines(seed: int) -> list[str]:
    rng = np.random.default_rng([seed, N_ORBITALS])
    one_body = [(p, q) for p in range(1, N_ORBITALS + 1) for q in range(p, N_ORBITALS + 1)]
    orbitals = range(1, N_ORBITALS + 1)
    pool = [
        (p, q, r, s)
        for p in orbitals for q in orbitals for r in orbitals for s in orbitals
        if len({p, q, r, s}) == 4 and (p, q, r, s) < (s, r, q, p)
    ]
    two_body = sorted(pool[i] for i in rng.choice(len(pool), size=N_TWO_BODY, replace=False))
    total = len(one_body) + len(two_body)
    significant = set(rng.choice(total, size=N_SIGNIFICANT, replace=False).tolist())
    lines = [f"# seeded {N_ORBITALS}-orbital integral set (seed {seed}), written by bench/integrals.py"]
    for slot, indices in enumerate(one_body + two_body):
        sign = -1.0 if rng.random() < 0.5 else 1.0
        exponent = rng.uniform(-9.0, 0.3) if slot in significant else rng.uniform(-13.0, -11.0)
        lines.append(" ".join(map(str, indices)) + f" {float(sign * 10.0 ** exponent)!r}")
    return lines


def write_integrals(seed: int, path: Path) -> int:
    """Write the table; returns its number of entries."""
    lines = integral_lines(seed)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return len(lines) - 1


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: python3 bench/integrals.py SEED PATH")
    print(write_integrals(int(sys.argv[1]), Path(sys.argv[2])))
