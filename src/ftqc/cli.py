"""Command-line surface tying the toolkit together.

Subcommands compile single rotations (synth), build kickback rotation
circuits (kickback), build variable-rotation circuits (qvr), run the
seeded ancilla-cascade Monte Carlo (par-sim), emit chemistry resource
reports (estimate-2q, estimate-1q), compute efficient frontiers over
estimator outputs (frontier), and run the acceptance suite (verify).

Artifacts are deterministic: JSON records carry a ``schema: 1`` marker
and are emitted with sorted keys; CSV follows RFC 4180 (CRLF line ends,
minimal quoting).  par-sim, the one randomized command, takes --seed,
which falls back to the FTQC_SEED environment variable and then to
sim.DEFAULT_SEED, so a fixed (config, seed) pair always produces
byte-identical output; the other commands take no --seed.  Failures
exit nonzero after writing a machine-readable error record to stderr.

Exit statuses: 0 on success; 2 for an error record (bad input, unreadable
file, failed simulation); EXIT_UNSATISFIED (3) when ``synth`` met no
sequence within --epsilon, after writing its record with ``satisfied``
false; ``verify`` passes on the status of the acceptance run, whose
pytest report it writes to stderr.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from . import firstq, frontier as frontier_mod, qvr as qvr_mod, secondq
from .core import ResourceProfile, circuit_to_text, rz_matrix
from .kickback import GammaRegister, kickback_rotation
from .par import par_statistics
from .sim import DEFAULT_SEED, SimulationError
from .synth import synthesize

__all__ = [
    "DEFAULT_SEED", "EXIT_UNSATISFIED", "RunConfig", "build_parser", "parse_args", "run", "main",
]

EXIT_UNSATISFIED = 3
SCHEMA_VERSION = 1

_MODE_NAMES = {"inplace": firstq.IN_PLACE, "parallel": firstq.FULLY_PARALLEL}


@dataclass(frozen=True)
class RunConfig:
    """One resolved invocation: the subcommand, its flags, and the seed."""

    command: str
    options: dict = field(default_factory=dict)
    seed: int = DEFAULT_SEED

    def opt(self, name: str):
        return self.options.get(name)


def _profile_record(profile: ResourceProfile) -> dict:
    return {
        "depth": profile.depth,
        "t_count": profile.t_count,
        "total_gates": profile.total_gates,
        "qubits": profile.qubits,
    }


def _emit_json(record: dict, path: str | None) -> None:
    record = {"schema": SCHEMA_VERSION, **record}
    text = json.dumps(record, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _emit_csv(header: list[str], rows: list[list], path: str | None) -> None:
    if path is None:
        return
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")  # RFC 4180
    writer.writerow(header)
    writer.writerows(rows)
    Path(path).write_bytes(buf.getvalue().encode())


def _emit_circuit(circuit, path: str | None) -> None:
    if path is not None:
        Path(path).write_text(circuit_to_text(circuit))


# ---------------------------------------------------------------------------
# subcommand handlers (each returns the JSON record and the exit status)


def _cmd_synth(config: RunConfig) -> tuple[dict, int]:
    angle = config.opt("angle")
    epsilon = config.opt("epsilon")
    seq = synthesize(rz_matrix(angle), epsilon)
    record = {
        "command": "synth",
        "angle": angle,
        "epsilon": epsilon,
        "sequence": list(seq.kinds),
        "length": seq.length,
        "t_count": seq.t_count,
        "achieved_distance": seq.achieved_distance,
        "satisfied": seq.satisfied,
    }
    return record, 0 if seq.satisfied else EXIT_UNSATISFIED


def _cmd_kickback(config: RunConfig) -> tuple[dict, int]:
    phi = config.opt("phi")
    bits = config.opt("bits")
    reg = GammaRegister(k=config.opt("k"), n=bits)
    rotation = kickback_rotation(phi, reg, controlled=config.opt("controlled"))
    _emit_circuit(rotation.circuit, config.opt("circuit"))
    profile = rotation.circuit.profile()
    record = {
        "command": "kickback",
        "phi": phi,
        "bits": bits,
        "k": reg.k,
        "u": rotation.u,
        "delta_phi": rotation.delta_phi,
        "distance_bound": abs(rotation.delta_phi) / 2.0,
        "profile": _profile_record(profile),
    }
    return record, 0


def _cmd_qvr(config: RunConfig) -> tuple[dict, int]:
    xi = config.opt("xi")
    q = config.opt("q")
    mode = config.opt("mode")
    if mode == "bitwise":
        circuit = qvr_mod.build_qvr_bitwise(q, xi)
        extra = {}
    else:
        params = qvr_mod.qvr_params(xi, q)
        circuit = qvr_mod.build_qvr_kickback(params)
        extra = {
            "eigenstate_bits": 0 if params.empty else params.n,
            "alignment_p": params.p,
            "empty": params.empty,
        }
    _emit_circuit(circuit, config.opt("circuit"))
    record = {
        "command": "qvr",
        "xi": xi,
        "q": q,
        "mode": mode,
        "profile": _profile_record(circuit.profile()),
        **extra,
    }
    return record, 0


def _cmd_par_sim(config: RunConfig) -> tuple[dict, int]:
    stats = par_statistics(
        config.opt("phi"),
        config.opt("ancillas"),
        config.opt("trials"),
        seed=config.seed,
    )
    record = {
        "command": "par-sim",
        "seed": config.seed,
        **{k: v for k, v in stats.items() if k != "histogram"},
        "histogram": {str(k): v for k, v in sorted(stats["histogram"].items())},
    }
    return record, 0


def _cmd_estimate_2q(config: RunConfig) -> tuple[dict, int]:
    table = secondq.load_integrals(config.opt("integrals"))
    table, report = secondq.apply_cutoff(table, config.opt("cutoff"))
    plan = secondq.TrotterPlan(
        dt=config.opt("dt"),
        readout_bits=config.opt("readout_bits"),
        method=config.opt("method"),
        epsilon_max=config.opt("epsilon"),
    )
    estimate = secondq.estimate_second_quantized(
        table, plan, seconds_per_gate=config.opt("seconds_per_gate")
    )
    _emit_csv(
        ["threshold", "retained"],
        [[repr(float(threshold)), retained] for threshold, retained in report.curve],
        config.opt("csv"),
    )
    record = {
        "command": "estimate-2q",
        "method": estimate.method,
        "ladder_mode": estimate.ladder_mode,
        "steps": estimate.steps,
        "profile": _profile_record(estimate.profile),
        "per_step": _profile_record(estimate.per_step),
        "rotation_depth": estimate.rotation_depth,
        "clifford_depth": estimate.clifford_depth,
        "rotation_count": estimate.rotation_count,
        "rotation_fraction": estimate.rotation_fraction,
        "wall_clock_seconds": estimate.wall_clock_seconds,
        "cutoff": {
            "threshold": report.threshold,
            "retained": report.retained,
            "dropped": report.dropped,
        },
        "terms": table.n_terms,
    }
    return record, 0


def _cmd_estimate_1q(config: RunConfig) -> tuple[dict, int]:
    particles = config.opt("particles")
    mode = _MODE_NAMES[config.opt("mode")]
    width = config.opt("width")
    steps = config.opt("steps")
    grid = firstq.GridSpec(config.opt("grid_bits"), particles)

    def constants(b: int) -> firstq.PhysicalConstants:
        # b identical electrons in atomic units; the model only needs the
        # charge products and masses, so this fixes the rotation scales
        return firstq.PhysicalConstants(
            charges=(-1.0,) * b, masses=(1.0,) * b, dt=config.opt("dt")
        )

    curve = {
        b: firstq.estimate_first_quantized(firstq.GridSpec(grid.p, b), constants(b), steps, mode, width=width)
        for b in range(2, particles + 1)
    }
    profile = curve[particles]
    potential = firstq.build_potential_step(grid, constants(particles), mode, width=width)
    kinetic = firstq.build_kinetic_step(grid, constants(particles), width=width, dt_factor=0.5)
    _emit_csv(["particles", "depth", "t_count", "qubits"],
              [[b, p.depth, p.t_count, p.qubits] for b, p in curve.items()], config.opt("csv"))
    record = {
        "command": "estimate-1q",
        "mode": config.opt("mode"),
        "particles": particles,
        "grid_bits": grid.p,
        "width": width,
        "steps": steps,
        "dt": config.opt("dt"),
        "profile": _profile_record(profile),
        "potential_unit": _profile_record(potential.unit),
        "kinetic_unit": _profile_record(kinetic.unit),
        "rounds_per_step": len(potential.schedule),
        "gamma_specs": len(potential.gamma_specs) + len(kinetic.gamma_specs),
        "singular_capped": potential.singular_capped,
    }
    return record, 0


def _load_points(paths: list[str]) -> dict[str, list[frontier_mod.FrontierPoint]]:
    """Read estimator JSON records (or explicit point lists) into per-method
    point clouds; a document of another shape is a ValueError naming it."""
    clouds: dict[str, list[frontier_mod.FrontierPoint]] = {}
    for path in paths:
        doc = json.loads(Path(path).read_text())
        if not isinstance(doc, dict) or ("points" not in doc and doc.get("profile") is None):
            raise ValueError(f"{path}: neither an estimator record nor a point list")
        record = "points" not in doc
        entries = [doc["profile"]] if record else doc["points"]
        if not isinstance(entries, list) or not all(isinstance(entry, dict) for entry in entries):
            raise ValueError(f"{path}: a point or a profile is not a JSON object")
        for entry in entries:
            qubits, depth = entry.get("qubits"), entry.get("depth")
            if type(qubits) is not int or type(depth) is not int:  # a float, bool, string or null
                raise ValueError(f"{path}: qubits {qubits!r} and depth {depth!r} are not both integers")
            if record:  # an estimator record names its method, or its mode, once
                method = doc.get("method") or doc.get("mode") or Path(path).stem
            else:
                method = entry.get("method") or Path(path).stem
            if not isinstance(method, str):
                raise ValueError(f"{path}: method {method!r} is not a string")
            clouds.setdefault(method, []).append(frontier_mod.FrontierPoint(qubits, depth, method))
    return clouds


def _cmd_frontier(config: RunConfig) -> tuple[dict, int]:
    clouds = _load_points(config.opt("inputs"))
    fronts = {m: frontier_mod.efficient_frontier(pts) for m, pts in clouds.items()}
    cost_name = config.opt("cost")
    cost = frontier_mod.builtin_cost(
        cost_name,
        alpha=config.opt("alpha"),
        beta=config.opt("beta"),
        cap=config.opt("cap"),
    )
    method, point, value = frontier_mod.optimize_cost(fronts, cost)
    if value == math.inf and cost_name == frontier_mod.COST_CAPPED:
        raise ValueError(f"no operating point fits under the cap of {config.opt('cap')} qubits")
    if not math.isfinite(value):
        raise ValueError(f"the weights --alpha and --beta overflow the {cost_name} cost: {value} at the argmin")
    rows = [
        [m, pt.qubits, pt.depth]
        for m in sorted(fronts)
        for pt in fronts[m]
    ]
    _emit_csv(["method", "qubits", "depth"], rows, config.opt("csv"))
    record = {
        "command": "frontier",
        "cost_function": cost_name,
        "argmin": {
            "method": method,
            "qubits": point.qubits,
            "depth": point.depth,
            "cost": value,
        },
        "frontier_sizes": {m: len(f) for m, f in fronts.items()},
    }
    return record, 0


def _cmd_verify(config: RunConfig) -> tuple[dict, int]:
    root = Path(__file__).resolve().parents[2]
    suite = root / "tests" / "test_acceptance.py"
    if not suite.exists():
        raise FileNotFoundError(
            "acceptance suite not found; verify needs a source checkout with tests/"
        )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", str(suite), "-v"],
        capture_output=True,
        text=True,
    )
    # pytest's report goes to stderr: stdout holds the JSON record alone
    sys.stderr.write(proc.stdout + proc.stderr)
    record = {
        "command": "verify",
        "suite": suite.relative_to(root).as_posix(),
        "exit_status": proc.returncode,
        "passed": proc.returncode == 0,
    }
    return record, proc.returncode


_HANDLERS: dict[str, Callable[[RunConfig], tuple[dict, int]]] = {
    "synth": _cmd_synth,
    "kickback": _cmd_kickback,
    "qvr": _cmd_qvr,
    "par-sim": _cmd_par_sim,
    "estimate-2q": _cmd_estimate_2q,
    "estimate-1q": _cmd_estimate_1q,
    "frontier": _cmd_frontier,
    "verify": _cmd_verify,
}


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        raise ValueError(message)  # becomes an error record, not usage text


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _int_in(lo: int, hi: float, name: str) -> Callable[[str], int]:
    """An argparse type for integers in [lo, hi]; argparse reports text that
    is no integer at all as an invalid value of the type called name."""
    def check(text: str) -> int:
        value = int(text)
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer in [{lo}, {hi}]")
        return value

    check.__name__ = name
    return check


# the built multiplier grows as width^2 gates, and invsqrt_fixed computes in binary64
_width = _int_in(2, 64, "_width")
# round j prepares 2^(j-1) phi mod 2 pi in binary64: from about 53 rounds on
# that angle is rounding noise, and near 1024 rounds the doubling overflows
_ancillas = _int_in(1, 64, "_ancillas")
# n bits take 2^n - 1 Trotter steps, costed in binary64: 64 bits already
# resolve the phase past its 53-bit mantissa, and near 1024 the count overflows
_readout_bits = _int_in(1, 64, "_readout_bits")
# phi is a binary64, so from about 53 bits on the kickback grid 2 pi / 2^n is
# finer than phi's own rounding, and near 1024 bits 2^n overflows a float
_bits = _int_in(1, 64, "_bits")
# bitwise QVR turns wire j by 2 pi xi 2^(j-q), with 2^(j-q) a binary64: it is
# zero from q - j = 1075 on, so a wider register loses its low wires' turns
_value_bits = _int_in(1, 1074, "_value_bits")
_trials = _int_in(1, math.inf, "_trials")
# numpy seeds its generator from any non-negative integer, however large
_seed = _int_in(0, math.inf, "_seed")


def _tolerance(text: str) -> float:
    value = float(text)
    if not 0.0 < value <= 1.0:  # also rejects nan and inf
        raise argparse.ArgumentTypeError(f"{text!r} is not in (0, 1]")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ftqc",
        description="Fault-tolerant rotation compilation and resource estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, *, csv_out: bool = False, circuit: bool = False):
        p.add_argument("--json", help="write the JSON record here instead of stdout")
        if csv_out:
            p.add_argument("--csv", help="write the CSV artifact here")
        if circuit:
            p.add_argument("--circuit", help="write the circuit text here")

    p = sub.add_parser("synth", help="compile one Z rotation to the fixed gate set")
    p.add_argument("--angle", type=_finite, required=True)
    p.add_argument("--epsilon", type=_tolerance, required=True)
    add_common(p)

    p = sub.add_parser("kickback", help="build a kickback rotation circuit")
    p.add_argument("--phi", type=_finite, required=True)
    p.add_argument("--bits", type=_bits, required=True, help="eigenstate register width, 1 to 64")
    p.add_argument("--k", type=int, default=1, help="odd eigenstate index")
    p.add_argument("--controlled", action="store_true")
    add_common(p, circuit=True)

    p = sub.add_parser("qvr", help="build a variable-rotation circuit")
    p.add_argument("--xi", type=_finite, required=True)
    p.add_argument("--q", type=_value_bits, required=True, help="value register width, 1 to 1074")
    p.add_argument("--mode", choices=("bitwise", "kickback"), default="kickback")
    add_common(p, circuit=True)

    p = sub.add_parser("par-sim", help="seeded Monte Carlo over the ancilla cascade")
    p.add_argument("--phi", type=_finite, required=True)
    p.add_argument("--ancillas", type=_ancillas, required=True, help="cascade rounds, 1 to 64")
    p.add_argument("--trials", type=_trials, required=True, help="Monte Carlo trials, at least 1")
    p.add_argument("--seed", type=_seed, help="override the run seed, a non-negative integer")
    add_common(p)

    p = sub.add_parser("estimate-2q", help="second-quantized resource report")
    p.add_argument("--integrals", required=True, help="orbital integral table file")
    p.add_argument("--cutoff", type=_finite, default=0.0, help="drop terms at or below this magnitude")
    p.add_argument("--readout-bits", type=_readout_bits, required=True, help="phase readout bits, 1 to 64")
    p.add_argument("--dt", type=_finite, required=True)
    p.add_argument("--method", choices=secondq.METHODS, required=True)
    p.add_argument("--epsilon", type=_tolerance, default=1e-4)
    p.add_argument("--seconds-per-gate", type=_finite, default=1e-3)
    add_common(p, csv_out=True)

    p = sub.add_parser("estimate-1q", help="first-quantized resource report")
    p.add_argument("--particles", type=int, required=True)
    p.add_argument("--grid-bits", type=int, required=True, help="qubits per spatial dimension")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--mode", choices=tuple(_MODE_NAMES), required=True)
    p.add_argument("--width", type=_width, default=firstq.DEFAULT_WIDTH, help="arithmetic width in bits, 2 to 64")
    p.add_argument("--dt", type=_finite, default=1e-3, help="step length in atomic units")
    add_common(p, csv_out=True)

    p = sub.add_parser("frontier", help="efficient frontier over estimator outputs")
    p.add_argument("--in", dest="inputs", nargs="+", required=True, help="estimator JSON files")
    p.add_argument("--cost", choices=frontier_mod.BUILTIN_COSTS, default="depth")
    p.add_argument("--alpha", type=_finite, default=1.0)
    p.add_argument("--beta", type=_finite, default=1.0)
    p.add_argument("--cap", type=int, help="qubit cap for depth-with-qubit-cap")
    add_common(p, csv_out=True)

    p = sub.add_parser("verify", help="run the acceptance suite")
    add_common(p)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The process's one parser tree, built on first use: parsing reads
    it and keeps no state in it between calls."""
    return build_parser()


def parse_args(argv: list[str] | None = None) -> RunConfig:
    namespace = _shared_parser().parse_args(argv)
    options = vars(namespace).copy()
    command = options.pop("command")
    seed = DEFAULT_SEED
    if "seed" in options:  # only par-sim takes --seed, and only it reads FTQC_SEED
        seed = options.pop("seed")
        if seed is None:
            env = os.environ.get("FTQC_SEED", str(DEFAULT_SEED))
            try:
                seed = _seed(env)
            except (ValueError, argparse.ArgumentTypeError):
                raise ValueError(f"FTQC_SEED={env!r} is not a non-negative integer") from None
    return RunConfig(command=command, options=options, seed=seed)


def run(config: RunConfig) -> int:
    """Execute one configuration; writes artifacts and returns the status."""
    handler = _HANDLERS.get(config.command)
    if handler is None:
        raise ValueError(f"unknown subcommand {config.command!r}")
    record, status = handler(config)
    _emit_json(record, config.opt("json"))
    return status


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        return run(parse_args(argv))
    except SystemExit as exc:  # --help printed its text
        return int(exc.code or 0)
    except (ValueError, OSError, ArithmeticError, KeyError, SimulationError) as exc:
        error = {
            "schema": SCHEMA_VERSION,
            # the top-level parser takes no options, so a subcommand comes first
            "command": argv[0] if argv and argv[0] in _HANDLERS else None,
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }
        sys.stderr.write(json.dumps(error, sort_keys=True) + "\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
