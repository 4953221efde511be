"""Per-layer counters for a traced run, taken from outside the program.

``Tracer.install`` replaces public functions of the ftqc modules with
timing wrappers, in every ftqc module that holds them under a public
name, so calls between modules are seen as well as calls from the
benchmark.  Only the outermost call of a nested or recursive chain is
timed; every call is counted.  Nothing under src/ is changed.

Kernel byte counts are computed from the arguments, as the amplitudes an
operation has to read and write by its definition (itemsize s, N
amplitudes): apply_1q 2Ns; apply_diag_1q Ns per non-unit diagonal entry;
apply_cnot Ns (swaps the control-set half); apply_toffoli Ns/2;
apply_phase_on_ones 2Ns/2^popcount(mask); prob_one Ns/2; collapse 2.5Ns
(zero one half, rescale all).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict


def _nbytes(args) -> int:
    return args[0].size * args[0].itemsize


# bytes moved, from the positional arguments (amps, n, ...) sim passes
KERNEL_BYTES = {
    "apply_1q": lambda a: 2.0 * _nbytes(a),
    "apply_diag_1q": lambda a: _nbytes(a) * ((a[3] != 1.0) + (a[4] != 1.0)),
    "apply_cnot": lambda a: float(_nbytes(a)),
    "apply_toffoli": lambda a: _nbytes(a) / 2.0,
    "apply_phase_on_ones": lambda a: 2.0 * _nbytes(a) / (1 << bin(a[2]).count("1")),
    "prob_one": lambda a: _nbytes(a) / 2.0,
    "collapse": lambda a: 2.5 * _nbytes(a),
}
KERNELS = tuple(KERNEL_BYTES)

# (module, attribute path) of every timed entry point, named <module>.<path>
TIMED = [
    ("synth", "build_net"), ("synth", "min_sequence"), ("synth", "solovay_kitaev"),
    ("synth", "synthesize"),
    ("core", "dist"), ("core", "CircuitBuilder.append"), ("core", "Circuit.profile"),
    *[("kernels", k) for k in KERNELS],
    ("sim", "run"), ("sim", "to_unitary"), ("sim", "effective_unitary"), ("sim", "channel_equal"),
    ("kickback", "build_adder"), ("kickback", "kickback_rotation"), ("kickback", "gamma_state"),
    ("qvr", "build_qvr_kickback"), ("qvr", "build_qvr_bitwise"),
    ("par", "par_statistics"),
    ("secondq", "estimate_second_quantized"), ("secondq", "rotation_profile"),
    ("firstq", "estimate_first_quantized"),
    ("frontier", "efficient_frontier"),
    ("cli", "main"),
]

# counters beyond calls and seconds, with their units
EXTRA = {
    "synth.net.entries": "count",
    "synth.sk.max_level": "count",
    "sim.run.gates": "count",
    "sim.run.dispatch_s": "s",
    "sim.to_unitary.columns": "count",
    "sim.effective_unitary.columns": "count",
    "par.trials": "count",
    "secondq.terms": "count",
    **{f"kernels.{k}.bytes": "B" for k in KERNELS},
}

# counters that hold a largest value seen rather than a running total
GAUGES = ("synth.net.entries", "synth.sk.max_level")


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for module, path in TIMED:
        units[f"{module}.{path}.calls"] = "count"
        units[f"{module}.{path}.s"] = "s"
    units.update(EXTRA)
    return units


class Tracer:
    def __init__(self) -> None:
        self.values: dict[str, float] = defaultdict(float)
        self.kernel_s = 0.0

    def snapshot(self) -> dict[str, float]:
        return dict(self.values)

    def install(self) -> None:
        # import every module first, so that names bound by `from .x import f`
        # anywhere in the package are found and replaced
        modules = {m: importlib.import_module(f"ftqc.{m}") for m, _ in TIMED}
        for module, path in TIMED:
            owner = modules[module]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(f"{module}.{path}", original)
            if outer:
                setattr(owner, attr, wrapper)
            else:
                _replace_everywhere(original, wrapper)

    def _wrap(self, name: str, fn):
        values = self.values
        calls, secs = f"{name}.calls", f"{name}.s"
        after = self._after_hook(name, fn)
        depth = [0]
        is_kernel = name.startswith("kernels.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            values[calls] += 1
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] += 1
            k0 = self.kernel_s
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                depth[0] -= 1
                values[secs] += elapsed
                if is_kernel:
                    self.kernel_s += elapsed
            if after is not None:
                after(args, kwargs, result, elapsed, self.kernel_s - k0)
            return result

        return wrapper

    def _after_hook(self, name: str, fn):
        """Extra counters for one entry point, or None."""
        v = self.values
        if name.startswith("kernels."):
            moved = KERNEL_BYTES[name.split(".")[1]]
            key = f"{name}.bytes"

            def hook(args, kwargs, result, elapsed, kernel_s):
                v[key] += moved(args)
            return hook
        bind = inspect.signature(fn).bind
        if name == "synth.build_net":
            def hook(args, kwargs, result, elapsed, kernel_s):
                v["synth.net.entries"] = max(v["synth.net.entries"], len(result))
        elif name == "synth.solovay_kitaev":
            def hook(args, kwargs, result, elapsed, kernel_s):
                level = bind(*args, **kwargs).arguments["level"]
                v["synth.sk.max_level"] = max(v["synth.sk.max_level"], level)
        elif name == "sim.run":
            def hook(args, kwargs, result, elapsed, kernel_s):
                circuit = args[0] if args else kwargs["circuit"]
                v["sim.run.gates"] += sum(len(layer) for layer in circuit.layers)
                v["sim.run.dispatch_s"] += elapsed - kernel_s
        elif name == "sim.to_unitary":
            def hook(args, kwargs, result, elapsed, kernel_s):
                v["sim.to_unitary.columns"] += 1 << bind(*args, **kwargs).arguments["circuit"].n_qubits
        elif name == "sim.effective_unitary":
            def hook(args, kwargs, result, elapsed, kernel_s):
                v["sim.effective_unitary.columns"] += 1 << len(bind(*args, **kwargs).arguments["data_qubits"])
        elif name == "par.par_statistics":
            def hook(args, kwargs, result, elapsed, kernel_s):
                v["par.trials"] += bind(*args, **kwargs).arguments["trials"]
        elif name == "secondq.estimate_second_quantized":
            def hook(args, kwargs, result, elapsed, kernel_s):
                v["secondq.terms"] += bind(*args, **kwargs).arguments["table"].n_terms
        else:
            hook = None
        return hook


def _replace_everywhere(original, wrapper) -> None:
    """Swap a function in every public ftqc module that holds it by a public name."""
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "ftqc" or modname.startswith("ftqc.")):
            continue
        if any(part.startswith("_") for part in modname.split(".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original and not attr.startswith("_"):
                setattr(module, attr, wrapper)
