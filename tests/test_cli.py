"""Command-line surface checks.

Oracles: the synth example is pinned by the exact T-gate identity
rz(pi/4) = T (up to phase); par-sim statistics are checked against the
closed-form cascade expectation; frontier fixtures are small enough to
minimize by hand.  Determinism is checked at the byte level: one
(config, seed) pair must reproduce its artifacts exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
import subprocess

import pytest

from ftqc import cli
from ftqc.cli import DEFAULT_SEED, main, parse_args
from ftqc.core import circuit_from_text
from ftqc.sim import SimulationError
from ftqc.synth import GateSequence


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


class TestSynth:
    def test_quarter_turn_is_a_single_t(self, capsys):
        status, out, _ = run_cli(
            capsys, "synth", "--angle", repr(math.pi / 4), "--epsilon", "1e-9"
        )
        record = json.loads(out)
        assert status == 0
        assert record["schema"] == 1
        assert record["sequence"] == ["T"]
        assert record["t_count"] == 1
        assert record["satisfied"] is True
        assert record["achieved_distance"] <= 1e-9

    def test_half_t_angle_meets_loose_budget(self, capsys):
        status, out, _ = run_cli(capsys, "synth", "--angle", "0.3", "--epsilon", "0.2")
        record = json.loads(out)
        assert status == 0
        assert record["achieved_distance"] <= 0.2
        assert record["length"] == len(record["sequence"])

    def test_json_flag_writes_file_with_trailing_newline(self, tmp_path, capsys):
        out_file = tmp_path / "synth.json"
        status, out, _ = run_cli(
            capsys,
            "synth", "--angle", "0.785398163397448", "--epsilon", "1e-2",
            "--json", str(out_file),
        )
        assert status == 0
        assert out == ""
        text = out_file.read_text()
        assert text.endswith("\n")
        assert json.loads(text)["command"] == "synth"

    def test_unsatisfied_tolerance_has_its_own_status(self, tmp_path, capsys, monkeypatch):
        def short_of_budget(target, epsilon):
            return GateSequence(("T",), target, 0.25, tolerance=epsilon)

        monkeypatch.setattr(cli, "synthesize", short_of_budget)
        out_file = tmp_path / "synth.json"
        status, out, err = run_cli(
            capsys, "synth", "--angle", "0.3", "--epsilon", "1e-3", "--json", str(out_file)
        )
        assert status == cli.EXIT_UNSATISFIED
        assert status not in (0, 2)
        assert out == "" and err == ""
        record = json.loads(out_file.read_text())
        assert record["satisfied"] is False
        assert record["achieved_distance"] == 0.25
        assert record["sequence"] == ["T"]

    def test_epsilon_below_the_sk_floor_is_unsatisfied(self, tmp_path, capsys):
        out_file = tmp_path / "synth.json"
        status, _, err = run_cli(
            capsys, "synth", "--angle", "0.7", "--epsilon", "1e-11", "--json", str(out_file)
        )
        assert status == cli.EXIT_UNSATISFIED
        assert err == ""
        record = json.loads(out_file.read_text())
        assert record["satisfied"] is False
        assert 1e-11 < record["achieved_distance"] < 1e-9


class TestDeterminism:
    def test_same_config_and_seed_are_byte_identical(self, capsys):
        argv = ("par-sim", "--phi", "1.0", "--ancillas", "6", "--trials", "2000",
                "--seed", "11")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second
        assert first != ""

    def test_env_seed_overrides_default(self, capsys, monkeypatch):
        argv = ("par-sim", "--phi", "1.0", "--ancillas", "6", "--trials", "2000")
        monkeypatch.delenv("FTQC_SEED", raising=False)
        _, default_out, _ = run_cli(capsys, *argv)
        assert json.loads(default_out)["seed"] == DEFAULT_SEED
        monkeypatch.setenv("FTQC_SEED", "7")
        _, env_out, _ = run_cli(capsys, *argv)
        assert json.loads(env_out)["seed"] == 7
        assert env_out != default_out

    def test_flag_seed_beats_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("FTQC_SEED", "99")
        _, out, _ = run_cli(
            capsys,
            "par-sim", "--phi", "1.0", "--ancillas", "6", "--trials", "2000",
            "--seed", "7",
        )
        assert json.loads(out)["seed"] == 7

    def test_parse_args_resolves_seed(self, monkeypatch):
        monkeypatch.delenv("FTQC_SEED", raising=False)
        config = parse_args(["par-sim", "--phi", "1.0", "--ancillas", "4",
                             "--trials", "10"])
        assert config.command == "par-sim"
        assert config.seed == DEFAULT_SEED
        assert config.opt("phi") == 1.0


class TestParSim:
    def test_spec_example_mean_rounds(self, capsys):
        status, out, _ = run_cli(
            capsys,
            "par-sim", "--phi", "1.0", "--ancillas", "20",
            "--trials", "100000", "--seed", "7",
        )
        record = json.loads(out)
        assert status == 0
        assert record["mean_rounds"] == pytest.approx(2.0, abs=0.02)
        assert record["fallback_rate"] == 0.0
        # histogram keys are strings (JSON object keys) and cover the counts
        assert sum(record["histogram"].values()) == 100000

    def test_fallback_visible_with_few_ancillas(self, capsys):
        _, out, _ = run_cli(
            capsys,
            "par-sim", "--phi", "1.0", "--ancillas", "2",
            "--trials", "4000", "--seed", "3",
        )
        record = json.loads(out)
        assert 0.0 < record["fallback_rate"] < 1.0

    def test_output_bytes_are_pinned(self, capsys):
        # digest of this output as the per-trial Monte Carlo printed it
        status, out, _ = run_cli(
            capsys,
            "par-sim", "--phi", "1.0", "--ancillas", "20",
            "--trials", "20000", "--seed", "7",
        )
        assert status == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "90ae44ada890dd3e01ff1141ee7b708b828d9aa77014e397d168d1ed63ad13d0"
        )

    @pytest.mark.parametrize(
        "argv,digest",
        [
            (("--phi", "2.345", "--ancillas", "20", "--trials", "20000", "--seed", "7"),
             "bbff9d0eacb899751ea4865c8ca179d7bd6b669a238ba9a7af283dab0ef4d983"),
            (("--phi", "1.0", "--ancillas", "6", "--trials", "5000", "--seed", "740021"),
             "787f3c7a9f56fcd3ab101702dba5083a468a27a5b459fd0c0feba8ed00c98af6"),
        ],
        ids=["phi-2.345-M20", "phi-1.0-M6"],
    )
    def test_output_bytes_stay_pinned(self, capsys, argv, digest):
        # the failure-path table shares its round arithmetic with execute_par,
        # so any change to that arithmetic shows in these bytes
        status, out, _ = run_cli(capsys, "par-sim", *argv)
        assert status == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "flag,value",
        [("--ancillas", "0"), ("--ancillas", "-1"), ("--ancillas", "65"),
         ("--ancillas", "1100"), ("--trials", "0"), ("--trials", "-5")],
    )
    def test_out_of_range_counts_are_an_error_record(self, capsys, flag, value):
        options = {"--ancillas": "6", "--trials": "10", flag: value}
        status, out, err = run_cli(
            capsys, "par-sim", "--phi", "1.0", *(x for kv in options.items() for x in kv)
        )
        assert status == 2
        assert out == ""
        assert err.count("\n") == 1  # one record, no traceback
        record = json.loads(err)
        assert record["command"] == "par-sim"
        assert record["error"]["message"].startswith(f"argument {flag}")

    @pytest.mark.parametrize("ancillas", ["1", "64"])
    def test_ancilla_bounds_are_accepted(self, capsys, ancillas):
        status, out, _ = run_cli(
            capsys, "par-sim", "--phi", "1.0", "--ancillas", ancillas, "--trials", "1"
        )
        assert status == 0
        assert json.loads(out)["ancillas"] == int(ancillas)


class TestKickback:
    def test_circuit_file_round_trips(self, tmp_path, capsys):
        circ_file = tmp_path / "kb.txt"
        status, out, _ = run_cli(
            capsys,
            "kickback", "--phi", "0.7", "--bits", "8", "--circuit", str(circ_file),
        )
        record = json.loads(out)
        assert status == 0
        circuit = circuit_from_text(circ_file.read_text())
        profile = circuit.profile()
        assert profile.depth == record["profile"]["depth"]
        assert profile.t_count == record["profile"]["t_count"]
        assert record["distance_bound"] == abs(record["delta_phi"]) / 2.0
        assert record["distance_bound"] <= 2 * math.pi / 2 ** 9

    def test_even_k_rejected_with_error_record(self, capsys):
        status, out, err = run_cli(
            capsys, "kickback", "--phi", "0.5", "--bits", "4", "--k", "2"
        )
        assert status == 2
        assert out == ""
        error = json.loads(err)
        assert error["error"]["type"] == "ValueError"


class TestQvr:
    def test_kickback_mode_reports_alignment(self, capsys):
        _, out, _ = run_cli(capsys, "qvr", "--xi", "0.75", "--q", "4")
        record = json.loads(out)
        assert record["mode"] == "kickback"
        assert record["empty"] is False
        assert record["profile"]["qubits"] > record["q"]

    def test_bitwise_exact_turn_count_is_plain_rotations(self, capsys):
        # xi = 0.8125 at q=4: every per-bit angle is a multiple of pi/4
        _, out, _ = run_cli(capsys, "qvr", "--xi", "0.8125", "--q", "4",
                            "--mode", "bitwise")
        record = json.loads(out)
        assert record["profile"]["qubits"] == 4
        assert record["profile"]["total_gates"] <= 4

    def test_epsilon_is_not_a_flag(self, capsys):
        # the CLI builds exact placeholders, which no synthesis budget reaches
        status, out, err = run_cli(capsys, "qvr", "--xi", "1.25", "--q", "3",
                                   "--mode", "bitwise", "--epsilon", "1e-9")
        assert status == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["command"] == "qvr"
        assert "unrecognized arguments: --epsilon 1e-9" in record["error"]["message"]


class TestEstimate2q:
    def test_report_and_cutoff_curve(self, tmp_path, capsys):
        csv_file = tmp_path / "curve.csv"
        status, out, _ = run_cli(
            capsys,
            "estimate-2q",
            "--integrals", "tests/data/integrals_12.txt",
            "--cutoff", "1e-10",
            "--readout-bits", "10",
            "--dt", "0.05",
            "--method", "kickback",
            "--csv", str(csv_file),
        )
        record = json.loads(out)
        assert status == 0
        assert record["steps"] == 1023
        assert record["cutoff"]["retained"] == 99
        assert record["profile"]["depth"] == record["per_step"]["depth"] * 1023
        assert 0.0 < record["rotation_fraction"] < 1.0
        raw = csv_file.read_bytes()
        assert b"\r\n" in raw  # RFC 4180 line endings
        lines = raw.decode().split("\r\n")
        assert lines[0] == "threshold,retained"
        # retained counts never increase as the threshold rises
        retained = [int(line.split(",")[1]) for line in lines[1:] if line]
        thresholds = [float(line.split(",")[0]) for line in lines[1:] if line]
        assert thresholds == sorted(thresholds, reverse=True)
        assert retained == sorted(retained)

    @pytest.mark.parametrize(
        "method,epsilon,per_step",
        [
            ("kickback", "1e-4", {"depth": 119214, "t_count": 303996, "total_gates": 246022, "qubits": 63}),
            ("kickback", "1e-6", {"depth": 169880, "t_count": 455994, "total_gates": 303926, "qubits": 77}),
            ("par", "1e-4", {"depth": 23052, "t_count": 229548, "total_gates": 135384, "qubits": 39}),
            ("par", "1e-6", {"depth": 23052, "t_count": 347424, "total_gates": 135384, "qubits": 39}),
            ("sequence", "1e-4", {"depth": 211240, "t_count": 76516, "total_gates": 323572, "qubits": 33}),
            ("sequence", "1e-6", {"depth": 314640, "t_count": 115808, "total_gates": 426972, "qubits": 33}),
            ("sk", "1e-4", {"depth": 8226808, "t_count": 3932302, "total_gates": 8339140, "qubits": 34}),
            ("sk", "1e-6", {"depth": 41562968, "t_count": 19847630, "total_gates": 41675300, "qubits": 34}),
        ],
        # the kickback rows keep the ids they had before the other methods joined
        ids=[
            "1e-4-per_step0", "1e-6-per_step1", "par-1e-4", "par-1e-6",
            "sequence-1e-4", "sequence-1e-6", "sk-1e-4", "sk-1e-6",
        ],
    )
    def test_kickback_figures_are_pinned(self, capsys, method, epsilon, per_step):
        # kickback rotations are priced from the cached worst-case adder
        # profile; these are the figures of the adder built per rotation.
        # The other methods' figures were taken from the letter-string
        # estimator, so all four tie the mask-count path to it.
        status, out, _ = run_cli(
            capsys,
            "estimate-2q",
            "--integrals", "tests/data/integrals_12.txt",
            "--readout-bits", "10",
            "--dt", "0.1",
            "--method", method,
            "--epsilon", epsilon,
        )
        record = json.loads(out)
        assert status == 0
        assert record["per_step"] == per_step
        assert record["rotation_count"] == 1057782

    @pytest.mark.parametrize("bits", ["0", "65", "1100"])
    def test_readout_bits_outside_one_to_sixty_four_is_an_error_record(self, capsys, bits):
        status, out, err = run_cli(
            capsys,
            "estimate-2q", "--integrals", "tests/data/integrals_12.txt",
            "--readout-bits", bits, "--dt", "0.1", "--method", "kickback",
        )
        assert status == 2
        assert out == ""
        assert err.count("\n") == 1  # one record, no traceback
        record = json.loads(err)
        assert record["command"] == "estimate-2q"
        assert record["error"]["message"].startswith("argument --readout-bits")

    @pytest.mark.parametrize("bits", [1, 64])
    def test_readout_bit_bounds_are_accepted(self, capsys, bits):
        status, out, _ = run_cli(
            capsys,
            "estimate-2q", "--integrals", "tests/data/integrals_12.txt",
            "--readout-bits", str(bits), "--dt", "0.1", "--method", "kickback",
        )
        assert status == 0
        assert json.loads(out)["steps"] == (1 << bits) - 1

    def test_overflowing_wall_clock_is_an_error_record(self, capsys):
        # finite --seconds-per-gate times a finite depth can still overflow
        status, out, err = run_cli(
            capsys,
            "estimate-2q", "--integrals", "tests/data/integrals_12.txt",
            "--readout-bits", "4", "--dt", "0.05", "--method", "sequence",
            "--seconds-per-gate", "1e308",
        )
        assert status == 2
        assert out == ""
        assert err.count("\n") == 1  # one record, no traceback
        record = json.loads(err)
        assert record["command"] == "estimate-2q"
        assert record["error"]["type"] == "ValueError"
        assert "seconds_per_gate" in record["error"]["message"]

    def test_missing_integral_file_is_an_error_record(self, capsys):
        status, _, err = run_cli(
            capsys,
            "estimate-2q", "--integrals", "no/such/file.txt",
            "--readout-bits", "4", "--dt", "0.1", "--method", "sk",
        )
        assert status == 2
        assert json.loads(err)["error"]["type"] in ("OSError", "FileNotFoundError")


class TestEstimate1q:
    def test_report_and_particle_curve(self, tmp_path, capsys):
        csv_file = tmp_path / "curve.csv"
        status, out, _ = run_cli(
            capsys,
            "estimate-1q",
            "--particles", "4", "--grid-bits", "5", "--steps", "7",
            "--mode", "parallel", "--width", "8",
            "--csv", str(csv_file),
        )
        record = json.loads(out)
        assert status == 0
        assert record["mode"] == "parallel"
        assert record["profile"]["qubits"] >= 4 * 3 * 5
        lines = csv_file.read_bytes().decode().split("\r\n")
        assert lines[0] == "particles,depth,t_count,qubits"
        rows = [line.split(",") for line in lines[1:] if line]
        assert [int(r[0]) for r in rows] == [2, 3, 4]
        # fully parallel mode trades qubits for flat depth
        qubits = [int(r[3]) for r in rows]
        assert qubits == sorted(qubits)
        assert qubits[0] < qubits[-1]

    def test_mode_choices_are_enforced(self, capsys):
        status, _, _ = run_cli(
            capsys,
            "estimate-1q", "--particles", "2", "--grid-bits", "3",
            "--steps", "1", "--mode", "sideways",
        )
        assert status == 2

    @pytest.mark.parametrize("width", ["1", "65"])
    def test_width_outside_two_to_sixty_four_is_an_error_record(self, capsys, width):
        status, out, err = run_cli(
            capsys,
            "estimate-1q", "--particles", "2", "--grid-bits", "3",
            "--steps", "1", "--mode", "inplace", "--width", width,
        )
        assert status == 2
        assert out == ""
        assert err.count("\n") == 1  # one record, no traceback
        record = json.loads(err)
        assert record["command"] == "estimate-1q"
        assert record["error"]["message"].startswith("argument --width")

    def test_width_sixty_four_is_accepted(self, capsys):
        status, out, _ = run_cli(
            capsys,
            "estimate-1q", "--particles", "2", "--grid-bits", "3",
            "--steps", "1", "--mode", "inplace", "--width", "64",
        )
        assert status == 0
        assert json.loads(out)["width"] == 64


class TestFrontier:
    @pytest.fixture()
    def clouds(self, tmp_path):
        path = tmp_path / "clouds.json"
        path.write_text(json.dumps({
            "points": [
                {"qubits": 30, "depth": 40, "method": "kickback"},
                {"qubits": 10, "depth": 100, "method": "par"},
                {"qubits": 25, "depth": 60, "method": "par"},
                {"qubits": 12, "depth": 95, "method": "sequence"},
            ]
        }))
        return path

    def test_depth_argmin(self, clouds, capsys):
        status, out, _ = run_cli(
            capsys, "frontier", "--in", str(clouds), "--cost", "depth"
        )
        record = json.loads(out)
        assert status == 0
        assert record["argmin"]["method"] == "kickback"
        assert record["argmin"]["depth"] == 40

    def test_qubit_argmin(self, clouds, capsys):
        _, out, _ = run_cli(
            capsys, "frontier", "--in", str(clouds), "--cost", "qubits"
        )
        record = json.loads(out)
        assert record["argmin"]["method"] == "par"
        assert record["argmin"]["qubits"] == 10

    def test_capped_cost_excludes_large_registers(self, clouds, capsys):
        _, out, _ = run_cli(
            capsys,
            "frontier", "--in", str(clouds),
            "--cost", "depth-with-qubit-cap", "--cap", "26",
        )
        record = json.loads(out)
        assert record["argmin"] == {
            "method": "par", "qubits": 25, "depth": 60, "cost": 60.0,
        }

    def test_frontier_csv_lists_surviving_points(self, clouds, tmp_path, capsys):
        csv_file = tmp_path / "front.csv"
        run_cli(capsys, "frontier", "--in", str(clouds), "--csv", str(csv_file))
        lines = [l for l in csv_file.read_bytes().decode().split("\r\n") if l]
        assert lines[0] == "method,qubits,depth"
        # both par points survive (neither dominates the other)
        assert sum(1 for l in lines if l.startswith("par,")) == 2

    def test_estimator_record_inputs(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps(
            {"method": "kickback", "profile": {"qubits": 63, "depth": 500}}))
        b.write_text(json.dumps(
            {"method": "par", "profile": {"qubits": 39, "depth": 900}}))
        _, out, _ = run_cli(
            capsys, "frontier", "--in", str(a), str(b), "--cost", "depth"
        )
        record = json.loads(out)
        assert record["argmin"]["method"] == "kickback"
        assert record["frontier_sizes"] == {"kickback": 1, "par": 1}

    def test_unreadable_input_is_an_error_record(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"neither": "kind"}))
        status, _, err = run_cli(
            capsys, "frontier", "--in", str(bogus), "--cost", "depth"
        )
        assert status == 2
        assert json.loads(err)["error"]["type"] == "ValueError"


class TestVerify:
    @pytest.mark.parametrize("returncode", [0, 1])
    def test_stdout_is_one_record_with_a_relative_suite(self, capsys, monkeypatch, returncode):
        runs = []

        def fake_run(argv, **kwargs):
            runs.append(argv)
            return subprocess.CompletedProcess(argv, returncode, stdout="rootdir: /x\n17 passed\n", stderr="")

        monkeypatch.setattr(cli.subprocess, "run", fake_run)
        status, out, err = run_cli(capsys, "verify")
        assert len(runs) == 1
        assert status == returncode
        record = json.loads(out)  # raises unless stdout is exactly one JSON document
        assert isinstance(record, dict)
        assert record["suite"] == "tests/test_acceptance.py"
        assert record["passed"] is (returncode == 0)
        assert record["exit_status"] == returncode
        assert "17 passed" in err


class TestArgumentHandling:
    def test_unknown_flag_is_rejected(self, capsys):
        status, _, err = run_cli(
            capsys, "synth", "--angle", "0.5", "--epsilon", "1e-2", "--bogus"
        )
        assert status == 2
        assert "unrecognized" in err

    def test_seed_is_only_a_par_sim_flag(self, capsys):
        # par-sim is the one command that draws random numbers
        status, out, err = run_cli(
            capsys, "synth", "--angle", "0.7", "--epsilon", "1e-3", "--seed", "5"
        )
        assert status == 2
        assert out == ""
        assert err.count("\n") == 1  # one record, no traceback
        record = json.loads(err)
        assert record["command"] == "synth"
        assert "unrecognized arguments: --seed 5" in record["error"]["message"]

    def test_seedless_commands_ignore_ftqc_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("FTQC_SEED", "not-a-seed")
        status, out, err = run_cli(capsys, "synth", "--angle", "0.7", "--epsilon", "1e-2")
        assert status == 0 and err == ""
        assert json.loads(out)["command"] == "synth"

    def test_missing_required_flag_is_rejected(self, capsys):
        status, _, _ = run_cli(capsys, "synth", "--angle", "0.5")
        assert status == 2

    def test_missing_subcommand_is_rejected(self, capsys):
        status, _, _ = run_cli(capsys)
        assert status == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("par-sim", "--phi", "nan", "--ancillas", "6", "--trials", "100"),
            ("synth", "--angle", "0.5", "--epsilon", "inf"),
            ("estimate-2q", "--integrals", "tests/data/integrals_12.txt",
             "--readout-bits", "10", "--dt", "0.1", "--method", "par", "--epsilon", "2"),
        ],
        ids=["phi-nan", "epsilon-inf", "epsilon-above-one"],
    )
    def test_non_finite_or_out_of_range_floats_are_rejected(self, capsys, argv):
        status, out, err = run_cli(capsys, *argv)
        assert status == 2
        assert out == ""
        assert err.count("\n") == 1
        record = json.loads(err)
        assert record["schema"] == 1
        assert record["command"] == argv[0]
        assert record["error"]["message"].startswith("argument --")

    def test_simulation_error_is_an_error_record(self, capsys, monkeypatch):
        def failing(config):
            raise SimulationError("state exceeds the qubit cap")

        monkeypatch.setitem(cli._HANDLERS, "synth", failing)
        status, out, err = run_cli(capsys, "synth", "--angle", "0.5", "--epsilon", "1e-2")
        assert status == 2
        assert out == ""
        assert "Traceback" not in err
        record = json.loads(err)
        assert record["command"] == "synth"
        assert record["error"]["type"] == "SimulationError"

    def test_error_records_are_single_line_json(self, capsys):
        _, _, err = run_cli(
            capsys, "par-sim", "--phi", "1.0", "--ancillas", "0", "--trials", "5"
        )
        assert err.count("\n") == 1
        record = json.loads(err)
        assert record["schema"] == 1
        assert record["command"] == "par-sim"
        assert "ancilla" in record["error"]["message"]
