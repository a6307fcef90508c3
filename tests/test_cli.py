import json
import sys
import time
import types

import pytest

from helpers import (
    HARD_VIOLATED_BY_ALL_FALSE,
    OVERLOADED_COUNTS,
    answer_all_false,
    interrupt_after_first_model,
)
from ttsat import cli
from ttsat.cli import main
from ttsat.cnf import CnfError, parse_dimacs, write_dimacs
from ttsat.decode import DecodeError
from ttsat.sample import sample_text
from ttsat.solver import MaxSatResult, MaxSatStatus

EXTERNAL_SELF = f"{sys.executable} -m ttsat solve-wcnf {{input}}"


@pytest.fixture()
def sample_path(tmp_path):
    path = tmp_path / "instance.json"
    path.write_text(sample_text(), encoding="utf-8")
    return str(path)


@pytest.fixture()
def micro_path(tmp_path):
    assert main(["gen", "--seed", "4", "--days", "2", "--slots-per-day", "2",
                 "--rooms", "2", "--courses", "2", "--curricula", "2",
                 "--density", "0.8", "-o", str(tmp_path / "micro.json")]) == 0
    return str(tmp_path / "micro.json")


def gives_up(lower):
    """Stand-in for solve_maxsat that returns INDETERMINATE with this lower
    bound and no model."""
    return lambda formula, cfg: MaxSatResult(MaxSatStatus.INDETERMINATE, lower=lower)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_sample_optimum(self, capsys, sample_path):
        code, out, err = run(capsys, ["solve", sample_path])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "o 10"
        assert lines[1] == "s OPTIMUM FOUND"
        assert lines[2].startswith("c soft weight satisfied")
        assert lines[3].startswith("room")

    def test_csv_format(self, capsys, sample_path):
        code, out, _ = run(capsys, ["solve", sample_path, "--format", "csv"])
        assert code == 0
        assert "room,t1,t2,t3,t4,t5" in out

    def test_invalid_instance_exit_2(self, capsys, tmp_path):
        doc = json.loads(sample_text())
        doc["curricula"].append("k9")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, ["solve", str(bad)])
        assert code == 2
        assert out == ""
        assert err == "error: curriculum 'k9' contains no courses\n"

    @pytest.mark.parametrize("command", ["solve", "encode", "validate"])
    def test_deeply_nested_json_exit_2(self, capsys, tmp_path, command):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
        extra = {"solve": [], "encode": ["-o", str(tmp_path / "x.wcnf")],
                 "validate": [str(tmp_path / "grid.csv")]}[command]
        code, _, err = run(capsys, [command, str(deep), *extra])
        assert code == 2
        assert err == "error: JSON nests too deeply\n"

    def test_missing_file(self, capsys):
        code, out, err = run(capsys, ["solve", "/nonexistent/file.json"])
        assert code == 2
        assert "error:" in err

    def test_unsat_instance(self, capsys, tmp_path):
        doc = json.loads(sample_text())
        doc["days"] = ["d1"]
        doc["timeslots"] = [{"label": "t1", "day": "d1"}]
        doc["courses"] = doc["courses"][:1]
        doc["curricula"] = ["k1"]
        doc["registrations"] = []
        doc["courses"][0]["lecture"]["forbidden"] = []
        doc["courses"][0]["second"]["forbidden"] = []
        path = tmp_path / "unsat.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, _ = run(capsys, ["solve", str(path)])
        assert code == 1
        assert "s UNSATISFIABLE" in out

    @pytest.mark.parametrize("name", OVERLOADED_COUNTS)
    def test_count_warning_on_stderr(self, capsys, tmp_path, name):
        doc, message = OVERLOADED_COUNTS[name]
        path = tmp_path / "overloaded.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, ["solve", str(path)])
        assert code == 1
        assert out.splitlines()[0] == "s UNSATISFIABLE"
        assert err == f"warning: {message}\n"

    def test_external_backend_agrees(self, capsys, sample_path):
        code, out, _ = run(capsys, ["solve", sample_path, "--external-cmd", EXTERNAL_SELF])
        assert code == 0
        assert out.splitlines()[0] == "o 10"

    def test_external_timeout_is_indeterminate(self, capsys, micro_path, tmp_path):
        stub = tmp_path / "slow.py"
        stub.write_text("import time\ntime.sleep(5)\n")
        started = time.monotonic()
        code, out, _ = run(capsys, [
            "solve", micro_path, "--timeout", "0.5",
            "--external-cmd", f"{sys.executable} {stub} {{input}}",
        ])
        assert time.monotonic() - started < 4
        assert code == 3
        assert out == "s UNKNOWN\nc bounds 0 ?\n"

    def test_external_explicit_unknown_exit_3(self, capsys, micro_path, tmp_path):
        stub = tmp_path / "unknown.py"
        stub.write_text("print('s UNKNOWN')\n")
        code, out, _ = run(capsys, [
            "solve", micro_path, "--external-cmd", f"{sys.executable} {stub} {{input}}",
        ])
        assert code == 3
        assert out == "s UNKNOWN\nc bounds 0 ?\n"

    def test_external_missing_status_exit_2(self, capsys, micro_path, tmp_path):
        stub = tmp_path / "mute.py"
        stub.write_text("print('o 4')\nprint('s MAYBE')\n")
        code, out, err = run(capsys, [
            "solve", micro_path, "--external-cmd", f"{sys.executable} {stub} {{input}}",
        ])
        assert code == 2
        assert out == ""
        assert "external solver gave no status" in err

    def test_external_cmd_selects_external_solver(self, capsys, micro_path, tmp_path,
                                                  monkeypatch):
        def builtin(*args):
            raise AssertionError("the builtin solver ran")

        monkeypatch.setattr(cli, "solve_maxsat", builtin)
        stub = tmp_path / "unknown.py"
        stub.write_text("print('s UNKNOWN')\n")
        code, out, _ = run(capsys, [
            "solve", micro_path, "--external-cmd", f"{sys.executable} {stub} {{input}}",
        ])
        assert code == 3
        assert out.startswith("s UNKNOWN\n")

    def test_blank_external_cmd_exit_2(self, capsys, micro_path):
        code, out, err = run(capsys, ["solve", micro_path, "--external-cmd", " "])
        assert code == 2
        assert out == ""
        assert "empty external solver command" in err

    def test_decode_failure_is_internal_exit_4(self, capsys, micro_path, monkeypatch):
        def broken(*args):
            raise DecodeError("session 'c1/lecture' has 0 true timeslot variables")

        monkeypatch.setattr(cli, "decode_timetable", broken)
        code, out, err = run(capsys, ["solve", micro_path])
        assert code == 4
        assert "true timeslot variables" in err
        assert "s OPTIMUM FOUND" not in out

    def test_seed_does_not_change_cost(self, capsys, sample_path):
        _, out_a, _ = run(capsys, ["solve", sample_path, "--seed", "1"])
        _, out_b, _ = run(capsys, ["solve", sample_path, "--seed", "2"])
        assert out_a.splitlines()[0] == out_b.splitlines()[0] == "o 10"

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_partial_mode_cost(self, capsys, sample_path, seed):
        code, out, _ = run(capsys, ["solve", sample_path, "--mode", "partial",
                                    "--seed", str(seed)])
        assert code == 0
        assert out.splitlines()[0] == "o 2"

    def test_expired_timeout_is_indeterminate(self, capsys, sample_path):
        code, out, _ = run(capsys, ["solve", sample_path, "--timeout", "0"])
        assert code == 3
        assert "s UNKNOWN" in out
        assert "c bounds" in out

    def test_interrupted_run_prints_best_grid(self, capsys, sample_path, tmp_path, monkeypatch):
        models = interrupt_after_first_model(monkeypatch)
        code, out, _ = run(capsys, ["solve", sample_path, "--format", "csv"])
        assert models
        assert code == 3
        lines = out.splitlines()
        upper = lines[0].removeprefix("o ")
        assert lines[1] == "s UNKNOWN"
        assert lines[2].startswith("c bounds ") and lines[2].split()[3] == upper
        assert lines[3].startswith("room,")
        csv_path = tmp_path / "best.csv"
        csv_path.write_text(out, encoding="utf-8")
        code, vout, _ = run(capsys, ["validate", sample_path, str(csv_path)])
        assert code == 0
        assert f"o {upper}" in vout.splitlines()
        assert "s FEASIBLE" in vout

    def test_interrupted_best_model_is_checked(self, capsys, sample_path, monkeypatch):
        interrupt_after_first_model(monkeypatch)
        monkeypatch.setattr(cli, "compute_cost", lambda *args: types.SimpleNamespace(total_cost=-1))
        code, out, err = run(capsys, ["solve", sample_path])
        assert code == 4
        assert "solver/validator mismatch" in err
        assert out == ""

    def test_timeout_covers_encoding(self, capsys, micro_path, monkeypatch):
        encode = cli.encode

        def slow_encode(*args):
            time.sleep(0.3)
            return encode(*args)

        monkeypatch.setattr(cli, "encode", slow_encode)
        code, out, _ = run(capsys, ["solve", micro_path, "--timeout", "0.2"])
        assert code == 3
        assert "s UNKNOWN" in out


class TestUnknownFlags:
    @pytest.mark.parametrize("argv", [
        ["solve", "x.json", "--portfolio"],
        ["solve", "x.json", "--card", "pairwise"],
        ["encode", "x.json", "-o", "x.wcnf", "--card", "pairwise"],
        ["validate", "x.json", "x.csv", "--card", "seqcounter"],
        ["solve", "x.json", "--solver", "external"],
        ["solve", "x.json", "--check"],
        ["solve", "x.json", "--save-wcnf", "x.wcnf"],
    ])
    def test_unknown_argument(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestEncode:
    def test_writes_wcnf_and_sidecar(self, capsys, sample_path, tmp_path):
        target = tmp_path / "out.wcnf"
        code, _, err = run(capsys, ["encode", sample_path, "-o", str(target)])
        assert code == 0
        formula = parse_dimacs(target.read_text(encoding="utf-8"))
        assert formula.num_vars == 188
        assert formula.top == 1603
        sidecar = (tmp_path / "out.wcnf.map").read_text(encoding="utf-8").splitlines()
        assert len(sidecar) == 188
        assert sidecar[0] == "var 1 ct(CS101/lecture, t1)"

    def test_weighted_mode_weights(self, capsys, sample_path, tmp_path):
        target = tmp_path / "w.wcnf"
        run(capsys, ["encode", sample_path, "-o", str(target)])
        formula = parse_dimacs(target.read_text(encoding="utf-8"))
        weights = set(formula.soft_weights)
        assert {20, 10} <= weights

    def test_partial_mode_weights_all_one(self, capsys, sample_path, tmp_path):
        target = tmp_path / "p.wcnf"
        run(capsys, ["encode", sample_path, "-o", str(target), "--mode", "partial"])
        formula = parse_dimacs(target.read_text(encoding="utf-8"))
        assert set(formula.soft_weights) == {1}

    def test_parse_failure_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        code, _, err = run(capsys, ["encode", str(bad), "-o", str(tmp_path / "x.wcnf")])
        assert code == 2


class TestValidate:
    def test_solver_csv_round_trip(self, capsys, sample_path, tmp_path):
        _, out, _ = run(capsys, ["solve", sample_path, "--format", "csv"])
        csv_path = tmp_path / "tt.csv"
        csv_path.write_text(out, encoding="utf-8")
        code, vout, _ = run(capsys, ["validate", sample_path, str(csv_path)])
        assert code == 0
        assert "o 10" in vout
        assert "s FEASIBLE" in vout

    def test_double_booking_detected(self, capsys, sample_path, tmp_path):
        _, out, _ = run(capsys, ["solve", sample_path, "--format", "csv"])
        grid = out[out.index("room,") :]
        lines = grid.splitlines()
        # move the first occupied cell's session onto another occupied cell
        row = next(i for i, l in enumerate(lines[1:], start=1) if l.count(".") >= 2)
        cells = lines[row].split(",")
        occupied = [i for i, c in enumerate(cells) if c.strip() and i > 0]
        a, b = occupied[0], occupied[1]
        cells[b] = cells[b] + " + " + cells[a]
        cells[a] = ""
        lines[row] = ",".join(cells)
        csv_path = tmp_path / "edited.csv"
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, vout, _ = run(capsys, ["validate", sample_path, str(csv_path)])
        assert code == 1
        assert "hard RoomClash" in vout
        assert "s INFEASIBLE" in vout

    def test_missing_session_exit_2(self, capsys, sample_path, tmp_path):
        _, out, _ = run(capsys, ["solve", sample_path, "--format", "csv"])
        edited = out.replace("CS101 lect.", "", 1)
        csv_path = tmp_path / "short.csv"
        csv_path.write_text(edited, encoding="utf-8")
        code, _, err = run(capsys, ["validate", sample_path, str(csv_path)])
        assert code == 2
        assert "not total" in err

    def test_oversized_cell_exit_2(self, capsys, sample_path, tmp_path):
        csv_path = tmp_path / "big.csv"
        csv_path.write_text("room," + "x" * 200_000 + "\n", encoding="utf-8")
        code, out, err = run(capsys, ["validate", sample_path, str(csv_path)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: malformed CSV: field larger than field limit")


class TestInputErrors:
    @pytest.mark.parametrize("command, instance, grid, message", [
        ("solve", sample_text().replace('"students": ', '"students": -'), None,
         "registration #0: students must be positive"),
        ("validate", sample_text(), "room,t1\nr9,CS101 lect.\n", "unknown room 'r9'"),
    ], ids=["instance", "timetable"])
    def test_exit_2(self, capsys, tmp_path, command, instance, grid, message):
        argv = [command, str(tmp_path / "instance.json")]
        (tmp_path / "instance.json").write_text(instance, encoding="utf-8")
        if grid is not None:
            argv.append(str(tmp_path / "grid.csv"))
            (tmp_path / "grid.csv").write_text(grid, encoding="utf-8")
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"


class TestGen:
    ARGS = ["gen", "--seed", "7", "--days", "2", "--slots-per-day", "2",
            "--rooms", "2", "--courses", "3", "--curricula", "2", "--density", "0.5"]

    def test_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(self.ARGS + ["-o", str(a)]) == 0
        assert main(self.ARGS + ["-o", str(b)]) == 0
        assert a.read_text(encoding="utf-8") == b.read_text(encoding="utf-8")

    def test_generated_solves(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        assert main(self.ARGS + ["-o", str(path)]) == 0
        capsys.readouterr()
        code, out, _ = run(capsys, ["solve", str(path)])
        assert code in (0, 1)

    def test_invalid_params_exit_2(self, capsys):
        code, _, err = run(capsys, ["gen", "--seed", "1", "--courses", "1",
                                    "--curricula", "3"])
        assert code == 2
        assert "must not exceed" in err


class TestSolveWcnf:
    def test_outputs_evaluation_format(self, capsys, tmp_path):
        wcnf = tmp_path / "f.wcnf"
        wcnf.write_text("p wcnf 3 4 8\n8 1 -2 0\n8 -1 3 0\n3 2 3 0\n4 -3 0\n",
                        encoding="utf-8")
        code, out, _ = run(capsys, ["solve-wcnf", str(wcnf)])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "o 3"
        assert lines[1] == "s OPTIMUM FOUND"
        assert lines[2].startswith("v ") and lines[2].endswith(" 0")

    def test_line_ends_are_made_lf_before_parsing(self, capsys, tmp_path, monkeypatch):
        # the text-mode read turns CRLF and CR into "\n": parse_dimacs sees
        # the same text, and the output is the same, whatever the line ends
        texts = []

        def spy(text):
            texts.append(text)
            return parse_dimacs(text)

        monkeypatch.setattr(cli, "parse_dimacs", spy)
        lf = "c a comment\np wcnf 3 4 8\n8 1 -2 0\n8 -1 3 0\n3 2 3 0\n4 -3 0\n"
        outs = []
        for eol in ("\n", "\r\n", "\r"):
            wcnf = tmp_path / "f.wcnf"
            wcnf.write_bytes(lf.replace("\n", eol).encode())
            code, out, _ = run(capsys, ["solve-wcnf", str(wcnf)])
            assert code == 0
            outs.append(out)
        assert outs[0].startswith("o 3\ns OPTIMUM FOUND\n")
        assert outs == [outs[0]] * 3
        assert texts == [lf] * 3

    def test_unsat_wcnf(self, capsys, tmp_path):
        wcnf = tmp_path / "u.wcnf"
        wcnf.write_text("p wcnf 1 2 2\n2 1 0\n2 -1 0\n", encoding="utf-8")
        code, out, _ = run(capsys, ["solve-wcnf", str(wcnf)])
        assert code == 1
        assert "s UNSATISFIABLE" in out

    def test_unknown_prints_bounds(self, capsys, tmp_path, monkeypatch):
        wcnf = tmp_path / "f.wcnf"
        wcnf.write_text("p wcnf 1 1 2\n1 1 0\n", encoding="utf-8")
        monkeypatch.setattr(cli, "solve_maxsat", gives_up(3))
        code, out, _ = run(capsys, ["solve-wcnf", str(wcnf)])
        assert code == 3
        assert out == "s UNKNOWN\nc bounds 3 ?\n"

    def test_interrupted_run_prints_best_model(self, capsys, tmp_path, monkeypatch):
        wcnf = tmp_path / "f.wcnf"
        wcnf.write_text("p wcnf 3 4 8\n8 1 -2 0\n8 -1 3 0\n3 2 3 0\n4 -3 0\n",
                        encoding="utf-8")
        models = interrupt_after_first_model(monkeypatch)
        code, out, _ = run(capsys, ["solve-wcnf", str(wcnf)])
        assert models
        assert code == 3
        o_line, s_line, bounds, v_line = out.splitlines()
        assert s_line == "s UNKNOWN"
        assert bounds.split()[3] == o_line.split()[1]
        formula = parse_dimacs(wcnf.read_text(encoding="utf-8"))
        lits = [int(t) for t in v_line.split()[1:-1]]
        assignment = {abs(l): l > 0 for l in lits}
        assert formula.hard_satisfied(assignment)
        assert o_line == f"o {formula.falsified_weight(assignment)}"

    def test_hard_violating_model_exit_4(self, capsys, tmp_path, monkeypatch):
        wcnf = tmp_path / "f.wcnf"
        wcnf.write_text(write_dimacs(HARD_VIOLATED_BY_ALL_FALSE), encoding="utf-8")
        answer_all_false(monkeypatch)
        code, out, err = run(capsys, ["solve-wcnf", str(wcnf)])
        assert code == 4
        assert "s OPTIMUM FOUND" not in out
        assert "violates a hard clause" in err

    def test_timeout_covers_parsing(self, capsys, tmp_path, monkeypatch):
        def slow_parse(text):
            time.sleep(0.3)
            return parse_dimacs(text)

        wcnf = tmp_path / "f.wcnf"
        wcnf.write_text("p wcnf 1 1 2\n1 1 0\n", encoding="utf-8")
        monkeypatch.setattr(cli, "parse_dimacs", slow_parse)
        code, out, _ = run(capsys, ["solve-wcnf", str(wcnf), "--timeout", "0.2"])
        assert code == 3
        assert out.startswith("s UNKNOWN\n")

    def test_bad_file_exit_2(self, capsys, tmp_path):
        wcnf = tmp_path / "bad.wcnf"
        wcnf.write_text("p wcnf 1 2 2\n2 1\n", encoding="utf-8")
        code, _, _ = run(capsys, ["solve-wcnf", str(wcnf)])
        assert code == 2

    @pytest.mark.parametrize("text", [
        "p wcnf 2 1 5\n2 0\n",
        "p wcnf 2 1 5\n0 1 0\n",
        "p wcnf 2 1 5\n2 1 0 2 0\n",
        "p wcnf 2 1 5\n2 1 -1 0\n",
        "p wcnf 2 1 5\n2 3 0\n",
        "h 0\n",
    ], ids=["empty-clause", "weight-0", "inner-0", "repeated-variable",
            "beyond-header", "headerless-empty"])
    def test_malformed_clause_exit_2(self, capsys, tmp_path, text):
        with pytest.raises(CnfError):
            parse_dimacs(text)
        wcnf = tmp_path / "bad.wcnf"
        wcnf.write_text(text, encoding="utf-8")
        code, _, err = run(capsys, ["solve-wcnf", str(wcnf)])
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("text", [f"p wcnf {2**63} 1 5\n5 1 0\n", f"h {2**63} 0\n"],
                             ids=["header", "headerless"])
    def test_num_vars_past_int64_exit_2(self, capsys, tmp_path, text):
        wcnf = tmp_path / "big.wcnf"
        wcnf.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, ["solve-wcnf", str(wcnf)])
        assert code == 2
        assert out == ""
        assert err == f"error: num_vars={2**63} does not fit in int64, as every literal must\n"

    def test_num_vars_too_many_for_the_solver_exit_2(self, capsys, tmp_path):
        # 2**62 variables fit int64 but no list the solver could allocate
        wcnf = tmp_path / "big.wcnf"
        wcnf.write_text(f"p wcnf {2**62} 1 2\n1 1 0\n", encoding="utf-8")
        code, out, err = run(capsys, ["solve-wcnf", str(wcnf)])
        assert code == 2
        assert out == ""
        assert err == f"error: cannot allocate {2**62 + 1} variables for the builtin solver\n"


class TestUnwritableOutput:
    @pytest.mark.parametrize("command", ["encode", "gen", "sample"])
    def test_missing_directory_exit_2(self, capsys, sample_path, tmp_path, command):
        out = str(tmp_path / "missing" / "out")
        argv = {
            "encode": ["encode", sample_path, "-o", out],
            "gen": ["gen", "--seed", "1", "-o", out],
            "sample": ["sample", "-o", out],
        }[command]
        code, stdout, err = run(capsys, argv)
        assert code == 2
        assert stdout == ""
        errors = [l for l in err.splitlines() if not l.startswith("warning:")]
        assert len(errors) == 1
        assert errors[0].startswith("error:") and out in errors[0]


class TestSample:
    def test_prints_instance(self, capsys):
        code, out, _ = run(capsys, ["sample"])
        assert code == 0
        assert json.loads(out)["curricula"] == ["k1", "k2", "k3", "k4"]
