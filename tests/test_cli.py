import json
import sys

import pytest

from ttsat import cli
from ttsat.cli import main
from ttsat.cnf import parse_dimacs
from ttsat.decode import DecodeError
from ttsat.sample import sample_text
from ttsat.solver import MaxSatResult, MaxSatStatus

EXTERNAL_SELF = f"{sys.executable} -m ttsat solve-wcnf {{input}}"
EXTERNAL_UNKNOWN = f"{sys.executable} -c \"print('s UNKNOWN')\""
EXTERNAL_UNSAT = f"{sys.executable} -c \"print('s UNSATISFIABLE')\""


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


def gives_up(lower, upper):
    """Stand-in for solve_maxsat that returns INDETERMINATE with these bounds."""
    return lambda formula, cfg: MaxSatResult(MaxSatStatus.INDETERMINATE, bounds=(lower, upper))


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

    def test_external_backend_agrees(self, capsys, sample_path):
        code, out, _ = run(capsys, [
            "solve", sample_path, "--solver", "external",
            "--external-cmd", EXTERNAL_SELF,
        ])
        assert code == 0
        assert out.splitlines()[0] == "o 10"

    def test_external_without_command(self, capsys, sample_path, monkeypatch):
        monkeypatch.delenv("TTSAT_EXTERNAL_SOLVER", raising=False)
        code, _, err = run(capsys, ["solve", sample_path, "--solver", "external"])
        assert code == 2
        assert "external" in err

    def test_external_env_var(self, capsys, micro_path, monkeypatch):
        monkeypatch.setenv("TTSAT_EXTERNAL_SOLVER", EXTERNAL_SELF)
        code, out, _ = run(capsys, ["solve", micro_path, "--solver", "external"])
        assert code in (0, 1)

    def test_portfolio_agreement(self, capsys, micro_path):
        code, out, _ = run(capsys, [
            "solve", micro_path, "--portfolio", "--external-cmd", EXTERNAL_SELF,
        ])
        assert code in (0, 1)

    def test_decode_failure_is_internal_exit_4(self, capsys, micro_path, monkeypatch):
        def broken(*args):
            raise DecodeError("session 'c1/lecture' has 0 true timeslot variables")

        monkeypatch.setattr(cli, "decode_timetable", broken)
        code, out, err = run(capsys, ["solve", micro_path])
        assert code == 4
        assert "true timeslot variables" in err
        assert "s OPTIMUM FOUND" not in out

    def test_check_flag_on_micro(self, capsys, micro_path):
        code, out, _ = run(capsys, ["solve", micro_path, "--check"])
        assert code in (0, 1)

    def test_check_flag_skipped_when_large(self, capsys, sample_path):
        code, _, err = run(capsys, ["solve", sample_path, "--check"])
        assert code == 0
        assert "--check skipped" in err

    def test_save_wcnf(self, capsys, sample_path, tmp_path):
        target = tmp_path / "saved.wcnf"
        code, _, _ = run(capsys, ["solve", sample_path, "--save-wcnf", str(target)])
        assert code == 0
        assert target.exists() and (tmp_path / "saved.wcnf.map").exists()

    def test_seed_does_not_change_cost(self, capsys, sample_path):
        _, out_a, _ = run(capsys, ["solve", sample_path, "--seed", "1"])
        _, out_b, _ = run(capsys, ["solve", sample_path, "--seed", "2"])
        assert out_a.splitlines()[0] == out_b.splitlines()[0] == "o 10"

    def test_partial_mode_cost(self, capsys, sample_path):
        code, out, _ = run(capsys, ["solve", sample_path, "--mode", "partial"])
        assert code == 0
        assert out.splitlines()[0] == "o 2"

    def test_alternate_card_scheme_same_cost(self, capsys, sample_path):
        code, out, _ = run(capsys, ["solve", sample_path, "--card", "seqcounter"])
        assert code == 0
        assert out.splitlines()[0] == "o 10"

    def test_expired_timeout_is_indeterminate(self, capsys, sample_path):
        code, out, _ = run(capsys, ["solve", sample_path, "--timeout", "0"])
        assert code == 3
        assert "s UNKNOWN" in out
        assert "c bounds" in out


class TestPortfolio:
    def test_external_unknown_keeps_builtin_optimum(self, capsys, micro_path):
        code, out, err = run(capsys, [
            "solve", micro_path, "--portfolio", "--external-cmd", EXTERNAL_UNKNOWN,
        ])
        assert code == 0
        lines = out.splitlines()
        assert lines[:2] == ["o 0", "s OPTIMUM FOUND"]
        assert lines[3].startswith("room")
        assert "external solver undecided" in err

    def test_builtin_indeterminate_defers_to_external(self, capsys, micro_path, monkeypatch):
        monkeypatch.setattr(cli, "solve_maxsat", gives_up(0, None))
        code, out, _ = run(capsys, [
            "solve", micro_path, "--portfolio", "--external-cmd", EXTERNAL_SELF,
        ])
        assert code == 0
        assert out.splitlines()[:2] == ["o 0", "s OPTIMUM FOUND"]

    def test_both_undecided_exit_3_with_bounds(self, capsys, micro_path, monkeypatch):
        monkeypatch.setattr(cli, "solve_maxsat", gives_up(3, 7))
        code, out, _ = run(capsys, [
            "solve", micro_path, "--portfolio", "--external-cmd", EXTERNAL_UNKNOWN,
        ])
        assert code == 3
        assert out == "s UNKNOWN\nc bounds 3 7\n"

    def test_conclusive_disagreement_exit_4(self, capsys, micro_path):
        code, out, err = run(capsys, [
            "solve", micro_path, "--portfolio", "--external-cmd", EXTERNAL_UNSAT,
        ])
        assert code == 4
        assert "portfolio disagreement" in err
        assert out == ""


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
        weights = {c.weight for c in formula.soft_clauses}
        assert {20, 10} <= weights

    def test_partial_mode_weights_all_one(self, capsys, sample_path, tmp_path):
        target = tmp_path / "p.wcnf"
        run(capsys, ["encode", sample_path, "-o", str(target), "--mode", "partial"])
        formula = parse_dimacs(target.read_text(encoding="utf-8"))
        assert {c.weight for c in formula.soft_clauses} == {1}

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

    def test_unsat_wcnf(self, capsys, tmp_path):
        wcnf = tmp_path / "u.wcnf"
        wcnf.write_text("p wcnf 1 2 2\n2 1 0\n2 -1 0\n", encoding="utf-8")
        code, out, _ = run(capsys, ["solve-wcnf", str(wcnf)])
        assert code == 1
        assert "s UNSATISFIABLE" in out

    def test_unknown_prints_bounds(self, capsys, tmp_path, monkeypatch):
        wcnf = tmp_path / "f.wcnf"
        wcnf.write_text("p wcnf 1 1 2\n1 1 0\n", encoding="utf-8")
        monkeypatch.setattr(cli, "solve_maxsat", gives_up(3, 7))
        code, out, _ = run(capsys, ["solve-wcnf", str(wcnf)])
        assert code == 3
        assert out == "s UNKNOWN\nc bounds 3 7\n"

    def test_bad_file_exit_2(self, capsys, tmp_path):
        wcnf = tmp_path / "bad.wcnf"
        wcnf.write_text("p wcnf 1 2 2\n2 1\n", encoding="utf-8")
        code, _, _ = run(capsys, ["solve-wcnf", str(wcnf)])
        assert code == 2


class TestSample:
    def test_prints_instance(self, capsys):
        code, out, _ = run(capsys, ["sample"])
        assert code == 0
        assert json.loads(out)["curricula"] == ["k1", "k2", "k3", "k4"]
