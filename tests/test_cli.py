import importlib
import json

import numpy as np
import pytest

from rankregret.cli import ingest, main
from rankregret.errors import ConfigError, ConstantAttribute, NoUsableRows

from conftest import FIG1_VALUES

FIG1_CSV = "x1,x2\n" + "\n".join(f"{a},{b}" for a, b in FIG1_VALUES) + "\n"


@pytest.fixture
def fig1_csv(tmp_path):
    path = tmp_path / "fig1.csv"
    path.write_text(FIG1_CSV)
    return str(path)


class TestIngest:
    def test_basic(self, fig1_csv):
        result = ingest(fig1_csv)
        assert result.dataset.n == 7 and result.dataset.d == 2
        assert result.columns == ["x1", "x2"]
        assert result.dropped_rows == 0
        assert np.allclose(result.raw_values, FIG1_VALUES)

    def test_missing_value_row_dropped(self, tmp_path, caplog):
        path = tmp_path / "gaps.csv"
        path.write_text("a,b\n1,2\n3,\n5,6\n")
        result = ingest(str(path))
        assert result.dataset.n == 2
        assert result.dropped_rows == 1
        assert [r.getMessage() for r in caplog.records] == [
            "dropped 1 rows with missing or non-numeric values"]

    def test_diagnostics_reach_stderr_as_plain_lines(self, tmp_path, capsys):
        path = tmp_path / "gaps.csv"
        path.write_text("a,b\n1,2\n3,\n5,6\n")
        assert main(["solve", str(path), "--algo", "2drrr", "--k", "1",
                     "--seed", "0"]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "dropped 1 rows with missing or non-numeric values"]

    def test_constant_column_named(self, tmp_path):
        path = tmp_path / "const.csv"
        path.write_text("good,flat\n1,5\n2,5\n")
        with pytest.raises(ConstantAttribute, match="flat"):
            ingest(str(path))

    def test_unknown_column(self, fig1_csv):
        with pytest.raises(ConfigError):
            ingest(fig1_csv, cols=["nope"])

    def test_column_selection_and_directions(self, tmp_path):
        path = tmp_path / "three.csv"
        path.write_text("a,b,c\n1,9,100\n2,8,50\n3,7,0\n")
        result = ingest(str(path), cols=["a", "c"], dirs=["higher", "lower"])
        assert result.dataset.d == 2
        # lower-preferred c: the smallest raw value normalizes to 1
        assert result.dataset.values[2, 1] == 1.0

    def test_tab_delimiter_autodetected(self, tmp_path):
        path = tmp_path / "tabs.tsv"
        path.write_text("a\tb\n1\t2\n3\t4\n")
        assert ingest(str(path)).dataset.n == 2

    def test_all_rows_unusable(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\nx,y\n")
        with pytest.raises(NoUsableRows):
            ingest(str(path))


class TestSolve:
    def test_2drrr_fig1(self, fig1_csv, tmp_path, capsys):
        out = tmp_path / "rep.json"
        code = main(["solve", fig1_csv, "--algo", "2drrr", "--k", "2",
                     "--seed", "0", "-o", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["member_ids"] == [0, 2]  # {t1, t3}
        assert payload["evaluation"]["rank_regret"] == 2
        assert payload["evaluation"]["exact"] is True
        assert payload["member_rows"] == [[0.80, 0.28], [0.67, 0.60]]

    def test_mdrc_k_equals_n(self, fig1_csv, capsys):
        code = main(["solve", fig1_csv, "--algo", "mdrc", "--k", "7",
                     "--seed", "0"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["member_ids"]) == 1
        assert payload["params"]["corners"] == 2  # the root's two ends

    def test_mdrc_box_budget_reported(self, fig1_csv, tmp_path, capsys,
                                      monkeypatch):
        assert main(["solve", fig1_csv, "--algo", "mdrc", "--k", "2",
                     "--seed", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["bound_guaranteed"] is True
        assert payload["params"]["stopped"] == "complete"
        assert payload["params"]["depth_cap"] == 48
        # k=1 on uniform 3-D data splits along every top-1 boundary
        path = tmp_path / "uniform3.csv"
        np.savetxt(path, np.random.default_rng(0).random((50, 3)),
                   delimiter=",", header="a,b,c", comments="")
        monkeypatch.setattr(importlib.import_module("rankregret.mdrc"),
                            "MAX_BOXES", 200)
        assert main(["solve", str(path), "--algo", "mdrc", "--k", "1",
                     "--seed", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["bound_guaranteed"] is False
        params = payload["params"]
        assert params["stopped"] == "budget" and params["max_boxes"] == 200
        assert 0 < params["capped_leaves"] <= params["leaves"] <= 200

    def test_k_pct(self, fig1_csv, capsys):
        code = main(["solve", fig1_csv, "--algo", "mdrc", "--k-pct", "30",
                     "--seed", "0"])
        assert code == 0  # ceil(0.3 * 7) = 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["params"]["k"] == 3

    def test_seed_generated_and_printed(self, fig1_csv, capsys):
        code = main(["solve", fig1_csv, "--algo", "mdrc", "--k", "2"])
        assert code == 0
        err = capsys.readouterr().err
        assert "seed:" in err

    def test_reproducible_for_fixed_seed(self, fig1_csv, capsys):
        argv = ["solve", fig1_csv, "--algo", "mdrrr", "--source", "random",
                "--k", "2", "--seed", "42"]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        # identical up to measured wall time
        first["evaluation"].pop("wall_time_seconds")
        second["evaluation"].pop("wall_time_seconds")
        assert first == second


class TestKsets:
    def test_sweep_source(self, fig1_csv, capsys):
        code = main(["ksets", fig1_csv, "--source", "sweep2d", "--k", "2"])
        assert code == 0
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        assert len(lines) == 3
        members = {line.split(";")[1] for line in lines}
        assert members == {"members=0,6", "members=2,6", "members=2,4"}
        assert "3 k-sets (complete=True)" in captured.err

    def test_random_source_to_file(self, fig1_csv, tmp_path):
        out = tmp_path / "sets.txt"
        code = main(["ksets", fig1_csv, "--source", "random", "--k", "2",
                     "--seed", "1", "-o", str(out)])
        assert code == 0
        assert len(out.read_text().strip().splitlines()) == 3

    def test_kset_file_feeds_the_hitting_solver(self, fig1_csv, tmp_path,
                                                capsys):
        sets_path = tmp_path / "sets.txt"
        assert main(["ksets", fig1_csv, "--source", "sweep2d", "--k", "2",
                     "-o", str(sets_path)]) == 0
        capsys.readouterr()
        code = main(["solve", fig1_csv, "--algo", "mdrrr", "--k", "2",
                     "--ksets-file", str(sets_path), "--seed", "0"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["params"]["kset_source"] == "file"
        assert payload["evaluation"]["rank_regret"] <= 2

    def test_random_kset_file_solves_like_one_run(self, tmp_path, capsys):
        # collecting to a file and solving from it derives the collector
        # and the net generators from the seed as one mdrrr run does
        path = tmp_path / "three.csv"
        np.savetxt(path, np.random.default_rng(5).random((80, 3)),
                   delimiter=",", header="a,b,c", comments="")
        sets_path = tmp_path / "sets.txt"
        common = ["--k", "3", "--c", "20", "--samples", "20"]
        for seed in ("1", "2", "3"):
            assert main(["ksets", str(path), "--source", "random", "--k", "3",
                         "--c", "20", "--seed", seed, "-o", str(sets_path)]) == 0
            summary = capsys.readouterr().err
            assert main(["solve", str(path), "--algo", "mdrrr", *common,
                         "--ksets-file", str(sets_path), "--seed", seed]) == 0
            from_file = json.loads(capsys.readouterr().out)
            assert main(["solve", str(path), "--algo", "mdrrr", *common,
                         "--source", "random", "--seed", seed]) == 0
            one_run = json.loads(capsys.readouterr().out)
            assert from_file["member_ids"] == one_run["member_ids"]
            assert (from_file["params"]["collection_size"]
                    == one_run["params"]["collection_size"])
            assert f"draws={one_run['params']['draws']})" in summary
            assert from_file["params"]["draws"] is None
            assert one_run["params"]["lps"] is None

    def test_graph_kset_file_solves_like_one_run(self, tmp_path, capsys):
        # the graph's LP and filter counts reach the ksets summary and the
        # solve params; a collection read back from a file has neither
        path = tmp_path / "three.csv"
        np.savetxt(path, np.random.default_rng(6).random((12, 3)),
                   delimiter=",", header="a,b,c", comments="")
        sets_path = tmp_path / "sets.txt"
        common = ["--k", "2", "--samples", "20", "--seed", "4"]
        assert main(["ksets", str(path), "--source", "graph", "--k", "2",
                     "-o", str(sets_path)]) == 0
        summary = capsys.readouterr().err
        assert main(["solve", str(path), "--algo", "mdrrr", *common,
                     "--ksets-file", str(sets_path)]) == 0
        from_file = json.loads(capsys.readouterr().out)
        assert main(["solve", str(path), "--algo", "mdrrr", *common,
                     "--source", "graph"]) == 0
        one_run = json.loads(capsys.readouterr().out)
        params = one_run["params"]
        assert from_file["member_ids"] == one_run["member_ids"]
        assert summary.startswith(
            f"{params['collection_size']} k-sets (complete=True, "
            f"lps={params['lps']}, filtered={params['filtered']})")
        assert params["lps"] > 0 and params["draws"] is None
        assert from_file["params"]["lps"] is None
        assert from_file["params"]["filtered"] is None

    def test_kset_file_k_mismatch_is_config_error(self, fig1_csv, tmp_path,
                                                  capsys):
        sets_path = tmp_path / "sets.txt"
        assert main(["ksets", fig1_csv, "--source", "sweep2d", "--k", "2",
                     "-o", str(sets_path)]) == 0
        capsys.readouterr()
        code = main(["solve", fig1_csv, "--algo", "mdrrr", "--k", "3",
                     "--ksets-file", str(sets_path), "--seed", "0"])
        assert code == 3

    @staticmethod
    def solve_from_lines(fig1_csv, tmp_path, capsys, text):
        sets_path = tmp_path / "sets.txt"
        sets_path.write_text(text)
        code = main(["solve", fig1_csv, "--algo", "mdrrr", "--k", "2",
                     "--ksets-file", str(sets_path), "--seed", "0"])
        return code, json.loads(capsys.readouterr().out)

    def test_kset_line_without_members_is_input_error(self, fig1_csv, tmp_path,
                                                      capsys):
        code, payload = self.solve_from_lines(
            fig1_csv, tmp_path, capsys, "k=2;members=0,2\nk=2;witness=0.5,0.5\n")
        assert code == 2
        assert payload["error"] == "MalformedKSetFile"
        assert payload["exit_code"] == 2
        assert payload["message"] == "k-set line 2 has no members= field"

    def test_kset_non_integer_id_is_input_error(self, fig1_csv, tmp_path,
                                                capsys):
        code, payload = self.solve_from_lines(
            fig1_csv, tmp_path, capsys, "k=2;members=0,x\n")
        assert code == 2
        assert payload["error"] == "MalformedKSetFile"
        assert payload["message"].startswith("k-set line 1: ")

    def test_kset_id_out_of_range_is_input_error(self, fig1_csv, tmp_path,
                                                 capsys):
        code, payload = self.solve_from_lines(
            fig1_csv, tmp_path, capsys, "k=2;members=0,2\nk=2;members=3,7\n")
        assert code == 2
        assert payload["error"] == "MalformedKSetFile"
        assert "[0, 7)" in payload["message"] and "[7]" in payload["message"]


class TestEval:
    def test_members_flag(self, fig1_csv, capsys):
        code = main(["eval", fig1_csv, "--members", "2,0", "--seed", "0"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rank_regret"] == 2 and payload["exact"] is True

    def test_members_file(self, fig1_csv, tmp_path, capsys):
        rep = tmp_path / "rep.json"
        assert main(["solve", fig1_csv, "--algo", "2drrr", "--k", "2",
                     "--seed", "0", "-o", str(rep)]) == 0
        capsys.readouterr()
        code = main(["eval", fig1_csv, "--members-file", str(rep),
                     "--seed", "0"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["member_ids"] == [0, 2]


    def test_estimate_matches_solve_for_the_same_seed(self, tmp_path, capsys):
        # both commands draw the estimate's functions from the same seed
        rng = np.random.default_rng(3)
        path = tmp_path / "three.csv"
        np.savetxt(path, rng.random((60, 3)), delimiter=",", header="a,b,c",
                   comments="")
        rep = tmp_path / "rep.json"
        for seed in ("1", "2", "3"):
            assert main(["solve", str(path), "--algo", "mdrc", "--k", "3",
                         "--samples", "8", "--seed", seed, "-o", str(rep)]) == 0
            solved = json.loads(rep.read_text())
            capsys.readouterr()
            assert main(["eval", str(path), "--members-file", str(rep),
                         "--samples", "8", "--seed", seed]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["exact"] is False and payload["samples"] == 8
            assert payload["rank_regret"] == solved["evaluation"]["rank_regret"]


class TestDualAndBench:
    def test_dual(self, fig1_csv, capsys):
        code = main(["dual", fig1_csv, "--size-budget", "2",
                     "--algo", "2drrr", "--seed", "0"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["k"] == 2
        assert len(payload["member_ids"]) <= 2

    def test_bench_writes_artifacts(self, fig1_csv, tmp_path, capsys):
        jsonl = tmp_path / "runs.jsonl"
        table = tmp_path / "runs.csv"
        code = main(["bench", fig1_csv, "--algos", "2drrr,mdrc", "--ks", "2",
                     "--seeds", "0,1", "--samples", "200",
                     "--jsonl", str(jsonl), "--csv", str(table)])
        assert code == 0
        assert len(jsonl.read_text().strip().splitlines()) == 4
        rows = table.read_text().strip().splitlines()
        assert rows[0].startswith("algorithm,")
        assert len(rows) == 5


class TestExitCodes:
    def test_missing_file_is_input_error(self, capsys):
        code = main(["solve", "/nonexistent.csv", "--algo", "mdrc", "--k", "2",
                     "--seed", "0"])
        assert code == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "FileNotFoundError"

    def test_2drrr_needs_2d(self, tmp_path, capsys):
        path = tmp_path / "three.csv"
        path.write_text("a,b,c\n1,2,3\n4,5,6\n7,8,9\n")
        code = main(["solve", str(path), "--algo", "2drrr", "--k", "1",
                     "--seed", "0"])
        assert code == 3
        assert json.loads(capsys.readouterr().out)["error"] == "ConfigError"
        # the exact 2-D k-set sweep is refused the same way
        for argv in (["ksets", str(path), "--source", "sweep2d", "--k", "1"],
                     ["solve", str(path), "--algo", "mdrrr", "--source",
                      "sweep2d", "--k", "1", "--seed", "0"]):
            assert main(argv) == 3
            assert json.loads(capsys.readouterr().out)["error"] == "DimensionNot2D"

    def test_k_out_of_range_is_config_error(self, fig1_csv, capsys):
        code = main(["solve", fig1_csv, "--algo", "mdrc", "--k", "0",
                     "--seed", "0"])
        assert code == 3

    def test_constant_column_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "const.csv"
        path.write_text("good,flat\n1,5\n2,5\n")
        code = main(["solve", str(path), "--algo", "mdrc", "--k", "1",
                     "--seed", "0"])
        assert code == 2
        payload = json.loads(capsys.readouterr().out)
        assert "flat" in payload["message"]
