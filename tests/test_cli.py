import importlib
import json
import warnings

import numpy as np
import pytest

from rankregret import errors
from rankregret.cli import build_parser, ingest, main
from rankregret.errors import (ConfigError, ConstantAttribute, NoUsableRows,
                               RankRegretError)

from conftest import FIG1_VALUES
from oracles import ingest_by_rows

FIG1_CSV = "x1,x2\n" + "\n".join(f"{a},{b}" for a, b in FIG1_VALUES) + "\n"


@pytest.fixture
def fig1_csv(tmp_path):
    path = tmp_path / "fig1.csv"
    path.write_text(FIG1_CSV)
    return str(path)


def _random_decimals(seed, rows=60, cols=3):
    """Decimal strings of 1-20 significant digits, signed, with the point
    anywhere and an optional exponent."""
    rng = np.random.default_rng(seed)

    def number():
        text = "".join(rng.choice(list("0123456789"), rng.integers(1, 21)))
        if rng.random() < 0.8:
            point = rng.integers(0, len(text) + 1)
            text = text[:point] + "." + text[point:]
        if rng.random() < 0.5:
            sign = rng.choice(["", "+", "-"])
            text += f"{rng.choice(['e', 'E'])}{sign}{rng.integers(0, 290)}"
        return rng.choice(["", "-", "+"]) + text

    header = ",".join(f"c{j}" for j in range(cols))
    return header + "\n" + "".join(
        ",".join(number() for _ in range(cols)) + "\n" for _ in range(rows))


# (file text, ingest options) per family of input; every family is read by
# the C parse or by the per-row loop, and must read as the loop alone reads it
INGEST_FAMILIES = {
    "whitespace-line": ("a,b\n1,2\n   \n3,4\n", {}),
    "empty-field": ("a,b\n1,2\n3,\n5,6\n", {}),
    "short-row": ("a,b\n1,2\n3\n5,6\n", {}),
    "extra-trailing-field": ("a,b\n1,2,9\n3,4\n", {}),
    "trailing-delimiter": ("a,b\n1,2,\n3,4,\n", {}),
    "surrounding-spaces": ("a,b\n 1 , 2\n3 ,4 \n5,6\n", {}),
    "blank-lines": ("a,b\n1,2\n\n3,4\n\r\n5,6\n", {}),
    "quoted-number": ('a,b\n"1",2\n3,4\n5,6\n', {}),
    "quoted-delimiter-in-unselected-column": (
        'a,b,c,d\n1,",",3,4\n5,x,7,8\n', {"cols": ["a", "d"]}),
    "crlf": ("a,b\r\n1,2\r\n3,4\r\n5,6\r\n", {}),
    "cr-only": ("a,b\r1,2\r3,4\r5,6\r", {}),
    "hash-line": ("a,b\n#1,2\n3,4\n5,6\n", {}),
    "underscore": ("a,b\n1_0,2\n3,4\n5,6\n", {}),
    "fullwidth-digit": ("a,b\n\uff11,2\n3,4\n5,6\n", {}),
    "information-separator": ("a,b\n1\x1c,2\n3,4\n5,6\n", {}),
    "header-only": ("a,b\n", {}),
    "header-and-line-ends": ("a,b\n\n\r\n\r", {}),
    "cols-in-reverse-order": ("a,b,c\n1,20,300\n2,10,100\n3,30,200\n",
                              {"cols": ["c", "b", "a"]}),
    "tabs": ("a\tb\n1\t2\n3\t4\n5\t6\n", {}),
    "tabs-empty-field": ("a\tb\n1\t\t2\n3\t4\n5\t6\n", {}),
    # loadtxt refuses a line end as delimiter (TypeError); the loop reads it
    "line-end-delimiter": ("a\rb\n1\r2\n3\r4\n5\r7\n",
                           {"delimiter": "\r"}),
    **{f"random-decimals-{seed}": (_random_decimals(seed), {})
       for seed in range(4)},
}


class TestIngest:
    @pytest.mark.parametrize("text, options", INGEST_FAMILIES.values(),
                             ids=INGEST_FAMILIES)
    def test_reads_as_the_row_loop(self, text, options, tmp_path, caplog):
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode("utf-8"))

        def outcome(read):
            caplog.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # no loadtxt warning escapes
                try:
                    got = read(str(path), **options)
                except RankRegretError as exc:
                    return type(exc), str(exc), caplog.messages
            return (got.raw_values.tobytes(), got.raw_values.shape,
                    got.dropped_rows, got.columns, got.dataset.fingerprint(),
                    caplog.messages)

        assert outcome(ingest) == outcome(ingest_by_rows)

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

    def test_2drrr_reports_ranges_and_elements(self, fig1_csv, capsys):
        assert main(["solve", fig1_csv, "--algo", "2drrr", "--k", "2",
                     "--seed", "0"]) == 0
        params = json.loads(capsys.readouterr().out)["params"]
        # t1, t3, t5 and t7 hold ranges; the k-level's two groups, 0 and
        # pi/2 are points, with four segments between them
        assert (params["ranges"], params["elements"]) == (4, 7)

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

    def test_random_source_prints_a_generated_seed(self, fig1_csv, capsys):
        assert main(["ksets", fig1_csv, "--source", "random", "--k", "2"]) == 0
        captured = capsys.readouterr()
        seed = captured.err.splitlines()[0].removeprefix("seed: ")
        assert main(["ksets", fig1_csv, "--source", "random", "--k", "2",
                     "--seed", seed]) == 0
        assert capsys.readouterr().out == captured.out

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

    def test_kset_non_finite_witness_is_input_error(self, fig1_csv, tmp_path,
                                                    capsys):
        code, payload = self.solve_from_lines(
            fig1_csv, tmp_path, capsys,
            "k=2;members=0,2;witness=0.6,0.8\nk=2;members=1,2;witness=nan,1\n")
        assert code == 2
        assert payload["error"] == "MalformedKSetFile"
        assert payload["message"] == \
            "k-set line 2: weights contain non-finite values"

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

    def test_bench_takes_no_output_or_seed_flag(self, fig1_csv, tmp_path,
                                                capsys):
        # bench writes --jsonl/--csv and runs --seeds; -o is refused, and
        # argparse reads --seed as an abbreviation of --seeds
        out = tmp_path / "out.jsonl"
        argv = ["bench", fig1_csv, "--algos", "2drrr", "--ks", "1"]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "-o", str(out)])
        assert exc.value.code == 2 and not out.exists()
        assert "unrecognized arguments: -o" in capsys.readouterr().err
        assert main([*argv, "--seed", "9"]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 9


class TestParser:
    @pytest.mark.parametrize("argv", [
        ["solve", "f.csv", "--algo", "mdrrr", "--k", "2", "--source", "random"],
        ["ksets", "f.csv", "--source", "graph", "--k-pct", "5"],
        ["eval", "f.csv", "--members", "0,1", "--eval", "exact"],
        ["dual", "f.csv", "--size-budget", "2", "--seed", "3"],
        ["bench", "f.csv", "--ks", "1,2", "--seed", "4"],
    ])
    def test_one_command_parser_reads_like_the_full_one(self, argv):
        # main builds only the subparser argv[0] names; its namespace and
        # the usage line of top-level errors are those of the full parser
        one, full = build_parser(argv[0]), build_parser()
        assert vars(one.parse_args(argv)) == vars(full.parse_args(argv))
        assert one.format_usage() == full.format_usage()


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
        # the 2-D solver and the exact 2-D k-set sweep refuse it the same way
        for argv in (["solve", str(path), "--algo", "2drrr", "--k", "1",
                      "--seed", "0"],
                     ["dual", str(path), "--size-budget", "1", "--algo",
                      "2drrr", "--seed", "0"],
                     ["ksets", str(path), "--source", "sweep2d", "--k", "1"],
                     ["solve", str(path), "--algo", "mdrrr", "--source",
                      "sweep2d", "--k", "1", "--seed", "0"]):
            assert main(argv) == 3
            assert json.loads(capsys.readouterr().out)["error"] == "DimensionNot2D"

    @pytest.mark.parametrize("argv, code, error", [
        (["eval", "{fig1}", "--members", "0", "--eval", "estimate",
          "--samples", "0"], 3, "ConfigError"),
        (["solve", "{fig1}", "--algo", "mdrrr", "--source", "random",
          "--k", "2", "--c", "0"], 3, "ConfigError"),
        (["solve", "{fig1}", "--algo", "mdrc", "--k", "2",
          "--dirs", "higher,sideways"], 3, "ConfigError"),
        (["eval", "{fig1}", "--members", "0,7"], 3, "ConfigError"),
        (["eval", "{fig1}", "--members", "0,x"], 3, "ConfigError"),
        (["eval", "{fig1}", "--members", ""], 3, "EmptySubset"),
        (["dual", "{fig1}", "--size-budget", "0"], 3, "ConfigError"),
        (["bench", "{fig1}", "--ks", "2.5"], 3, "ConfigError"),
        (["bench", "{fig1}", "--k-pcts", "x"], 3, "ConfigError"),
        (["solve", "{fig1}", "--algo", "mdrc", "--k-pct", "inf"], 3,
         "KOutOfRange"),
        (["solve", "{fig1}", "--algo", "mdrc", "--k-pct", "nan"], 3,
         "KOutOfRange"),
        (["bench", "{fig1}", "--ks", "2", "--seeds", "0,one"], 3,
         "ConfigError"),
        (["solve", "{one}", "--algo", "mdrc", "--k", "1"], 3, "ConfigError"),
        (["solve", "{one}", "--algo", "mdrrr", "--k", "1"], 3, "ConfigError"),
        (["eval", "{one}", "--members", "0"], 3, "ConfigError"),
        (["eval", "{fig1}", "--members-file", "{fig1}"], 2,
         "MalformedMembersFile"),
        (["eval", "{fig1}", "--members-file", "{no_ids}"], 2,
         "MalformedMembersFile"),
        (["eval", "{fig1}", "--members-file", "{text_ids}"], 2,
         "MalformedMembersFile"),
        (["eval", "{fig1}", "--members", "0", "--eval", "exact",
          "--samples", "0"], 3, "ConfigError"),
        (["solve", "{fig1}", "--algo", "mdrc", "--k", "2",
          "--dirs", "higher"], 3, "DimensionMismatch"),
        (["bench", "{fig1}", "--algos", "2drr", "--ks", "1"], 3,
         "ConfigError"),
        (["solve", "{huge_field}", "--cols", "a,c", "--algo", "2drrr",
          "--k", "1"], 2, "MalformedDataFile"),
        (["eval", "{fig1}", "--members-file", "{string_ids}"], 2,
         "MalformedMembersFile"),
        (["eval", "{fig1}", "--members-file", "{float_ids}"], 2,
         "MalformedMembersFile"),
        (["eval", "{fig1}", "--members-file", "{bool_ids}"], 2,
         "MalformedMembersFile"),
        (["solve", "{dir}", "--algo", "mdrc", "--k", "2"], 2,
         "IsADirectoryError"),
        (["eval", "{fig1}", "--members-file", "{dir}"], 2, "IsADirectoryError"),
        (["solve", "{fig1}", "--algo", "mdrrr", "--k", "2", "--ksets-file",
          "{dir}"], 2, "IsADirectoryError"),
        (["solve", "{fig1}", "--algo", "mdrc", "--k", "2", "-o", "{dir}"], 2,
         "IsADirectoryError"),
        (["solve", "{latin1_data}", "--algo", "mdrc", "--k", "2"], 2,
         "MalformedDataFile"),
        (["solve", "{fig1}", "--algo", "mdrrr", "--k", "2", "--ksets-file",
          "{latin1_sets}"], 2, "MalformedKSetFile"),
        (["solve", "{fig1}", "--algo", "mdrc", "--k", "2", "--delimiter",
          ";;"], 3, "ConfigError"),
    ])
    def test_exit_code_by_cause(self, argv, code, error, fig1_csv, tmp_path,
                                capsys):
        files = {"fig1": fig1_csv}
        # an empty field sends the body to the csv loop, whose field limit
        # (131 072 characters) the third line's column b exceeds
        huge_field = "a,b,c\n0.1,0.2,\n0.3," + "9" * 200_000 + ",0.4\n0.5,0.6,0.7\n"
        for name, text in (("one", "a\n1\n2\n3\n"),
                           ("no_ids", '{"members": [0]}'),
                           ("text_ids", '{"member_ids": [0, "x"]}'),
                           ("string_ids", '{"member_ids": "12"}'),
                           ("float_ids", '{"member_ids": [0.9, 2.5]}'),
                           ("bool_ids", '{"member_ids": [true]}'),
                           ("huge_field", huge_field)):
            files[name] = str(tmp_path / name)
            (tmp_path / name).write_text(text)
        # a Latin-1 byte on the second line of a data and of a k-set file
        for name, data in (("latin1_data", b"x1,x2\n0.5,0.2\n0.\xe9,0.3\n"),
                           ("latin1_sets", b"k=2;members=0,2\nk=2;members=\xe9\n")):
            files[name] = str(tmp_path / name)
            (tmp_path / name).write_bytes(data)
        files["dir"] = str(tmp_path)
        argv = [arg.format(**files) for arg in argv]
        if argv[0] != "bench":  # bench takes --seeds only
            argv += ["--seed", "0"]
        assert main(argv) == code
        payload = json.loads(capsys.readouterr().out)
        assert (payload["exit_code"], payload["error"]) == (code, error)
        if files["huge_field"] in argv:
            assert "line 3" in payload["message"]

    def test_no_error_class_is_in_two_categories(self):
        # rrr's exit code is the category: InputError 2, ConfigError 3
        classes = [c for c in vars(errors).values()
                   if isinstance(c, type) and issubclass(c, Exception)]
        assert len(classes) > 10
        assert not [c for c in classes if issubclass(c, errors.InputError)
                    and issubclass(c, errors.ConfigError)]

    def test_other_value_errors_are_failures(self, fig1_csv, capsys,
                                             monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("a numeric fault")

        monkeypatch.setattr(importlib.import_module("rankregret.evaluate"),
                            "run_algorithm", broken)
        assert main(["solve", fig1_csv, "--algo", "mdrc", "--k", "2",
                     "--seed", "0"]) == 4
        assert json.loads(capsys.readouterr().out)["error"] == "ValueError"

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


def _mdrrr_params(k, source, size, complete, draws=None, lps=None,
                  filtered=None, net_rounds=1, doublings=0):
    params = {"k": k, "kset_source": source, "c": 20,
              "collection_size": size, "complete": complete, "draws": draws,
              "lps": lps, "filtered": filtered, "net_rounds": net_rounds,
              "doublings": doublings}
    if source == "file":
        del params["c"]
    return params


FIG1_2DRRR = {"k": 2, "ranges": 4, "elements": 7, "candidates": 4}


class TestGoldenSeeds:
    """Fixed-seed outputs pinned bit for bit: member ids, rank-regret and
    params of every solver and k-set source, the lines of the random
    collector, ``eval`` and ``dual``, on the paper's figure-1 tuples and
    on 24 uniform tuples in d=3 (no near ties).  They move only if a seed
    reaches a different generator stream or a generator a different use.
    """

    @pytest.fixture
    def inputs(self, fig1_csv, tmp_path):
        path = tmp_path / "d3.csv"
        np.savetxt(path, np.random.default_rng(7).random((24, 3)),
                   delimiter=",", header="a,b,c", comments="")
        return {"fig1": fig1_csv, "d3": str(path)}

    @staticmethod
    def run(capsys, *argv):
        assert main([*argv, "--seed", "5"]) == 0
        return capsys.readouterr().out

    @pytest.mark.parametrize("name, k, algo, members, regret, params", [
        ("fig1", 2, ["2drrr"], [0, 2], 2, FIG1_2DRRR),
        ("fig1", 2, ["mdrc"], [2, 6], 2,
         {"k": 2, "depth_cap": 48, "max_boxes": 262144, "leaves": 2,
          "corners": 3, "full_corners": 3, "capped_leaves": 0,
          "stopped": "complete"}),
        ("fig1", 2, ["mdrrr"], [4, 6], 2,
         _mdrrr_params(2, "sweep2d", 3, True)),
        ("fig1", 2, ["mdrrr", "--source", "sweep2d"], [4, 6], 2,
         _mdrrr_params(2, "sweep2d", 3, True)),
        ("fig1", 2, ["mdrrr", "--source", "graph"], [4, 6], 2,
         _mdrrr_params(2, "graph", 3, True, lps=3, filtered=15)),
        ("fig1", 2, ["mdrrr", "--source", "random"], [4, 6], 2,
         _mdrrr_params(2, "random", 3, False, draws=23)),
        ("d3", 3, ["mdrc"], [0, 5, 9, 22], 1,
         {"k": 3, "depth_cap": 96, "max_boxes": 262144, "leaves": 8,
          "corners": 17, "full_corners": 4, "capped_leaves": 0,
          "stopped": "complete"}),
        ("d3", 3, ["mdrrr"], [5, 9, 22], 1,
         _mdrrr_params(3, "random", 9, False, draws=66)),
        ("d3", 3, ["mdrrr", "--source", "graph"], [5, 9, 22], 1,
         _mdrrr_params(3, "graph", 18, True, lps=18, filtered=477)),
        ("d3", 3, ["mdrrr", "--source", "random"], [5, 9, 22], 1,
         _mdrrr_params(3, "random", 9, False, draws=66)),
    ])
    def test_solve(self, inputs, capsys, name, k, algo, members, regret,
                   params):
        payload = json.loads(self.run(
            capsys, "solve", inputs[name], "--algo", *algo, "--k", str(k),
            "--c", "20", "--samples", "4"))
        assert payload["member_ids"] == members
        assert payload["evaluation"]["rank_regret"] == regret
        assert payload["params"] == params

    @pytest.mark.parametrize("name, k, lines, members, regret", [
        ("fig1", 2, [
            "k=2;members=2,4;witness=0.022565912979438232,0.9997453573642663",
            "k=2;members=0,6;witness=0.9915119656722475,0.13001546803652123",
            "k=2;members=2,6;witness=0.9177717007690256,0.3971084301139048",
        ], [4, 6], 2),
        ("d3", 3, [
            "k=3;members=0,5,19;witness=0.021901015315371402,"
            "0.9702881688437374,0.24095894864068162",
            "k=3;members=0,5,9;witness=0.8673899447596297,"
            "0.37530886926613777,0.32676893423344217",
            "k=3;members=0,5,6;witness=0.23742897297026488,"
            "0.9547280415160362,0.1792256944113739",
            "k=3;members=0,6,9;witness=0.8987136565953326,"
            "0.4288435904530266,0.09168935803245214",
            "k=3;members=1,13,22;witness=0.15039169293049656,"
            "0.002786597565258845,0.9886225637580344",
            "k=3;members=0,5,22;witness=0.14074332379687296,"
            "0.21063788264247263,0.9673794494418952",
            "k=3;members=0,2,5;witness=0.026740459043942413,"
            "0.7123593388340305,0.7013052974461711",
            "k=3;members=5,6,19;witness=0.21467881558705618,"
            "0.9750377516298249,0.05669558214530139",
            "k=3;members=0,5,14;witness=0.43420965690097046,"
            "0.4143136632748031,0.7998788422490962",
        ], [5, 9, 22], 1),
    ])
    def test_random_ksets_and_their_file(self, inputs, capsys, tmp_path,
                                         name, k, lines, members, regret):
        argv = ["ksets", inputs[name], "--source", "random", "--k", str(k),
                "--c", "20"]
        assert self.run(capsys, *argv).splitlines() == lines
        sets_path = tmp_path / "sets.txt"
        self.run(capsys, *argv, "-o", str(sets_path))
        assert sets_path.read_text().splitlines() == lines
        payload = json.loads(self.run(
            capsys, "solve", inputs[name], "--algo", "mdrrr", "--k", str(k),
            "--ksets-file", str(sets_path), "--samples", "4"))
        assert payload["member_ids"] == members
        assert payload["evaluation"]["rank_regret"] == regret
        assert payload["params"] == _mdrrr_params(k, "file", len(lines), False)

    @pytest.mark.parametrize("name, seed, regret", [
        ("fig1", "5", 5), ("d3", "1", 1), ("d3", "4", 3), ("d3", "5", 3),
        ("d3", "7", 2)])
    def test_eval(self, inputs, capsys, name, seed, regret):
        assert main(["eval", inputs[name], "--members", "0,5", "--samples",
                     "4", "--seed", seed]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rank_regret"] == regret
        assert payload["exact"] is (name == "fig1")

    @pytest.mark.parametrize("name, algo, k, members, params", [
        ("fig1", "2drrr", 2, [0, 2], FIG1_2DRRR),
        ("fig1", "mdrrr", 2, [4, 6], _mdrrr_params(2, "sweep2d", 3, True)),
        ("d3", "mdrrr", 9, [20, 23],
         _mdrrr_params(9, "random", 24, False, draws=148)),
        ("d3", "mdrc", 6, [0, 22],
         {"k": 6, "depth_cap": 96, "max_boxes": 262144, "leaves": 5,
          "corners": 12, "full_corners": 4, "capped_leaves": 0,
          "stopped": "complete"}),
    ])
    def test_dual(self, inputs, capsys, name, algo, k, members, params):
        payload = json.loads(self.run(
            capsys, "dual", inputs[name], "--size-budget", "2", "--algo", algo,
            "--c", "20"))
        assert (payload["k"], payload["member_ids"]) == (k, members)
        assert payload["params"] == params
