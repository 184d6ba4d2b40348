import csv
import errno
import io
import json
import os
import subprocess
import sys

import pytest

from heliobench import (
    Indicator,
    build_histogram,
    category_values,
    load_corpus,
    make_synthetic_corpus,
    pooled_bin_spec,
    serialize_corpus,
)
from heliobench.cli import main

from oracle import kl_direct

VALID_CSV = """\
journal,category,impact_factor,eigenfactor,immediacy
a1,A,1.0,0.01,0.2
a2,A,1.0,0.02,0.4
a3,A,3.0,0.03,0.6
b1,B,2.0,0.1,1.0
b2,B,2.5,0.2,1.5
"""

MALFORMED_CSV = """\
journal,category,impact_factor,eigenfactor,immediacy
a1,A,1.0,0.01,0.2
a2,A,-4.0,0.02,0.4
"""


@pytest.fixture
def valid_csv(tmp_path):
    path = tmp_path / "corpus.csv"
    path.write_text(VALID_CSV, encoding="utf-8")
    return str(path)


@pytest.fixture
def malformed_csv(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(MALFORMED_CSV, encoding="utf-8")
    return str(path)


@pytest.fixture
def synthetic_csv(tmp_path):
    corpus = make_synthetic_corpus(
        n_categories=6, clones=2, seed=42, journals_low=60, journals_high=80,
        missing_rate=0.0, cross_list_every=0,
    )
    path = tmp_path / "synthetic.csv"
    path.write_text(serialize_corpus(corpus), encoding="utf-8")
    return str(path)


class TestValidateCommand:
    def test_valid_corpus_exits_zero(self, valid_csv, capsys):
        assert main(["validate", "--input", valid_csv]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["record_count"] == 5
        assert report["under_populated"] == ["A", "B"]

    def test_negative_indicator_exits_two_and_names_line(self, malformed_csv, capsys):
        assert main(["validate", "--input", malformed_csv]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_header_field_over_the_field_limit_exits_two(self, tmp_path, capsys):
        path = tmp_path / "long_header.csv"
        path.write_text(f'"{"x" * 200_000}",category,impact_factor,eigenfactor,immediacy\n'
                        "j,C,1.0,0.1,0.2\n", encoding="utf-8")
        assert main(["validate", "--input", str(path)]) == 2
        assert capsys.readouterr().err.splitlines()[-1].startswith(
            "error: line 1: field larger than field limit"
        )

    def test_missing_file_exits_two(self):
        assert main(["validate", "--input", "/no/such/file.csv"]) == 2

    def test_min_records_flag(self, valid_csv, capsys):
        assert main(["validate", "--input", valid_csv, "--min-records", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["under_populated"] == []

    def test_bad_flags_exit_two(self, valid_csv):
        assert main(["validate"]) == 2
        assert main(["frobnicate", "--input", valid_csv]) == 2

    def test_byte_order_mark_is_ignored(self, demo_csv_path, tmp_path, capsysbinary):
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + demo_csv_path.read_bytes())
        assert main(["validate", "--input", str(demo_csv_path)]) == 0
        plain = capsysbinary.readouterr().out
        assert main(["validate", "--input", str(bom)]) == 0
        assert capsysbinary.readouterr().out == plain


class TestHistCommand:
    def test_hand_counted_probabilities(self, valid_csv, capsys):
        code = main(
            ["hist", "--input", valid_csv, "--indicator", "if", "--bins", "4",
             "--alpha", "0", "--category", "A"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        # pooled IF support is [0, 3 + margin): values 1.0, 1.0 -> bin 1, 3.0 -> bin 3
        assert doc["category"] == "A"
        assert doc["counts"] == [0, 2, 0, 1]
        assert doc["probabilities"] == [0.0, 2 / 3, 0.0, 1 / 3]

    def test_smoothing_gives_strictly_positive_probabilities(self, valid_csv, capsys):
        assert main(
            ["hist", "--input", valid_csv, "--indicator", "if",
             "--alpha", "0.5", "--category", "A"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert all(p > 0 for p in doc["probabilities"])

    def test_unknown_category_exits_three(self, valid_csv):
        assert main(
            ["hist", "--input", valid_csv, "--indicator", "if", "--category", "Nope"]
        ) == 3

    def test_one_document_per_pair(self, valid_csv, capsys):
        assert main(["hist", "--input", valid_csv]) == 0
        docs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert len(docs) == 2 * 3  # categories x indicators
        assert {(d["category"], d["indicator"]) for d in docs} == {
            (cat, ind) for cat in "AB" for ind in ("if", "es", "ii")
        }

    def test_failure_writes_nothing_and_names_category_and_indicator(self, tmp_path, capsys):
        path = tmp_path / "partial.csv"
        path.write_text(
            "journal,category,impact_factor,eigenfactor,immediacy\n"
            "j1,A,1.0,,0.5\nj2,B,2.0,0.01,0.7\n",
            encoding="utf-8",
        )
        out, kept = tmp_path / "out", tmp_path / "kept"
        kept.mkdir()
        (kept / "hist_a_if.json").write_text("earlier run", encoding="utf-8")
        for extra in ([], ["--out", str(out)], ["--out", str(kept)]):
            assert main(["hist", "--input", str(path), "--alpha", "0", *extra]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "'A'" in captured.err and "eigenfactor" in captured.err
        assert not out.exists()
        assert [p.name for p in kept.iterdir()] == ["hist_a_if.json"]
        assert (kept / "hist_a_if.json").read_text(encoding="utf-8") == "earlier run"

    def test_category_without_values_is_the_smoothed_prior_at_positive_alpha(
        self, tmp_path, capsys
    ):
        path = tmp_path / "partial.csv"
        path.write_text(
            "journal,category,impact_factor,eigenfactor,immediacy\n"
            "j1,A,1.0,,0.5\nj2,B,2.0,0.01,0.7\n",
            encoding="utf-8",
        )
        assert main(["hist", "--input", str(path), "--indicator", "es", "--category", "A"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["category"], doc["indicator"], doc["scale"]) == ("A", "es", "log")
        assert doc["counts"] == [0] * 20
        assert (doc["sample_count"], doc["skipped"], doc["clamped"]) == (0, 1, 0)
        assert doc["probabilities"] == [0.05] * 20

    def test_indicator_that_cannot_be_binned_is_skipped(self, tmp_path, capsys):
        header = "journal,category,impact_factor,eigenfactor,immediacy\n"
        path = tmp_path / "no_es.csv"
        for eigenfactor, flags, why in (
            ("", [], "no eigenfactor values present in corpus"),
            ("0.0", ["--scale", "log"],
             "no positive eigenfactor values; logarithmic binning impossible"),
        ):
            path.write_text(header + "".join(
                f"j{i},{cat},{v},{eigenfactor},{v / 10}\n"
                for i, (cat, v) in enumerate([("A", 1.5), ("B", 2.5), ("A", 0.5)])
            ), encoding="utf-8")
            assert main(["hist", "--input", str(path), *flags]) == 0
            captured = capsys.readouterr()
            docs = [json.loads(line) for line in captured.out.splitlines()]
            assert [(d["category"], d["indicator"]) for d in docs] == [
                ("A", "if"), ("B", "if"), ("A", "ii"), ("B", "ii"),
            ]
            assert captured.err.splitlines()[1:] == [f"warning: skipping indicator es: {why}"]
            # Named alone, the indicator is an error, as in bench.
            assert main(["hist", "--input", str(path), "--indicator", "es", *flags]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.splitlines()[-1] == f"error: {why}"
        # The last indicator of a run that skipped all others is reported
        # once, as the error.
        path.write_text(header + "j1,A,,,\n", encoding="utf-8")
        for argv, why in (
            (["hist"], "no immediacy values present in corpus"),
            (["bench", "--reference", "A"], "reference category 'A' has no immediacy values"),
        ):
            assert main([*argv, "--input", str(path)]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            err = captured.err.splitlines()[1:]
            assert [line.split(":")[0] for line in err] == ["warning", "warning", "error"]
            assert err[-1] == f"error: {why}"

    def test_writes_files_to_out_dir(self, valid_csv, tmp_path):
        out = tmp_path / "hists"
        assert main(
            ["hist", "--input", valid_csv, "--indicator", "if", "--out", str(out)]
        ) == 0
        assert sorted(p.name for p in out.iterdir()) == ["hist_a_if.json", "hist_b_if.json"]


class TestBenchCommand:
    def test_duplicated_reference_ranks_first(self, tmp_path, capsys):
        rows = [VALID_CSV.rstrip()] + ["c1,A Copy,1.0,0.01,0.2",
                                       "c2,A Copy,1.0,0.02,0.4",
                                       "c3,A Copy,3.0,0.03,0.6"]
        path = tmp_path / "dup.csv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        assert main(
            ["bench", "--input", str(path), "--reference", "A", "--indicator", "if"]
        ) == 0
        result = json.loads(capsys.readouterr().out)
        first = result["ranking"][0]
        assert first["category"] == "A Copy"
        assert first["gain"] < 1e-12

    def test_synthetic_order_matches_oracle(self, synthetic_csv, capsys):
        assert main(
            ["bench", "--input", synthetic_csv, "--reference", "Category 000",
             "--indicator", "if"]
        ) == 0
        result = json.loads(capsys.readouterr().out)

        corpus = load_corpus(synthetic_csv)
        spec = pooled_bin_spec(corpus, Indicator.IMPACT_FACTOR, 20, "linear")
        ref_values, _ = category_values(corpus, "Category 000", Indicator.IMPACT_FACTOR)
        ref = build_histogram(ref_values, spec, 0.5)
        expected = {}
        for cat in corpus.category_names():
            if cat == "Category 000":
                continue
            values, _ = category_values(corpus, cat, Indicator.IMPACT_FACTOR)
            expected[cat] = kl_direct(
                ref.probabilities, build_histogram(values, spec, 0.5).probabilities
            )
        oracle_order = sorted(expected, key=lambda c: (expected[c], c))
        assert [e["category"] for e in result["ranking"]] == oracle_order

    def test_unknown_reference_exits_three(self, valid_csv):
        assert main(["bench", "--input", valid_csv, "--reference", "Nope"]) == 3

    def test_k_limits_rows_in_csv_format(self, synthetic_csv, capsys):
        assert main(
            ["bench", "--input", synthetic_csv, "--reference", "Category 000",
             "--indicator", "if", "--k", "3", "--format", "csv"]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "rank,category,gain"
        assert len(lines) == 4

    def test_summary_written(self, valid_csv, tmp_path):
        out = tmp_path / "bench"
        assert main(
            ["bench", "--input", valid_csv, "--reference", "A", "--out", str(out),
             "--summary", "--format", "csv"]
        ) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "bench_a_es.csv", "bench_a_if.csv", "bench_a_ii.csv", "bench_a_summary.csv",
        ]

    def test_config_file_and_flag_precedence(self, synthetic_csv, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k=2\nformat=csv\n", encoding="utf-8")
        assert main(
            ["bench", "--input", synthetic_csv, "--reference", "Category 000",
             "--indicator", "if", "--config", str(cfg)]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3  # header + k=2 rows from config

        assert main(
            ["bench", "--input", synthetic_csv, "--reference", "Category 000",
             "--indicator", "if", "--config", str(cfg), "--k", "1"]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2  # CLI flag beats config

    @pytest.mark.parametrize("entry", ["bins=abc", "indicator=zz", "bogus=1"])
    def test_bad_config_entry_exits_two(self, valid_csv, tmp_path, capsys, entry):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# settings\n{entry}\n", encoding="utf-8")
        assert main(
            ["bench", "--input", valid_csv, "--reference", "A", "--config", str(cfg)]
        ) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "line 2" in captured.err
        assert entry.partition("=")[0] in captured.err
        assert "Traceback" not in captured.err

    def test_config_line_without_equals_sign_exits_two(self, valid_csv, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# settings\nno equals sign\n", encoding="utf-8")
        assert main(
            ["bench", "--input", valid_csv, "--reference", "A", "--config", str(cfg)]
        ) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            "error: line 2: config entry is not key=value: 'no equals sign'"
        )

    @pytest.mark.parametrize("value", ["ture", "2", "y", ""])
    def test_unrecognised_boolean_config_value_exits_two(self, valid_csv, tmp_path, capsys, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"summary={value}\n", encoding="utf-8")
        assert main(
            ["bench", "--input", valid_csv, "--reference", "A", "--config", str(cfg)]
        ) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            f"error: line 1: config summary: invalid value {value!r}"
        )

    @pytest.mark.parametrize("value, summary", [
        ("1", True), ("TRUE", True), ("Yes", True), ("on", True),
        ("0", False), ("False", False), ("NO", False), ("off", False),
    ])
    def test_boolean_config_words_are_read_either_way(
        self, valid_csv, tmp_path, capsys, value, summary
    ):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"summary={value}\n", encoding="utf-8")
        assert main(
            ["bench", "--input", valid_csv, "--reference", "A", "--config", str(cfg),
             "--format", "csv"]
        ) == 0
        captured = capsys.readouterr()
        assert _resolved_config(captured.err)["summary"] is summary
        assert ("category,appearances" in captured.out) is summary

    def test_repeated_category_config_lines_add_up_and_a_flag_replaces_them(
        self, valid_csv, tmp_path, capsys
    ):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("category=A\ncategory=B\n", encoding="utf-8")
        argv = ["hist", "--input", valid_csv, "--config", str(cfg), "--indicator", "if"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert _resolved_config(captured.err)["category"] == ["A", "B"]
        assert [json.loads(line)["category"] for line in captured.out.splitlines()] == ["A", "B"]
        assert main(argv + ["--category", "B"]) == 0
        captured = capsys.readouterr()
        assert _resolved_config(captured.err)["category"] == ["B"]
        assert [json.loads(line)["category"] for line in captured.out.splitlines()] == ["B"]

    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_non_finite_alpha_exits_three(self, valid_csv, capsys, alpha):
        assert main(
            ["bench", "--input", valid_csv, "--reference", "A", "--alpha", alpha]
        ) == 3
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command", ["bench", "map", "hist"])
    def test_bins_above_cap_exit_three(self, valid_csv, capsys, command):
        argv = [command, "--input", valid_csv, "--bins", "100000000"]
        if command != "hist":
            argv += ["--reference", "A"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "bin_count" in captured.err

    def test_indicator_without_reference_values_is_skipped(self, tmp_path, capsys):
        path = tmp_path / "partial.csv"
        path.write_text(
            "journal,category,impact_factor,eigenfactor,immediacy\n"
            "j1,A,1.0,,0.5\nj2,B,2.0,0.01,0.7\n",
            encoding="utf-8",
        )
        assert main(["bench", "--input", str(path), "--reference", "A", "--format", "csv"]) == 0
        captured = capsys.readouterr()
        assert captured.out.count("rank,category,gain\n1,B,") == 2
        assert "skipping indicator es" in captured.err
        assert main(
            ["bench", "--input", str(path), "--reference", "A", "--indicator", "es"]
        ) == 3
        assert capsys.readouterr().out == ""

    def test_reference_without_any_values_exits_three(self, tmp_path, capsys):
        path = tmp_path / "empty_ref.csv"
        path.write_text(
            "journal,category,impact_factor,eigenfactor,immediacy\n"
            "j1,A,,,\nj2,B,2.0,0.01,0.7\n",
            encoding="utf-8",
        )
        assert main(["bench", "--input", str(path), "--reference", "A"]) == 3
        assert capsys.readouterr().out == ""

    def test_resolved_config_printed_to_stderr(self, valid_csv, capsys):
        assert main(
            ["bench", "--input", valid_csv, "--reference", "A", "--indicator", "if"]
        ) == 0
        err = capsys.readouterr().err
        assert err.startswith("resolved-config: ")
        resolved = json.loads(err.splitlines()[0].removeprefix("resolved-config: "))
        assert resolved["reference"] == "A"
        assert resolved["k"] == 30

    @pytest.mark.parametrize("command", ["bench", "map"])
    def test_k_zero_exits_three(self, valid_csv, capsys, command):
        assert main([command, "--input", valid_csv, "--reference", "A", "--k", "0"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines()[-1] == "error: k must be >= 1, got 0"


class TestMapCommand:
    def test_byte_identical_re_runs(self, synthetic_csv, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(
                ["map", "--input", synthetic_csv, "--reference", "Category 000",
                 "--indicator", "if", "--out", str(out)]
            ) == 0
        svg_a = (out_a / "map_category-000_if.svg").read_bytes()
        svg_b = (out_b / "map_category-000_if.svg").read_bytes()
        assert svg_a == svg_b

    def test_prestige_file_controls_order(self, synthetic_csv, tmp_path, capsys):
        prestige = tmp_path / "prestige.txt"
        prestige.write_text(
            "# best first\nCategory 004\nCategory 001\nCategory 003\n", encoding="utf-8"
        )
        assert main(
            ["map", "--input", synthetic_csv, "--reference", "Category 000",
             "--indicator", "if", "--k", "3", "--prestige", str(prestige)]
        ) == 0
        svg = capsys.readouterr().out
        listed = [c for c in ("Category 004", "Category 001", "Category 003")
                  if svg.count(c) == 1]
        # dots appear in prestige order for categories present in the top-k
        positions = {c: svg.index(c) for c in listed}
        assert sorted(positions, key=positions.get) == listed

    def test_without_prestige_order_is_ascending_gain(self, synthetic_csv, capsys):
        assert main(
            ["map", "--input", synthetic_csv, "--reference", "Category 000",
             "--indicator", "if", "--k", "4"]
        ) == 0
        svg = capsys.readouterr().out

        assert main(
            ["bench", "--input", synthetic_csv, "--reference", "Category 000",
             "--indicator", "if", "--k", "4"]
        ) == 0
        ranking = json.loads(capsys.readouterr().out)["ranking"]
        names = [e["category"] for e in ranking]
        positions = [svg.index(name) for name in names]
        assert positions == sorted(positions)

    def test_upstream_domain_errors_exit_three(self, valid_csv):
        assert main(["map", "--input", valid_csv, "--reference", "Missing"]) == 3


OPTION_KEYS = {"indicator", "bins", "scale", "alpha", "k", "format", "min_records",
               "category", "reference", "prestige", "out", "summary"}


def _resolved_config(err: str) -> dict:
    return json.loads(err.splitlines()[0].removeprefix("resolved-config: "))


class TestOptionTable:
    def test_bench_has_no_prestige_flag(self, valid_csv, tmp_path, capsys):
        prestige = tmp_path / "prestige.txt"
        prestige.write_text("B\nA\n", encoding="utf-8")
        assert main(
            ["bench", "--input", valid_csv, "--reference", "A", "--prestige", str(prestige)]
        ) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command", ["validate", "hist", "bench", "map"])
    def test_config_setting_every_key_is_accepted(self, valid_csv, tmp_path, capsys, command):
        prestige = tmp_path / "prestige.txt"
        prestige.write_text("B\nA\n", encoding="utf-8")
        out = tmp_path / "out"
        cfg = tmp_path / "all.cfg"
        cfg.write_text(
            "indicator=if\nbins=4\nscale=log\nalpha=0.25\nk=1\nformat=csv\nmin_records=2\n"
            f"category=B\nreference=A\nprestige={prestige}\nout={out}\nsummary=yes\n",
            encoding="utf-8",
        )
        argv = [command, "--input", valid_csv, "--config", str(cfg)]
        if command in ("bench", "map"):
            argv += ["--reference", "A"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert _resolved_config(captured.err) == {
            "indicator": "if", "bins": 4, "scale": "log", "alpha": 0.25, "k": 1,
            "format": "csv", "min_records": 2, "category": ["B"], "reference": "A",
            "prestige": str(prestige), "out": str(out), "summary": True,
            "input": valid_csv, "command": command,
        }
        assert len(list(out.iterdir())) >= 1

    @pytest.mark.parametrize("command", ["validate", "hist", "bench", "map"])
    def test_resolved_config_has_every_option_key(self, valid_csv, capsys, command):
        argv = [command, "--input", valid_csv]
        if command in ("bench", "map"):
            argv += ["--reference", "A"]
        assert main(argv) == 0
        resolved = _resolved_config(capsys.readouterr().err)
        assert set(resolved) == OPTION_KEYS | {"input", "command"}


@pytest.mark.parametrize("kind", ["input", "config", "prestige"])
def test_file_that_is_not_utf8_exits_two(valid_csv, tmp_path, capsys, kind):
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes(
        b"journal,category,impact_factor,eigenfactor,immediacy\ncaf\xe9,A,1.0,0.01,0.2\n"
    )
    argv = {
        "input": ["validate", "--input", str(latin1)],
        "config": ["bench", "--input", valid_csv, "--reference", "A", "--config", str(latin1)],
        "prestige": ["map", "--input", valid_csv, "--reference", "A", "--prestige", str(latin1)],
    }[kind]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.splitlines()[-1].startswith("error: ")


def test_hist_filename_collision_exits_three_and_writes_nothing(tmp_path, capsys):
    path = tmp_path / "collide.csv"
    path.write_text(
        "journal,category,impact_factor,eigenfactor,immediacy\n"
        "j1,A B,1.0,0.01,0.2\nj2,A-B,2.0,0.02,0.4\n",
        encoding="utf-8",
    )
    out = tmp_path / "new" / "out"
    assert main(["hist", "--input", str(path), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "hist_a-b_if.json" in captured.err
    assert not (tmp_path / "new").exists()


def test_field_over_the_csv_size_limit_exits_two_naming_its_line(tmp_path, capsys):
    path = tmp_path / "huge.csv"
    path.write_text(
        "journal,category,impact_factor,eigenfactor,immediacy\n"
        "j1,A,1.0,0.01,0.2\n"
        f'"{"x" * 200_000}",A,1.0,0.01,0.2\n',
        encoding="utf-8",
    )
    assert main(["validate", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.splitlines()[-1].startswith("error: line 3: field larger than field limit")


@pytest.mark.parametrize("kind", ["input", "config", "prestige"])
def test_file_that_is_not_utf8_is_named_in_the_error(valid_csv, tmp_path, capsys, kind):
    latin1 = tmp_path / f"latin1-{kind}.txt"
    latin1.write_bytes(
        b"journal,category,impact_factor,eigenfactor,immediacy\ncaf\xe9,A,1.0,0.01,0.2\n"
    )
    argv = {
        "input": ["validate", "--input", str(latin1)],
        "config": ["bench", "--input", valid_csv, "--reference", "A", "--config", str(latin1)],
        "prestige": ["map", "--input", valid_csv, "--reference", "A", "--prestige", str(latin1)],
    }[kind]
    assert main(argv) == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith("error: 'utf-8' codec can't decode byte 0xe9")
    assert last.endswith(repr(str(latin1)))


def test_map_svgs_of_names_with_markup_are_well_formed_xml(tmp_path, capsys):
    from xml.dom import minidom

    names = ["A & <B>", '"Q", \'R\'', "tab\there", "\U0001d538 outside the BMP"]
    path = tmp_path / "markup.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["journal", "category", "impact_factor", "eigenfactor", "immediacy"])
        writer.writerows(
            [f"j{i}{n}", name, 1 + i + n, 0.01 * (1 + i), 0.2 + n]
            for i, name in enumerate(names) for n in range(3)
        )
    out = tmp_path / "maps"
    assert main(["map", "--input", str(path), "--reference", names[0], "--out", str(out)]) == 0
    svgs = sorted(out.iterdir())
    assert len(svgs) == 3
    for svg in svgs:
        document = minidom.parse(str(svg))
        labels = {t.firstChild.data for t in document.getElementsByTagName("text")}
        assert labels == set(names)


def test_category_that_xml_forbids_exits_two_naming_its_line(tmp_path, capsys):
    path = tmp_path / "control.csv"
    path.write_text(
        "journal,category,impact_factor,eigenfactor,immediacy\n"
        "j1,B,1.0,0.01,0.2\nj2,B,2.0,0.02,0.4\nj3,A\x01b,1.0,0.01,0.2\nj4,A\x01b,3.0,0.03,0.6\n",
        encoding="utf-8",
    )
    assert main(["map", "--input", str(path), "--reference", "B", "--indicator", "if"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        "error: line 4: category 'A\\x01b' contains '\\x01', which XML 1.0 forbids"
    )


class TestReferenceFromConfig:
    @pytest.mark.parametrize("command", ["bench", "map"])
    def test_config_only_reference_is_ranked(self, valid_csv, tmp_path, capsys, command):
        cfg = tmp_path / "ref.cfg"
        cfg.write_text("reference=B\n", encoding="utf-8")
        assert main([command, "--input", valid_csv, "--indicator", "if", "--config", str(cfg)]) == 0
        from_config = capsys.readouterr()
        assert _resolved_config(from_config.err)["reference"] == "B"
        assert main([command, "--input", valid_csv, "--indicator", "if", "--reference", "B"]) == 0
        assert from_config.out == capsys.readouterr().out

    def test_config_lines_end_at_lf_crlf_or_cr_only(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.csv"
        corpus.write_text(VALID_CSV.replace("B", "B\u2028\x85\u2029b"), encoding="utf-8")
        cfg = tmp_path / "ref.cfg"
        cfg.write_bytes("k=1\r\nindicator=if\rreference=B\u2028\x85\u2029b\n".encode("utf-8"))
        assert main(["bench", "--input", str(corpus), "--config", str(cfg)]) == 0
        resolved = _resolved_config(capsys.readouterr().err)
        assert (resolved["reference"], resolved["k"], resolved["indicator"]) == (
            "B\u2028\x85\u2029b", 1, "if"
        )

    def test_flag_beats_config_reference(self, valid_csv, tmp_path, capsys):
        cfg = tmp_path / "ref.cfg"
        cfg.write_text("reference=B\n", encoding="utf-8")
        assert main(["bench", "--input", valid_csv, "--reference", "A", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert main(["bench", "--input", valid_csv, "--reference", "A"]) == 0
        assert out == capsys.readouterr().out
        assert '"reference": "A"' in out

    @pytest.mark.parametrize("command", ["bench", "map"])
    @pytest.mark.parametrize("config", [None, "k=2\n"])
    def test_no_reference_exits_two(self, valid_csv, tmp_path, capsys, command, config):
        argv = [command, "--input", valid_csv]
        if config is not None:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(config, encoding="utf-8")
            argv += ["--config", str(cfg)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: {command} needs a reference: give --reference or a reference= config entry"
        ]


def test_names_that_start_with_a_dash_take_the_equals_form(tmp_path, capsys):
    # argparse reads a separate value that starts with - as an option.
    path = tmp_path / "dash.csv"
    path.write_text(VALID_CSV.replace(",A,", ",-x,"), encoding="utf-8")
    assert main(["bench", "--input", str(path), "--indicator", "if", "--reference=-x"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["reference"], [e["category"] for e in doc["ranking"]]) == ("-x", ["B"])
    assert main(["hist", "--input", str(path), "--indicator", "if", "--category=-x"]) == 0
    assert json.loads(capsys.readouterr().out)["category"] == "-x"
    assert main(["bench", "--input", str(path), "--indicator", "if", "--reference", "-x"]) == 2
    assert "argument --reference: expected one argument" in capsys.readouterr().err


def test_two_dashes_in_the_equals_form_are_a_value(tmp_path, monkeypatch, capsys):
    # argparse before Python 3.13 drops the value of --reference=-- and keeps [].
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "dashes.csv"
    path.write_text(VALID_CSV.replace(",A,", ",--,"), encoding="utf-8")
    assert main(["bench", "--input", str(path), "--indicator", "if", "--reference=--"]) == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert (doc["reference"], [e["category"] for e in doc["ranking"]]) == ("--", ["B"])
    assert json.loads(captured.err.removeprefix("resolved-config: "))["reference"] == "--"
    assert main(["hist", "--input", str(path), "--indicator", "if", "--category=--"]) == 0
    assert json.loads(capsys.readouterr().out)["category"] == "--"
    assert main(["validate", "--input", str(path), "--out=--"]) == 0
    assert os.listdir("--") == ["validation.json"]
    assert main(["hist", "--input", str(path), "--bins=--"]) == 2
    assert "argument --bins: invalid int value: '--'" in capsys.readouterr().err


CSV_HEADER = "journal,category,impact_factor,eigenfactor,immediacy\n"


@pytest.mark.parametrize("rows, flags, expected", [
    pytest.param("a1,A,1.0,0.01,0.2\nb1,B,2.0,0.1,1.0\n", ["--alpha", "1e308"],
                 ["impact_factor", "1e+308", "1.7976931348623157e+308"], id="alpha-overflow"),
    pytest.param("a1,A,1.0,0.01,0.2\na2,A,1.5,0.02,0.3\na3,A,3.0,0.03,0.6\nb1,B,2.0,0.1,1.0\n",
                 ["--alpha", "5e-324", "--bins", "10000"],
                 ["impact_factor", "5e-324", "10000 bins"], id="alpha-underflow"),
    pytest.param("a1,A,1.0,1e-310,0.2\nb1,B,2.0,1e-300,1.0\n", ["--indicator", "es"],
                 ["eigenfactor", "1e-300", "1e-12"], id="below-log-floor"),
    pytest.param("a1,A,1.7976931348623157e308,0.01,0.2\nb1,B,2.0,0.1,1.0\n",
                 ["--indicator", "if"],
                 ["impact_factor", "1.7976931348623157e+308", "(1 + 1e-09)"], id="value-overflow"),
])
def test_value_beyond_float_range_exits_three_naming_indicator_and_limit(
    tmp_path, capsys, rows, flags, expected
):
    path = tmp_path / "corpus.csv"
    path.write_text(CSV_HEADER + rows, encoding="utf-8")
    assert main(["bench", "--input", str(path), "--reference", "A", *flags]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    message = captured.err.splitlines()[-1]
    assert message.startswith("error: ")
    for part in expected:
        assert part in message


@pytest.mark.parametrize("command", ["bench", "map"])
@pytest.mark.parametrize("alpha", ["1e-320", "1e-310"])
def test_alpha_leaving_a_subnormal_probability_exits_three(command, alpha, demo_csv_path, capsys):
    argv = [command, "--input", str(demo_csv_path), "--reference", "Category 000",
            "--alpha", alpha, "--bins", "10"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        f"error: alpha {float(alpha)!r} is too small for impact_factor on 10 bins: an empty "
        "bin's probability falls below 2.2250738585072014e-308"
    )


@pytest.mark.parametrize("flags, expected", [
    pytest.param(["--alpha", "1e308"],
                 "alpha 1e+308 is too large: alpha times 20 bins exceeds 1.7976931348623157e+308",
                 id="alpha-overflow"),
    pytest.param(["--alpha", "5e-324", "--bins", "10000"],
                 "alpha 5e-324 is too small on 10000 bins: an empty bin's probability falls "
                 "below 2.2250738585072014e-308",
                 id="alpha-underflow"),
])
def test_hist_alpha_beyond_float_range_names_category_indicator_and_limit(
    valid_csv, capsys, flags, expected
):
    assert main(["hist", "--input", valid_csv, "--indicator", "es", *flags]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == f"error: category 'A', eigenfactor: {expected}"


def test_hist_refuses_an_alpha_that_leaves_a_subnormal_probability(demo_csv_path, capsys):
    # hist has the floor that bench and map have.
    argv = ["hist", "--input", str(demo_csv_path), "--alpha", "1e-320", "--bins", "10"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        "error: category 'Category 000', impact_factor: alpha 1e-320 is too small on 10 bins: "
        "an empty bin's probability falls below 2.2250738585072014e-308"
    )


def test_internal_error_exits_four_with_the_traceback_on_stderr(demo_csv_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise RuntimeError("injected fault")

    monkeypatch.setattr("heliobench.cli.validate_corpus", fail)
    assert main(["validate", "--input", str(demo_csv_path)]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("resolved-config: ")
    traceback = err[err.index("Traceback (most recent call last):\n"):]
    assert traceback.endswith("RuntimeError: injected fault\n")
    assert "in fail\n" in traceback


def test_a_closed_stdout_exits_two_with_one_error_line(demo_csv_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", None)  # what Python sets when fd 1 is closed
    assert main(["validate", "--input", str(demo_csv_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("resolved-config: ")
    assert err[1:] == ["error: standard output is closed"]


class _Unwritable(io.StringIO):
    """A stdout whose every write raises error."""

    def __init__(self, error: OSError):
        super().__init__()
        self.error = error

    def write(self, text):
        raise self.error


@pytest.mark.parametrize("error", [
    pytest.param(BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE)), id="reader-stopped"),
    pytest.param(OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)), id="full"),
])
def test_stdout_that_cannot_be_written_exits_two_with_one_error_line(
    error, demo_csv_path, monkeypatch, capsys
):
    # A reader that stops early, as `| head -c 10` does, makes a write raise
    # BrokenPipeError: an output that cannot be written, like a full device.
    monkeypatch.setattr(sys, "stdout", _Unwritable(error))
    for command in ["validate", "hist"]:
        assert main([command, "--input", str(demo_csv_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("resolved-config: ")
        assert err[1:] == [f"error: [Errno {error.errno}] {os.strerror(error.errno)}"]


def test_out_that_is_a_file_or_under_one_exits_two_and_makes_nothing(valid_csv, tmp_path, capsys):
    file = tmp_path / "file"
    file.write_text("kept\n", encoding="utf-8")
    for out, code in [(file, errno.EEXIST), (file / "sub" / "dir", errno.ENOTDIR)]:
        argv = ["bench", "--input", valid_csv, "--reference", "A", "--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].startswith(
            f"error: [Errno {code}] {os.strerror(code)}: "
        )
    assert sorted(os.listdir(tmp_path)) == ["corpus.csv", "file"]
    assert file.read_text(encoding="utf-8") == "kept\n"


class _BadDescriptor:
    def write(self, *args):
        raise OSError(errno.EBADF, "Bad file descriptor")

    flush = write


def _closed_stream():
    stream = io.StringIO()
    stream.close()  # write raises ValueError
    return stream


@pytest.mark.parametrize("stderr", [
    pytest.param(None, id="missing"),
    pytest.param(_BadDescriptor(), id="ebadf"),
    pytest.param(_closed_stream(), id="closed"),
])
def test_an_unwritable_stderr_changes_neither_exit_code_nor_stdout(
    stderr, demo_csv_path, tmp_path, monkeypatch, capsys
):
    # print(file=None) writes to stdout: no diagnostic may end up there.
    monkeypatch.setattr(sys, "stderr", stderr)
    demo = str(demo_csv_path)
    assert main(["validate", "--input", demo]) == 0
    assert json.loads(capsys.readouterr().out)["category_count"] == 174
    argv = ["bench", "--input", demo, "--reference", "Category 000", "--indicator", "if"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["reference"] == "Category 000"
    empty = tmp_path / "empty.csv"
    empty.write_text(CSV_HEADER + "a1,A,1.0,,0.2\nb1,B,2.0,,1.0\n", encoding="utf-8")
    for argv, code in [
        (["validate", "--input", str(tmp_path / "missing.csv")], 2),
        (["validate", "--bogus"], 2),
        (["bench", "--input", demo, "--reference", "nope"], 3),
        (["hist", "--input", str(empty)], 0),  # warns that it skips eigenfactor
    ]:
        assert main(argv) == code
        out = capsys.readouterr().out
        assert (out.count('"category": ') == 4) if code == 0 else (out == "")
    monkeypatch.setattr("heliobench.cli.validate_corpus", None)
    assert main(["validate", "--input", demo]) == 4
    assert capsys.readouterr().out == ""


def _run_with(redirect, *args):
    """python -m heliobench ARGS in a shell that applies redirect, such as 2>&-."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run(
        ["sh", "-c", f'exec "$@" {redirect}', "sh", sys.executable, "-m", "heliobench", *args],
        env=env, capture_output=True, text=True,
    )


def test_closed_standard_streams_exit_with_the_documented_codes(demo_csv_path):
    demo = str(demo_csv_path)
    run = _run_with(">&-", "validate", "--input", demo)
    assert (run.returncode, run.stderr.splitlines()[-1]) == (2, "error: standard output is closed")
    run = _run_with("2>&-", "validate", "--input", demo)
    assert (run.returncode, json.loads(run.stdout)["category_count"]) == (0, 174)
    run = _run_with("2>&-", "bench", "--input", demo, "--reference", "Category 000",
                    "--indicator", "if")
    assert (run.returncode, json.loads(run.stdout)["reference"]) == (0, "Category 000")
    run = _run_with("2>&-", "bench", "--input", demo, "--reference", "nope")
    assert (run.returncode, run.stdout) == (3, "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
def test_stdout_on_a_full_device_exits_two_with_one_error_line(demo_csv_path):
    run = _run_with(">/dev/full", "validate", "--input", str(demo_csv_path))
    assert (run.returncode, run.stderr.splitlines()[-1]) == (
        2, f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
    )


def test_cli_import_loads_neither_pathlib_nor_urllib_parse():
    # Without site, which may import pathlib itself, through a .pth file.
    # shutil imports fnmatch, so that one is not asserted.
    code = (
        "import sys, heliobench.cli; "
        "print(sorted({'pathlib', 'urllib.parse'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"


def test_relative_nested_out_dir_is_removed_on_failure_and_written_on_success(
    valid_csv, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    with open("collide.csv", "w", encoding="utf-8") as fh:
        fh.write(
            "journal,category,impact_factor,eigenfactor,immediacy\n"
            "j1,A B,1.0,0.01,0.2\nj2,A-B,2.0,0.02,0.4\n"
        )
    assert main(["hist", "--input", "collide.csv", "--out", "new/out"]) == 3
    assert not os.path.exists("new")
    assert main(["hist", "--input", valid_csv, "--out", "new/out"]) == 0
    assert main(["hist", "--input", valid_csv, "--out", str(tmp_path / "absolute")]) == 0
    capsys.readouterr()
    names = sorted(os.listdir(tmp_path / "absolute"))
    assert sorted(os.listdir("new/out")) == names and len(names) == 6
    for name in names:
        with open(os.path.join("new", "out", name), encoding="utf-8") as got, \
                open(tmp_path / "absolute" / name, encoding="utf-8") as want:
            assert got.read() == want.read()


def test_out_dir_that_cannot_be_made_leaves_no_parent_behind(valid_csv, tmp_path, capsys):
    # A 300-character name is longer than a file system allows, so makedirs
    # fails after making its parent.
    out = tmp_path / "new" / ("x" * 300)
    assert main(["validate", "--input", valid_csv, "--out", str(out)]) == 2
    assert capsys.readouterr().out == ""
    assert not (tmp_path / "new").exists()
