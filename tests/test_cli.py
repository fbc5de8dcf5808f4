"""Command-line behavior: exit codes, document shapes, byte determinism,
the result cache, and CSV table generation."""

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import threading
import time
from math import prod
from pathlib import Path

import pytest

import homok.cocyclic
import homok.groups
import homok.snf
from homok import cli, verify
from homok.bracket import graded_presentation
from homok.cli import (
    ResultCache,
    _family_factors,
    _family_template,
    _parse_primes,
    main,
)
from homok.functions import from_generator_values
from homok.groups import Group, element_order


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_malformed_spec(self, capsys):
        code, _, err = run_cli(["sk1", "--group", "bogus"], capsys)
        assert code == 2
        assert "bad factor" in err

    def test_cap_exceeded(self, capsys):
        code, _, err = run_cli(["sk1", "--group", "100000,3"], capsys)
        assert code == 1
        assert "cap" in err

    def test_refused_transfer_job(self, tmp_path, capsys):
        job = tmp_path / "job.json"
        job.write_text(
            json.dumps(
                {
                    "d": 2,
                    "source": "5",
                    "target": "5",
                    "t_values": [[0], [1], [4], [4], [1]],
                }
            )
        )
        code, _, err = run_cli(["transfer", "--job", str(job)], capsys)
        assert code == 1
        assert "relation" in err

    def test_degree_minus_one_job_is_refused(self, tmp_path, capsys):
        # t(x) = 1/x mod 5 is homogeneous of degree -1, but the induced
        # bracket map is not defined: [t(2x)] = 2^(d*d)*[t(x)], not 2^d*[t(x)]
        job = tmp_path / "job.json"
        job.write_text(json.dumps({"d": -1, "source": "5", "target": "5",
                                   "t_values": [[0], [1], [3], [2], [4]]}))
        code, out, err = run_cli(["transfer", "--job", str(job)], capsys)
        assert (code, out) == (1, "")
        assert (
            "relation [n*g] = n^d*[g] breaks at g=(1,), n=2, degree -1" in err
        )
        # degree 1 always passes the audit
        job.write_text(json.dumps({"d": 1, "source": "5", "target": "5",
                                   "t_values": [[0], [1], [2], [3], [4]]}))
        code, out, err = run_cli(["transfer", "--job", str(job)], capsys)
        assert (code, err) == (0, "")
        assert "kernel size: 1" in out

    def test_incomplete_job(self, tmp_path, capsys):
        job = tmp_path / "job.json"
        job.write_text(json.dumps({"d": 1, "source": "3"}))
        code, _, err = run_cli(["transfer", "--job", str(job)], capsys)
        assert code == 2
        assert "t_values" in err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("f_coords", 5),
            ("f_coords", "12"),
            ("f_coords", [1.5, 2]),
            ("d", 1.5),
            ("d", True),
            ("t_values", [[0], [3.0], [6]]),
        ],
        ids=["f-int", "f-string", "f-float", "d-float", "d-bool", "t-float"],
    )
    def test_job_fields_must_be_integers(self, field, value, tmp_path, capsys):
        job = tmp_path / "job.json"
        fields = {"d": 1, "source": "3", "target": "9",
                  "t_values": [[0], [3], [6]], "f_coords": [0, 1]}
        job.write_text(json.dumps({**fields, field: value}))
        code, out, err = run_cli(["transfer", "--job", str(job)], capsys)
        assert (code, out) == (2, "")
        assert "not an integer" in err or "not a list" in err
        assert '"f_coords"' in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "t_values",
        [[[0], [1], [4], [4], [1]], [[0], [2], [4], [1], [3]]],
        ids=["not-homogeneous", "homogeneous"],
    )
    def test_f_coords_length_is_checked_with_the_job(
        self, t_values, tmp_path, capsys
    ):
        """Z/5 has two cyclic subgroups, so a job on it takes two f_coords.
        A third is a usage error found when the job is read, before t is
        checked or its map built."""
        job = tmp_path / "job.json"
        job.write_text(json.dumps({"d": 1, "source": "5", "target": "5",
                                   "t_values": t_values, "f_coords": [1, 2, 3]}))
        code, out, err = run_cli(["transfer", "--job", str(job)], capsys)
        assert (code, out) == (2, "")
        assert err == (
            "error: f_coords needs 2 entries, one per source summand, got 3\n"
        )

    @pytest.mark.parametrize(
        "argv, job_source, reason",
        [
            (["sk1", "--group", "²"], None,
             "bad factor '²' in group spec '²': "
             "expected comma-separated positive integers"),
            (["sk1", "--group", "１２"], None,
             "bad factor '１２' in group spec '１２': "
             "expected comma-separated positive integers"),
            (["hmg", "--group", "9", "--d", "1", "--target", "２７"], None,
             "bad factor '２７' in group spec '２７': "
             "expected comma-separated positive integers"),
            (["transfer", "--job"], "٣",
             "bad factor '٣' in group spec '٣': "
             "expected comma-separated positive integers"),
            (["table", "--family", "p,٣", "--primes", "3"], None,
             "bad family term '٣': expected p, p**e, p^e, or an integer"),
            (["table", "--family", "p^٣", "--primes", "3"], None,
             "bad family term 'p^٣': expected p, p**e, p^e, or an integer"),
            (["table", "--family", "p", "--primes", "3..٥"], None,
             "'3..٥' is not a prime"),
            (["table", "--family", "p", "--primes", "٣"], None,
             "'٣' is not a prime"),
        ],
        ids=["group-superscript", "group-fullwidth", "target", "job-source",
             "family-term", "family-rank", "primes-span", "primes-list"],
    )
    def test_only_ascii_digits_are_numbers(
        self, argv, job_source, reason, tmp_path, capsys
    ):
        """``str.isdigit`` and ``\\d`` take any Unicode digit; a number in a
        group spec, a family or a prime list is ASCII digits only."""
        out = tmp_path / "t.csv"
        if job_source is not None:
            job = tmp_path / "job.json"
            job.write_text(json.dumps({"d": 1, "source": job_source,
                                       "target": "9", "t_values": [[0], [3], [6]]}))
            argv = argv + [str(job)]
        if argv[0] == "table":
            argv = argv + ["--out", str(out)]
        code, stdout, err = run_cli(argv, capsys)
        assert (code, stdout) == (2, "")
        assert err.endswith(f"{reason}\n") and err.count("\n") == 1
        assert not out.exists()

    def test_missing_job_file(self, capsys):
        code, _, err = run_cli(["transfer", "--job", "/no/such/file"], capsys)
        assert code == 2

    def test_internal_invariant_break_exits_1(self, monkeypatch, capsys):
        # a quotient chain that breaks |hmg| = |coc| * |quotient|; (9,9) is
        # a p-group that no rule covers, so it reaches the lattice
        real = homok.cocyclic.lattice_invariants
        monkeypatch.setattr(
            homok.cocyclic, "lattice_invariants", lambda r, m: ((3,), real(r, m)[1])
        )
        homok.cocyclic.sk1_invariants.cache_clear()
        try:
            code, out, err = run_cli(["sk1", "--group", "9,9"], capsys)
        finally:
            homok.cocyclic.sk1_invariants.cache_clear()
        assert code == 1
        assert out == ""
        assert "order bookkeeping" in err and "please report" in err

    def test_broken_fold_exits_1(self, monkeypatch, capsys):
        # a fold whose pivots are doubled no longer holds the relation rows
        monkeypatch.delenv("HOMOK_CACHE_DIR", raising=False)
        real = homok.snf._hermite_basis
        monkeypatch.setattr(
            homok.snf,
            "_hermite_basis",
            lambda r, m, pn: [[2 * x for x in row] for row in real(r, m, pn)],
        )
        homok.cocyclic.sk1_invariants.cache_clear()
        try:
            code, out, err = run_cli(["sk1", "--group", "9,9"], capsys)
        finally:
            homok.cocyclic.sk1_invariants.cache_clear()
        assert code == 1
        assert out == ""
        assert "folded lattice" in err and "please report" in err

    def test_broken_transfer_invariant_exits_1_under_optimize(self, tmp_path):
        # reduction mod 3 from Z/9, with the image size forced to 7 so that
        # it no longer divides the source bracket; -O strips asserts, so
        # the check must survive it
        job = tmp_path / "job.json"
        job.write_text(
            json.dumps(
                {"d": 1, "source": "9", "target": "3",
                 "t_values": [[x % 3] for x in range(9)]}
            )
        )
        script = (
            "import sys, homok.transfer\n"
            "from homok.cli import main\n"
            "homok.transfer.prod = lambda factors: 7\n"
            "sys.exit(main(['transfer', '--job', sys.argv[1]]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script, str(job)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "image size" in proc.stderr and "please report" in proc.stderr

    # argv and exact stderr of each usage refusal, given the directory of its
    # job files; main alone prints these lines
    REFUSALS = {
        "job-missing": lambda tmp: (
            ["transfer", "--job", f"{tmp}/missing.json"],
            "error: cannot read job file: [Errno 2] No such file or directory: "
            f"'{tmp}/missing.json'\n",
        ),
        "job-not-json": lambda tmp: (
            ["transfer", "--job", f"{tmp}/bad.json"],
            "error: job file is not JSON: Expecting value: line 1 column 1 (char 0)\n",
        ),
        "job-without-d": lambda tmp: (
            ["transfer", "--job", f"{tmp}/nod.json"],
            'error: job needs "d" (an integer), "source", "target" and "t_values" '
            "(one list of integers per source element), and may have "
            "\"f_coords\" (a list of integers): 'd'\n",
        ),
        "job-f-coords-short": lambda tmp: (
            ["transfer", "--job", f"{tmp}/short.json"],
            "error: f_coords needs 2 entries, one per source summand, got 1\n",
        ),
        "verify-unknown-suite": lambda tmp: (
            ["verify", "--suite", "nosuch"],
            "error: unknown suite 'nosuch'; available: lemma211, lemma212, "
            "prop29, thm213, cor214, thm216, prop32, ados, ados-odd, "
            "presentations\n",
        ),
        "verify-bound-not-taken": lambda tmp: (
            ["verify", "--suite", "lemma212", "--kmax", "5"],
            "error: suite 'lemma212' does not take a 'kmax' parameter\n",
        ),
        "verify-no-checks": lambda tmp: (
            ["verify", "--suite", "lemma211", "--kmax", "0"],
            "error: suite lemma211 runs no checks with --kmax 0\n",
        ),
        "table-out-unopenable": lambda tmp: (
            ["table", "--family", "p", "--primes", "3", "--out", f"{tmp}/nodir/t.csv"],
            f"error: cannot open --out '{tmp}/nodir/t.csv': [Errno 2] No such "
            f"file or directory: '{tmp}/nodir/t.csv'\n",
        ),
        "hmg-degree-0-not-z": lambda tmp: (
            ["hmg", "--group", "3", "--d", "0"],
            "error: degree-0 homogeneous functions take values in Z; "
            "pass --target Z\n",
        ),
        "od-k-0": lambda tmp: (
            ["od", "--d", "2", "--k", "0"],
            "error: order is defined for k >= 1, got 0\n",
        ),
        "od-oracle-k-negative": lambda tmp: (
            ["od", "--d", "2", "--k", "-1", "--oracle"],
            "error: order is defined for k >= 1, got -1\n",
        ),
        "job-not-utf8": lambda tmp: (
            ["transfer", "--job", f"{tmp}/latin.json"],
            "error: job file is not JSON: 'utf-8' codec can't decode byte 0xff "
            "in position 0: invalid start byte\n",
        ),
        "job-table-too-short": lambda tmp: (
            ["transfer", "--job", f"{tmp}/few.json"],
            "error: table has 2 values for a group of order 3\n",
        ),
        "job-value-not-in-target": lambda tmp: (
            ["transfer", "--job", f"{tmp}/outside.json"],
            "error: (9,) is not an element of Z/9\n",
        ),
        "job-table-not-vanishing": lambda tmp: (
            ["transfer", "--job", f"{tmp}/nonzero.json"],
            "error: a nonzero-degree table must vanish at 0 "
            "(forced by f(0) = n^d f(0))\n",
        ),
    }

    @pytest.mark.parametrize("case", REFUSALS.values(), ids=REFUSALS.keys())
    def test_usage_refusal_is_pinned(self, case, tmp_path, capsys):
        (tmp_path / "bad.json").write_text("not json")
        job = {"source": "3", "target": "9", "t_values": [[0], [3], [6]]}
        (tmp_path / "nod.json").write_text(json.dumps(job))
        (tmp_path / "short.json").write_text(json.dumps({**job, "d": 1, "f_coords": [1]}))
        (tmp_path / "latin.json").write_bytes(b"\xff{}")
        for name, values in (
            ("few", [[0], [3]]),
            ("outside", [[0], [3], [9]]),
            ("nonzero", [[3], [3], [6]]),
        ):
            (tmp_path / f"{name}.json").write_text(
                json.dumps({**job, "d": 1, "t_values": values})
            )
        argv, err = case(tmp_path)
        assert run_cli(argv, capsys) == (2, "", err)


class TestHugeNumbers:
    # the degree-60 bracket of (Z/2)^12 has order 2^16380, 4931 digits:
    # past the interpreter's default int-to-str limit of 4300 digits
    ARGS = ["--group", "2,2,2,2,2,2,2,2,2,2,2,2", "--d", "60"]

    def _value(self, out: str, field: str, as_json: bool) -> int:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            if as_json:
                return json.loads(out)[field]
            return int(out.splitlines()[-1].removeprefix(f"{field}: "))
        finally:
            sys.set_int_max_str_digits(limit)

    def test_gd_and_hmg_print_the_exact_value(self, capsys):
        expected = prod(graded_presentation(Group((2,) * 12), 60).moduli)
        limit = sys.get_int_max_str_digits()
        for command, field in (("gd", "size"), ("hmg", "order")):
            for as_json in (False, True):
                argv = [command, *self.ARGS] + (["--json"] if as_json else [])
                code, out, _ = run_cli(argv, capsys)
                assert code == 0
                assert self._value(out, field, as_json) == expected
                assert sys.get_int_max_str_digits() == limit


class TestBracketsFromTheCensus:
    """``hmg`` and ``gd`` read the cyclic-subgroup census and never list an
    element, up to the order cap."""

    GROUPS = ["3,3,3,3,3,3,3,3", "10,10,10,10", ",".join(["2"] * 12),
              ",".join(["2"] * 16), "9973"]
    COMMANDS = [
        ["hmg", "--d", "1"],
        ["hmg", "--d", "2"],
        ["hmg", "--d", "-1"],
        ["hmg", "--d", "0", "--target", "Z"],
        ["gd", "--d", "0"],
        ["gd", "--d", "1"],
    ]

    def test_hmg_and_gd_never_scan(self, capsys, monkeypatch):
        monkeypatch.delenv("HOMOK_CACHE_DIR", raising=False)
        argvs = [
            [cmd[0], "--group", spec, *cmd[1:]]
            for spec in self.GROUPS
            for cmd in self.COMMANDS
        ]
        unpatched = [run_cli(argv, capsys) for argv in argvs]

        def refuse(group):
            raise AssertionError(f"scanned the elements of {group.spec}")

        monkeypatch.setattr(homok.groups, "_subgroup_scan", refuse)
        graded_presentation.cache_clear()
        try:
            for argv, want in zip(argvs, unpatched):
                assert run_cli(argv, capsys) == want, argv
                assert want[0] == 0 and want[2] == ""
        finally:
            graded_presentation.cache_clear()


class TestTransferChecksEachValueOnce:
    @pytest.mark.parametrize(
        "source, target", [((5, 25), (25,)), ((81,), (27,)), ((3, 9), (9,))]
    )
    def test_cold_job_checks_no_element_twice(
        self, source, target, tmp_path, capsys, monkeypatch
    ):
        """A cold degree-1 transfer job checks each value of t once, as the
        table is built, and no element after that: the homogeneity check,
        the projection and the audit read the element scans by index."""
        rng = random.Random(23)
        src, dst = Group(source), Group(target)
        pres = graded_presentation(src, 1)
        elems = list(dst.elements())
        images = [
            rng.choice([y for y in elems if a % element_order(dst, y) == 0])
            for a in pres.moduli
        ]
        table = from_generator_values(pres, images, dst)
        job = tmp_path / "job.json"
        job.write_text(json.dumps({
            "d": 1, "source": src.spec, "target": dst.spec,
            "t_values": [list(v) for v in table.values],
            "f_coords": [rng.randrange(1000) for _ in pres.moduli],
        }))
        homok.groups._subgroup_scan.cache_clear()
        homok.groups.cyclic_subgroup_census.cache_clear()
        graded_presentation.cache_clear()
        calls = 0
        real = Group.validate_element

        def counted(group, g):
            nonlocal calls
            calls += 1
            return real(group, g)

        monkeypatch.setattr(Group, "validate_element", counted)
        code, out, err = run_cli(["transfer", "--job", str(job)], capsys)
        assert (code, err) == (0, "")
        assert "transfer of f" in out
        assert calls <= src.order


class TestDocuments:
    def test_json_builds_no_text(self, monkeypatch, capsys):
        # the text lines are built only when printed, so --json never
        # joins a chain
        monkeypatch.delenv("HOMOK_CACHE_DIR", raising=False)

        def refuse(invariants):
            raise RuntimeError("a text chain was built under --json")

        monkeypatch.setattr(cli, "_chain", refuse)
        for argv in (
            ["sk1", "--group", "3,9"],
            ["coc", "--group", "3,9"],
            ["gd", "--group", "3,9", "--d", "2"],
            ["hmg", "--group", "3,9", "--d", "2"],
        ):
            code, out, err = run_cli(argv + ["--json"], capsys)
            assert (code, err) == (0, ""), argv
            assert json.loads(out)["group"] == "3,9"

    def test_group_card(self, capsys):
        code, out, _ = run_cli(["group", "3,9,5", "--json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["canonical"] == [3, 45]
        assert doc["order"] == 135
        assert doc["exponent"] == 45
        assert doc["q"] == 16
        assert len(doc["cyclic_subgroups"]) == 16

    def test_od_oracle_agreement(self, capsys):
        code, out, _ = run_cli(["od", "--d", "3", "--k", "3", "--oracle"], capsys)
        assert code == 0
        assert out.strip() == "closed form 9, oracle 9, agreement true"

    def test_od_oracle_outlasts_the_primes_of_the_degree(self, capsys):
        # 67 - 1 divides 66, so 67 divides the first 66 terms of the fold
        code, out, _ = run_cli(["od", "--d", "66", "--k", "1", "--oracle"], capsys)
        assert (code, out) == (0, "closed form 1, oracle 1, agreement true\n")

    def test_od_oracle_over_its_budget_exits_1(self, capsys):
        code, out, err = run_cli(["od", "--d", "600", "--k", "3", "--oracle"], capsys)
        assert (code, out) == (1, "")
        assert "needs 600 terms" in err and "budget of 512" in err

    def test_od_json(self, capsys):
        code, out, _ = run_cli(
            ["od", "--d", "3", "--k", "3", "--oracle", "--json"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc == {"d": 3, "k": 3, "closed_form": 9, "oracle": 9, "agree": True}

    def test_gd_document(self, capsys):
        code, out, _ = run_cli(["gd", "--group", "9", "--d", "2", "--json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["moduli"] == [1, 3, 9]
        assert doc["invariants"] == [3, 9]
        assert doc["size"] == 27

    def test_hmg_finite_target(self, capsys):
        code, out, _ = run_cli(
            ["hmg", "--group", "3,9", "--d", "1", "--target", "3", "--json"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["invariants"] == [3] * 7
        assert doc["order"] == 3**7

    def test_degree_zero_needs_integer_target(self, capsys):
        for target in ([], ["--target", "27"]):
            argv = ["hmg", "--group", "4", "--d", "0", *target]
            code, out, err = run_cli(argv, capsys)
            assert (code, out) == (2, "")
            assert "pass --target Z" in err
        code, out, _ = run_cli(
            ["hmg", "--group", "4", "--d", "0", "--target", "Z", "--json"], capsys
        )
        assert code == 0
        assert json.loads(out)["free_rank"] == 3

    def test_sk1_trivial_cyclic(self, capsys):
        code, out, _ = run_cli(["sk1", "--group", "15", "--json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["sk1"] == []
        assert doc["theorem_4_1_applies"] is True

    def test_transfer_job_document(self, tmp_path, capsys):
        job = tmp_path / "job.json"
        job.write_text(
            json.dumps(
                {
                    "d": 1,
                    "source": "3",
                    "target": "9",
                    "t_values": [[0], [3], [6]],
                    "f_coords": [0, 1],
                }
            )
        )
        code, out, _ = run_cli(["transfer", "--job", str(job), "--json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["images"] == [[0, 0], [1, 1]]
        assert doc["sections"] == [[0, 0], [1, 1], None]
        assert doc["kernel_size"] == 1
        assert doc["transfer"] == ["0/1", "1/3", "0/1"]

    def test_json_round_trip(self, capsys):
        for argv in (
            ["sk1", "--group", "3,9,5", "--json"],
            ["gd", "--group", "3,3", "--d", "2", "--json"],
            ["coc", "--group", "3,3", "--json"],
        ):
            _, out, _ = run_cli(argv, capsys)
            doc = json.loads(out)
            assert json.dumps(doc, sort_keys=True) == out.strip()


class TestDeterminism:
    def test_sk1_byte_identical_across_runs_and_permutations(self):
        outputs = set()
        for spec in ("3,9,5", "3,9,5", "9,3,5", "5,9,3"):
            proc = subprocess.run(
                [sys.executable, "-m", "homok", "sk1", "--group", spec, "--json"],
                capture_output=True,
                check=True,
            )
            outputs.add(proc.stdout)
        assert len(outputs) == 1

    def test_table_byte_identical(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            subprocess.run(
                [
                    sys.executable, "-m", "homok", "table",
                    "--family", "p^2", "--primes", "3,5,7",
                    "--out", str(path),
                ],
                capture_output=True,
                check=True,
            )
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestVerifyCommand:
    def test_passing_suite(self, capsys):
        code, out, _ = run_cli(["verify", "--suite", "lemma212"], capsys)
        assert code == 0
        assert "3246 checks passed" in out

    def test_grid_flags(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--suite", "lemma211", "--kmax", "10", "--dmax", "4", "--json"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["suites"][0]["passed"] is True

    def test_flag_rejected_by_suite(self, capsys):
        code, _, err = run_cli(
            ["verify", "--suite", "lemma212", "--kmax", "5"], capsys
        )
        assert code == 2
        assert "does not take" in err

    def test_all_gives_each_suite_only_the_bounds_it_takes(self, capsys, monkeypatch):
        seen = {}

        def grid(kmax=5, dmax=5):
            seen["grid"] = (kmax, dmax)
            yield True, "fine"

        def fixed():
            seen["fixed"] = ()
            yield True, "fine"

        monkeypatch.setattr(verify, "SUITES", {"grid": grid, "fixed": fixed})
        code, out, err = run_cli(
            ["verify", "--suite", "all", "--kmax", "3", "--dmax", "2"], capsys
        )
        assert (code, err) == (0, "")
        assert out == "suite grid: 1 checks passed\nsuite fixed: 1 checks passed\n"
        assert seen == {"grid": (3, 2), "fixed": ()}

        # named, the suite is refused the bound before it runs
        seen.clear()
        code, out, err = run_cli(["verify", "--suite", "fixed", "--kmax", "3"], capsys)
        assert (code, out, seen) == (2, "", {})
        assert "does not take a 'kmax' parameter" in err

    @pytest.mark.parametrize(
        "bounds, named",
        [
            (["--kmax", "-3"], "--kmax -3"),
            (["--kmax", "0", "--dmax", "0"], "--kmax 0 --dmax 0"),
        ],
        ids=["kmax-negative", "both-zero"],
    )
    def test_bounds_that_select_no_checks_exit_2(self, bounds, named, capsys):
        code, out, err = run_cli(["verify", "--suite", "lemma211", *bounds], capsys)
        assert code == 2
        assert out == ""
        assert "suite lemma211 runs no checks" in err and named in err

    def test_empty_synthetic_suite_exits_2(self, capsys, monkeypatch):
        monkeypatch.setitem(verify.SUITES, "empty", lambda: iter(()))
        code, _, err = run_cli(["verify", "--suite", "empty"], capsys)
        assert code == 2
        assert "runs no checks with its default bounds" in err

    def test_failing_suite_prints_counterexample(self, capsys, monkeypatch):
        def synthetic():
            yield True, "fine"
            yield False, "broken at 7"

        monkeypatch.setitem(verify.SUITES, "synthetic", synthetic)
        code, out, _ = run_cli(["verify", "--suite", "synthetic"], capsys)
        assert code == 1
        assert "FAILED" in out
        assert "counterexample: broken at 7" in out


class TestFrontEnd:
    """The parser is built once per process; handlers and suites are looked
    up on every call."""

    ARGVS = [
        ["hmg", "--group", "3,9", "--d", "2"],
        ["gd", "--group", "2,4,4", "--d", "1", "--json"],
        ["sk1", "--group", "3,9,5"],
        ["verify", "--suite", "lemma211", "--kmax", "8", "--dmax", "3"],
    ]

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_repeated_calls_match_fresh_processes(self, capsys, monkeypatch):
        monkeypatch.delenv("HOMOK_CACHE_DIR", raising=False)
        fresh = [
            subprocess.run(
                [sys.executable, "-m", "homok", *argv], capture_output=True, check=True
            ).stdout.decode()
            for argv in self.ARGVS
        ]
        for _ in range(3):
            for argv, want in zip(self.ARGVS, fresh):
                code, out, _ = run_cli(argv, capsys)
                assert code == 0
                assert out == want

    def test_handler_patched_after_first_call_runs(self, capsys, monkeypatch):
        run_cli(["sk1", "--group", "3"], capsys)
        seen = []
        monkeypatch.setattr(cli, "cmd_sk1", lambda args: seen.append(args.group) or 0)
        code, out, _ = run_cli(["sk1", "--group", "5"], capsys)
        assert (code, out, seen) == (0, "", ["5"])

    def test_suite_added_after_first_call_runs(self, capsys, monkeypatch):
        run_cli(["verify", "--suite", "lemma211", "--kmax", "4", "--dmax", "2"], capsys)

        def late():
            yield True, "fine"

        monkeypatch.setitem(verify.SUITES, "late", late)
        code, out, _ = run_cli(["verify", "--suite", "late"], capsys)
        assert code == 0
        assert "suite late: 1 checks passed" in out

    def test_unknown_suite_exits_2(self, capsys):
        code, out, err = run_cli(["verify", "--suite", "nosuch"], capsys)
        assert code == 2
        assert out == ""
        assert "unknown suite 'nosuch'" in err and "lemma211" in err

    def test_bad_flag_exits_2_after_the_parser_was_built(self, capsys):
        cli.build_parser()
        for argv in (
            ["sk1", "--group", "3", "--bogus"],
            ["nosuch"],
            ["gd", "--d", "x"],
            ["table", "--family", "p", "--primes", "3", "--out", "-", "--workers", "2"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "usage:" in capsys.readouterr().err
        assert run_cli(["sk1", "--group", "3"], capsys)[0] == 0

    def test_import_leaves_out_the_process_pool(self):
        script = (
            "import sys, homok.cli\n"
            "homok.cli.build_parser()\n"
            "print('concurrent.futures' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True
        )
        assert proc.stdout == "False\n"

    def test_import_leaves_out_fractions(self):
        # fractions loads decimal, several milliseconds on every start
        script = (
            "import sys, homok.cli\n"
            "homok.cli.build_parser()\n"
            "print('fractions' in sys.modules, 'decimal' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True
        )
        assert proc.stdout == "False False\n"


class TestCache:
    def test_put_get_round_trip(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = ["sk1", "3,45", []]
        assert cache.get(key) is None
        cache.put(key, {"sk1": [3]})
        assert cache.get(key) == {"sk1": [3]}

    def test_version_mismatch_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = ["sk1", "27", []]
        cache.put(key, {"x": 1})
        path = Path(cache._path(key))
        entry = json.loads(path.read_text())
        entry["tool_version"] = "0.0.0-other"
        path.write_text(json.dumps(entry))
        assert cache.get(key) is None

    def test_key_collision_rejected(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put(["a", "3", []], {"x": 1})
        assert cache.get(["b", "3", []]) is None

    def test_concurrent_writers_one_winner(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = ["sk1", "3,3,3", []]
        payload = {"sk1": [3, 3, 3]}

        def hammer():
            for _ in range(50):
                cache.put(key, payload)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert cache.get(key) == payload
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []

    def test_entry_bytes_and_mode(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = ["sk1", "3,3,3", []]
        payload = {"sk1": [3, 3, 3], "q_counts": {"3": 13}}
        cache.put(key, payload)
        (path,) = tmp_path.iterdir()
        entry = {
            "key": key,
            "schema": cli.CACHE_SCHEMA,
            "tool_version": cli.__version__,
            "payload": payload,
        }
        # the format every version writes and reads: entries stay shared
        assert path.read_bytes() == json.dumps(entry, sort_keys=True).encode()
        assert path.stat().st_mode & 0o777 == 0o600

    @pytest.mark.skipif(not hasattr(os, "O_NOFOLLOW"), reason="no O_NOFOLLOW")
    def test_symlink_at_the_temp_name_is_not_followed(self, tmp_path, capsys):
        cachedir = tmp_path / "cache"
        argv = ["sk1", "--group", "3,3,3", "--cache", str(cachedir)]
        _, want, _ = run_cli(["sk1", "--group", "3,3,3"], capsys)
        victim = tmp_path / "victim"
        victim.write_text("untouched")
        cachedir.mkdir()
        path = ResultCache(str(cachedir))._path(["sk1", "3,3,3", []])
        tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
        os.symlink(victim, tmp)
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (0, want)
        assert err.count("\n") == 1 and err.startswith("warning: cache directory")
        assert victim.read_text() == "untouched"
        assert list(cachedir.iterdir()) == []
        # the skipped write left nothing behind; the next call caches
        assert run_cli(argv, capsys) == (0, want, "")
        assert [p.suffix for p in cachedir.iterdir()] == [".json"]

    def test_unwritable_directory_warns_and_disables(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code, out, err = run_cli(
            ["sk1", "--group", "15", "--cache", str(blocker / "sub")], capsys
        )
        assert code == 0
        assert "caching disabled" in err

    def test_failed_write_warns_on_every_call(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        for _ in range(3):
            code, _, err = run_cli(
                ["gd", "--group", "15", "--d", "1", "--cache", str(blocker / "sub")],
                capsys,
            )
            assert code == 0
            assert err.count("\n") == 1 and err.endswith("; caching disabled\n")

    def test_directory_removed_between_calls_is_recreated(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.delenv("HOMOK_CACHE_DIR", raising=False)
        # the first write makes the directory, parents and all
        cachedir = tmp_path / "a" / "cache"
        argv = ["hmg", "--group", "3,9,5", "--d", "2", "--json"]
        assert run_cli(argv + ["--cache", str(cachedir)], capsys)[0] == 0
        assert len(list(cachedir.iterdir())) == 1
        shutil.rmtree(cachedir)
        _, want, _ = run_cli(argv, capsys)
        # the entry is gone: the answer is computed, and its write recreates
        # the directory and stores it; the next call is a hit
        assert run_cli(argv + ["--cache", str(cachedir)], capsys) == (0, want, "")
        assert len(list(cachedir.iterdir())) == 1

        def refuse(*args):
            raise AssertionError("the entry was not served")

        monkeypatch.setattr(cli, "graded_presentation", refuse)
        assert run_cli(argv + ["--cache", str(cachedir)], capsys) == (0, want, "")

    # sk1, coc and table on 3,3,3 share one cache entry, the sk1 document
    SK1 = ["sk1", "--group", "3,3,3", "--json"]
    COC = ["coc", "--group", "3,3,3", "--json"]
    TABLE = ["table", "--family", "p^3", "--primes", "3", "--out", "-"]

    def _corrupt_and_rerun(self, tmp_path, capsys, corrupt, reader=SK1):
        """Overwrite the sk1 entry with ``corrupt(entry)``: JSON, which must
        be a warned miss, or raw bytes that are no JSON entry at all, which
        must be a silent miss."""
        cache = ["--cache", str(tmp_path / "cache")]
        _, want, _ = run_cli(reader, capsys)
        assert run_cli(self.SK1 + cache, capsys)[0] == 0
        (path,) = (tmp_path / "cache").iterdir()
        entry = json.loads(path.read_text())
        data = corrupt(entry)
        raw = isinstance(data, bytes)
        path.write_bytes(data if raw else json.dumps(data).encode())
        code, second, err = run_cli(reader + cache, capsys)
        assert code == 0
        assert second == want
        if raw:
            assert err == ""
        else:
            assert err.count("\n") == 1 and "malformed cache entry" in err
        # the entry was rewritten: the next call is a quiet hit
        assert json.loads(path.read_text()) == entry
        assert run_cli(reader + cache, capsys) == (0, want, "")

    @staticmethod
    def _set_field(field, value):
        def corrupt(entry):
            entry = json.loads(json.dumps(entry))
            entry["payload"][field] = value
            return entry

        return corrupt

    def test_payload_missing_a_field_is_a_miss(self, tmp_path, capsys):
        def drop_hmg(entry):
            entry = json.loads(json.dumps(entry))
            del entry["payload"]["hmg"]
            return entry

        self._corrupt_and_rerun(tmp_path, capsys, drop_hmg)

    def test_entry_that_is_a_list_is_a_miss(self, tmp_path, capsys):
        self._corrupt_and_rerun(tmp_path, capsys, lambda entry: [entry])

    @pytest.mark.parametrize(
        "data",
        [b"{not json", b"\xff\xfe garbage", b"[" * 200_000],
        ids=["not-json", "not-utf8", "nested-too-deep"],
    )
    def test_entry_that_cannot_be_parsed_is_a_miss(self, data, tmp_path, capsys):
        self._corrupt_and_rerun(tmp_path, capsys, lambda entry: data)

    @pytest.mark.parametrize(
        "reader, field, value",
        [
            (SK1, "sk1", [True]),
            (SK1, "hmg", [3, "3"]),
            (SK1, "q_counts", {"3": "13"}),
            (SK1, "theorem_4_1_applies", 1),
            (COC, "coc", [True]),
            (TABLE, "sk1", [True]),
            (SK1, "note", "stale"),
        ],
        ids=[
            "sk1-bool", "hmg-str", "q_counts-str", "flag-int", "coc-bool", "table",
            "extra-key",
        ],
    )
    def test_field_of_wrong_element_type_is_a_miss(
        self, reader, field, value, tmp_path, capsys
    ):
        self._corrupt_and_rerun(tmp_path, capsys, self._set_field(field, value), reader)

    def test_coc_recomputes_a_corrupted_sk1_entry(self, tmp_path, capsys):
        self._corrupt_and_rerun(tmp_path, capsys, self._set_field("coc", 5), self.COC)

    def test_coc_and_table_reuse_the_sk1_entry(self, tmp_path, capsys, monkeypatch):
        cachedir = tmp_path / "cache"
        cache = ["--cache", str(cachedir)]
        _, want_coc, _ = run_cli(self.COC, capsys)
        _, want_table, _ = run_cli(self.TABLE, capsys)
        assert run_cli(self.SK1 + cache, capsys)[0] == 0

        def refuse(group):
            raise AssertionError("the sk1 entry was not reused")

        monkeypatch.setattr(cli, "sk1_invariants", refuse)
        assert run_cli(self.COC + cache, capsys) == (0, want_coc, "")
        assert run_cli(self.TABLE + cache, capsys) == (0, want_table, "")
        assert len(list(cachedir.iterdir())) == 1

    def test_entry_of_another_schema_is_a_silent_miss(
        self, tmp_path, capsys, monkeypatch
    ):
        cachedir = tmp_path / "cache"
        argv = ["sk1", "--group", "3,3,3", "--json", "--cache", str(cachedir)]
        monkeypatch.setattr(cli, "CACHE_SCHEMA", cli.CACHE_SCHEMA - 1)
        run_cli(argv, capsys)
        monkeypatch.undo()
        (old_path,) = cachedir.iterdir()
        # a wrong answer stored under the older schema is never served
        entry = json.loads(old_path.read_text())
        entry["payload"]["sk1"] = [7]
        old_path.write_text(json.dumps(entry))
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, "")
        assert json.loads(out)["sk1"] == [3, 3, 3]
        # nor one found under the current key: a miss, without a warning
        (new_path,) = set(cachedir.iterdir()) - {old_path}
        new_path.write_text(json.dumps({**entry, "payload": ["not", "a", "dict"]}))
        assert run_cli(argv, capsys) == (0, out, "")

    @pytest.mark.parametrize(
        "argv",
        [
            ["gd", "--group", "3,9", "--d", "0"],
            ["gd", "--group", "3,9", "--d", "2"],
            ["hmg", "--group", "3,9", "--d", "0", "--target", "Z"],
            ["hmg", "--group", "3,9", "--d", "2"],
            ["hmg", "--group", "3,9", "--d", "-1", "--target", "9"],
        ],
        ids=["gd-0", "gd-2", "hmg-0-Z", "hmg-2", "hmg-group-target"],
    )
    def test_gd_and_hmg_entries_are_quiet_hits(self, argv, tmp_path, capsys, monkeypatch):
        # every key of the document is one of its fields: no entry is stale
        argv = argv + ["--json", "--cache", str(tmp_path / "cache")]
        code, want, err = run_cli(argv, capsys)
        assert (code, err) == (0, "")

        def refuse(*args):
            raise AssertionError("the entry was not served")

        monkeypatch.setattr(cli, "graded_presentation", refuse)
        assert run_cli(argv, capsys) == (0, want, "")

    def test_cache_used_by_cli(self, tmp_path, capsys):
        cachedir = tmp_path / "cache"
        argv = ["sk1", "--group", "3,3", "--json", "--cache", str(cachedir)]
        _, first, _ = run_cli(argv, capsys)
        assert len(list(cachedir.iterdir())) == 1
        _, second, _ = run_cli(argv, capsys)
        assert first == second


class TestTable:
    def test_header_and_rows(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code, _, _ = run_cli(
            ["table", "--family", "p^2", "--primes", "3,5,7",
             "--out", str(out)],
            capsys,
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "prime,group,hmg,coc_order,sk1,theorem_4_1_applies"
        assert lines[1] == '3,"3,3",3;3;3;3,81,,true'
        assert len(lines) == 4

    def test_even_row_flagged(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code, _, _ = run_cli(
            ["table", "--family", "p", "--primes", "2,3",
             "--out", str(out)],
            capsys,
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "2,2,2,2,,false"
        assert lines[2] == "3,3,3,3,,true"

    def test_cap_exceeded_row_skipped(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code, _, err = run_cli(
            ["table", "--family", "p**7", "--primes", "3,7",
             "--out", str(out)],
            capsys,
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2  # header + p=3 (2187); 7^7 is over the cap
        assert lines[1].startswith("3,2187,")
        assert "skipping p=7" in err

    def test_unopenable_out_fails_before_any_row(self, tmp_path, capsys, monkeypatch):
        def refuse(group):
            raise AssertionError("a row was computed")

        monkeypatch.setattr(cli, "sk1_invariants", refuse)
        out = tmp_path / "missing" / "t.csv"
        code, stdout, err = run_cli(
            ["table", "--family", "p", "--primes", "3", "--out", str(out)], capsys
        )
        assert (code, stdout) == (2, "")
        assert err.count("\n") == 1 and err.startswith("error: cannot open --out")

    def test_family_grammar(self):
        def factors(family, p):
            return _family_factors(_family_template(family), p)

        assert factors("p", 5) == [5]
        assert factors("p^3", 3) == [3, 3, 3]
        assert factors("p**2,p**2", 3) == [9, 9]
        assert factors("p^2,p^2", 5) == [25, 25]
        assert factors("p,9", 5) == [5, 9]
        with pytest.raises(Exception, match="family term"):
            _family_template("p+1")

    # sha256 of the CSV over the primes 2..13, one per family
    CSV_SHA256 = {
        "p^3": "d61e5f7485b3f6edc56976f0dd349eae5eda1099cea059036dc0d029faf36672",
        "p,p^2": "71ab21b7ac3395f75647f692f4a0bb2a92ea26cd1a3ecbb36f7123de291979d5",
        "p^2,p^2": "672e15f0aa76f1644981c0392aca916ef00bb5b578e225bdd3909ae917de8347",
        "p,p,p^2": "ee80e7a40d9463ae0209b000889e628be4c1021b0ee374baca263d5ad1121059",
        "p^4": "2ce9e01c6ff3f4b71ef5c19077b6ac2aa170d8b114d41d9b028fa14cd5fc4d82",
        "p,9": "6690fa06d859471d9c5463ce8e6508234f9b6cf89d6a17891524bd14278ddda2",
        "p**7": "f93018c33bca2100da19729dd41a0b0e433d5a88e0d9730559c211c7ce2946ee",
    }

    @pytest.mark.parametrize("family", sorted(CSV_SHA256))
    def test_csv_is_pinned(self, family, capsys, monkeypatch):
        monkeypatch.delenv("HOMOK_CACHE_DIR", raising=False)
        code, out, _ = run_cli(
            ["table", "--family", family, "--primes", "2..13", "--out", "-"], capsys
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.CSV_SHA256[family]

    @pytest.mark.parametrize("family", ["p**1000000", "p**10000000", "p^10000000"])
    def test_over_cap_rows_skip_in_bounded_time(self, family):
        """A row is refused from its exponents: no power of p, no product
        and no digits of the order are built, so the skip is quick and short."""
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "homok", "table", "--family", family,
             "--primes", "3,5", "--out", "-"],
            capture_output=True, text=True, timeout=20,
        )
        assert time.perf_counter() - start < 1
        assert proc.returncode == 0
        assert proc.stdout == "prime,group,hmg,coc_order,sk1,theorem_4_1_applies\n"
        lines = proc.stderr.splitlines()
        assert [line.split(":")[0] for line in lines] == ["skipping p=3", "skipping p=5"]
        assert all(len(line) < 200 for line in lines)

    @pytest.mark.parametrize(
        "family, primes",
        [("p**20", "2..100000000"), ("p", "1000000000000000003")],
    )
    def test_primes_over_the_cap_exit_2_in_bounded_time(self, family, primes):
        """A span or a token above the cap is refused before any candidate
        is trial-divided: every row of it could only be skipped."""
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "homok", "table", "--family", family,
             "--primes", primes, "--out", "-"],
            capture_output=True, text=True, timeout=20,
        )
        assert time.perf_counter() - start < 1
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith(f"error: --primes {primes!r}: ")
        assert "above the cap of 100000" in proc.stderr

    def test_primes_grammar(self):
        assert _parse_primes("3,5,7") == [3, 5, 7]
        assert _parse_primes("3..31") == [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
        with pytest.raises(Exception, match="not a prime"):
            _parse_primes("3,4")

    @pytest.mark.parametrize(
        "primes, reason",
        [
            ("10..2", "'10..2' needs distinct primes, one or more"),
            ("8..10", "'8..10' needs distinct primes, one or more"),
            ("3,3", "'3,3' needs distinct primes, one or more"),
            ("5, 3,5", "'5, 3,5' needs distinct primes, one or more"),
        ],
    )
    def test_empty_or_repeated_primes_exit_2(self, primes, reason, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code, stdout, err = run_cli(
            ["table", "--family", "p", "--primes", primes, "--out", str(out)],
            capsys,
        )
        assert (code, stdout) == (2, "")
        assert err == f"error: --primes {reason}\n"
        assert not out.exists()
