"""Byte-identical outputs: the sha256 of stdout of ``sk1``, ``coc``,
``hmg --d 1``, ``hmg --d 2`` and ``gd --d 2``, text and ``--json``, on every
abelian group of order <= 200, and of ``sk1`` and ``coc`` on four larger
groups of the stage table, against the digests in ``golden_outputs.txt``
(the exit code and the first 16 hex digits, one line per argv).

Only a change that means to change output rewrites that file, with
``PYTHONPATH=src python tests/test_golden_outputs.py > tests/golden_outputs.txt``,
and says in ``CHANGES.md`` which outputs changed and why.
"""

import contextlib
import hashlib
import io
import os
from pathlib import Path

from homok.cli import main
from homok.groups import all_abelian_groups

GOLDEN = Path(__file__).with_name("golden_outputs.txt")

# each slice is a list of subcommands, each with its arguments after --group
SK1_COC = (["sk1"], ["coc"])
HMG_GD = (["hmg", "--d", "1"], ["hmg", "--d", "2"], ["gd", "--d", "2"])

# every group of order <= 200, and the stage-table groups that read their
# own lattice in under 0.5 s
SMALL = [group.canonical_spec for group in all_abelian_groups(200)]
STAGE = ["9,9,9", "2,2,4,4,8", "9,9,27", "9,9,81"]


def _argvs(commands, specs):
    for spec in specs:
        for command, *rest in commands:
            for extra in ([], ["--json"]):
                yield [command, "--group", spec, *rest, *extra]


def _digests(commands, specs):
    """``{argv as one line: digest}`` of every output of ``commands`` on
    ``specs``, computed in process with no result cache."""
    digests = {}
    for argv in _argvs(commands, specs):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        line = " ".join(argv)
        digests[line] = f"{code} {hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]}"
    return digests


def _recorded():
    recorded = {}
    for line in GOLDEN.read_text(encoding="utf-8").splitlines():
        code, digest, argv = line.split(" ", 2)
        recorded[argv] = f"{code} {digest}"
    return recorded


def _check_slice(commands, specs, count, monkeypatch):
    """Every output of ``commands`` on ``specs`` (``count`` of them) has its
    recorded digest; the file holds the three slices and nothing else."""
    monkeypatch.delenv("HOMOK_CACHE_DIR", raising=False)
    recorded = _recorded()
    assert len(recorded) == 1556 + 2334 + 16
    got = _digests(commands, specs)
    assert len(got) == count
    changed = [argv for argv in got if got[argv] != recorded.get(argv)]
    assert not changed, f"{len(changed)} outputs changed, first: {changed[:5]}"


def test_sk1_and_coc_outputs_match_the_golden_digests(monkeypatch):
    _check_slice(SK1_COC, SMALL, 1556, monkeypatch)


def test_hmg_and_gd_outputs_match_the_golden_digests(monkeypatch):
    _check_slice(HMG_GD, SMALL, 2334, monkeypatch)


def test_stage_table_outputs_match_the_golden_digests(monkeypatch):
    _check_slice(SK1_COC, STAGE, 16, monkeypatch)


if __name__ == "__main__":
    os.environ.pop("HOMOK_CACHE_DIR", None)
    digests = _digests(SK1_COC + HMG_GD, SMALL) | _digests(SK1_COC, STAGE)
    for argv, digest in digests.items():
        print(f"{digest} {argv}")
