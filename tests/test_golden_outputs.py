"""Byte-identical outputs: the sha256 of stdout of ``sk1``, ``coc``,
``hmg --d 1``, ``hmg --d 2`` and ``gd --d 2``, text and ``--json``, on every
abelian group of order <= 200, against the digests in ``golden_outputs.txt``
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


def _argvs(commands):
    for group in all_abelian_groups(200):
        for command, *rest in commands:
            for extra in ([], ["--json"]):
                yield [command, "--group", group.canonical_spec, *rest, *extra]


def _digests(commands):
    """``{argv as one line: digest}`` of every output of ``commands``,
    computed in process with no result cache."""
    digests = {}
    for argv in _argvs(commands):
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


def _check_slice(commands, count, monkeypatch):
    """Every output of ``commands`` (``count`` of them) has its recorded
    digest; the file holds both slices and nothing else."""
    monkeypatch.delenv("HOMOK_CACHE_DIR", raising=False)
    recorded = _recorded()
    assert len(recorded) == 1556 + 2334
    got = _digests(commands)
    assert len(got) == count
    changed = [argv for argv in got if got[argv] != recorded.get(argv)]
    assert not changed, f"{len(changed)} outputs changed, first: {changed[:5]}"


def test_sk1_and_coc_outputs_match_the_golden_digests(monkeypatch):
    _check_slice(SK1_COC, 1556, monkeypatch)


def test_hmg_and_gd_outputs_match_the_golden_digests(monkeypatch):
    _check_slice(HMG_GD, 2334, monkeypatch)


if __name__ == "__main__":
    os.environ.pop("HOMOK_CACHE_DIR", None)
    for argv, digest in _digests(SK1_COC + HMG_GD).items():
        print(f"{digest} {argv}")
