"""Byte-identical outputs: the sha256 of stdout of ``sk1`` and ``coc``, text
and ``--json``, on every abelian group of order <= 200, against the digests
in ``golden_outputs.txt`` (the first 16 hex digits, one line per argv).

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


def _argvs():
    for group in all_abelian_groups(200):
        for command in ("sk1", "coc"):
            for extra in ([], ["--json"]):
                yield [command, "--group", group.canonical_spec, *extra]


def _digests():
    """``{argv as one line: digest}`` of every output, computed in process
    with no result cache."""
    digests = {}
    for argv in _argvs():
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


def test_sk1_and_coc_outputs_match_the_golden_digests(monkeypatch):
    monkeypatch.delenv("HOMOK_CACHE_DIR", raising=False)
    recorded = _recorded()
    assert len(recorded) == 1556
    got = _digests()
    assert got.keys() == recorded.keys()
    changed = [argv for argv in recorded if got[argv] != recorded[argv]]
    assert not changed, f"{len(changed)} outputs changed, first: {changed[:5]}"


if __name__ == "__main__":
    os.environ.pop("HOMOK_CACHE_DIR", None)
    for argv, digest in _digests().items():
        print(f"{digest} {argv}")
