"""Command-line front end.

Subcommands report on groups, higher orders, graded brackets and their
scalar function groups, the cocyclic lattice and its quotient, transfer
jobs, the verification suites, and CSV tables over prime families.

Exit codes: 0 on success, 1 on computation failures (cap exceeded, a
refused transfer job, a failing suite, an oracle degree over its budget
of 512 terms, a broken internal check), 2 on usage errors (bad flags,
malformed group specs or job files).

A handler returns 0 or 1, or raises: it never writes ``error: ...``
itself. ``main`` is the one place that turns an exception into that line
on stderr and picks its exit code; a usage error is a ``GroupSpecError``,
and any other ``ValueError`` is a bug, left to its traceback.

A result cache problem only costs a miss: the write that needs the cache
directory makes it, and a write that fails is skipped with one warning.
"""

from __future__ import annotations

import _thread
import argparse
import csv
import functools
import hashlib
import json
import os
import re
import sys
from math import prod

from . import __version__, verify
from .arith import is_prime
from .bracket import Target, graded_presentation, hom_invariants
from .cocyclic import sk1_invariants
from .functions import FunctionTable
from .groups import (
    DEFAULT_CAP,
    CapExceededError,
    Group,
    GroupSpecError,
    InternalInvariantError,
    RationalResidue,
    cyclic_subgroup_census,
    cyclic_subgroup_count,
    cyclic_subgroups,
    invariant_factors_from_orders,
    parse_group_spec,
)
from .orders import OracleStabilizationError, higher_order, higher_order_oracle
from .transfer import TransferError, induced_graded_map, transfer_apply


# -- result cache -----------------------------------------------------------

# Part of every cache key and entry. Bump it whenever an algorithm or a
# payload changes, so results of the old code are never served: entries
# written under another schema are silent misses.
CACHE_SCHEMA = 3

# a temp file planted as a symlink is not written through, where the
# platform can refuse one
_TMP_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | getattr(os, "O_NOFOLLOW", 0)


def _well_typed(value, kind: type) -> bool:
    """``value`` is of type ``kind`` exactly (so ``True`` is no int); a
    list holds only ints, and a dict maps strings to ints."""
    if type(value) is not kind:
        return False
    if kind is list:
        return all(type(x) is int for x in value)
    if kind is dict:
        return all(type(k) is str and type(v) is int for k, v in value.items())
    return True


class ResultCache:
    """Keyed JSON store under one directory; writes are atomic and reads
    reject entries from other tool versions and cache schemas. An entry of
    the wrong shape or element types is a miss, with a warning, and so is
    a missing directory, silently. The write that needs the directory
    makes it; a write that fails anyway is skipped, with one warning."""

    def __init__(self, root: str):
        self.root = root

    @staticmethod
    def from_args(args) -> "ResultCache | None":
        root = getattr(args, "cache", None) or os.environ.get("HOMOK_CACHE_DIR")
        return ResultCache(root) if root else None

    def _path(self, key) -> str:
        blob = json.dumps([CACHE_SCHEMA, key], sort_keys=True)
        return os.path.join(
            self.root, hashlib.sha256(blob.encode()).hexdigest()[:32] + ".json"
        )

    def get(self, key):
        # an entry that is not UTF-8 or not JSON (both ValueError), or that
        # is nested past the recursion limit, is a miss, like a missing file
        try:
            with open(self._path(key), encoding="utf-8") as fh:
                entry = json.load(fh)
        except (OSError, ValueError, RecursionError):
            return None
        if not isinstance(entry, dict):
            return self._malformed(key)
        normalized = json.loads(json.dumps(key))
        if (
            entry.get("tool_version") != __version__
            or entry.get("schema") != CACHE_SCHEMA
            or entry.get("key") != normalized
        ):
            return None
        return entry.get("payload")

    def lookup(self, key, fields):
        """The cached payload if it is a dict whose keys are exactly those
        of ``fields`` (name -> type, see ``_well_typed``), each well typed,
        else None: any other payload is a miss, with a warning."""
        payload = self.get(key)
        if payload is None or (
            isinstance(payload, dict)
            and payload.keys() == fields.keys()
            and all(_well_typed(payload[k], t) for k, t in fields.items())
        ):
            return payload
        return self._malformed(key)

    def _malformed(self, key) -> None:
        print(
            f"warning: ignoring malformed cache entry {self._path(key)}; recomputing",
            file=sys.stderr,
        )
        return None

    def put(self, key, payload) -> None:
        entry = {
            "key": key,
            "schema": CACHE_SCHEMA,
            "tool_version": __version__,
            "payload": payload,
        }
        data = json.dumps(entry, sort_keys=True).encode()
        path = self._path(key)
        # one temp name per process and thread: a thread has one put at a time
        tmp = f"{path}.{os.getpid()}.{_thread.get_ident()}.tmp"
        try:
            try:
                fd = os.open(tmp, _TMP_FLAGS, 0o600)
            except FileNotFoundError:
                # the first write, or the directory went away: make it
                os.makedirs(self.root, exist_ok=True)
                fd = os.open(tmp, _TMP_FLAGS, 0o600)
            with open(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except OSError as exc:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            print(
                f"warning: cache directory {self.root!r} is not writable "
                f"({exc}); caching disabled",
                file=sys.stderr,
            )


def _cached(cache, kind: str, group: Group, params, fields, compute):
    """Serve a canonical-class document from ``cache`` (or compute it, if
    ``cache`` is None).

    Cached payloads are keyed on the invariant-factor spec, so handlers
    must only put class-invariant data (sorted multisets, canonical
    chains) into them. ``fields`` lists every key of the document, with
    its type; a cached payload with other keys or types is recomputed.
    """
    key = [kind, group.canonical_spec, params]
    if cache is not None:
        hit = cache.lookup(key, fields)
        if hit is not None:
            return hit
    document = compute()
    if cache is not None:
        cache.put(key, document)
    return document


# -- emission ---------------------------------------------------------------


def _emit(args, document, lines) -> None:
    """``document`` as JSON, or the text ``lines()``, built only to print."""
    if args.json:
        print(json.dumps(document, sort_keys=True))
    else:
        for line in lines():
            print(line)


def _chain(invariants) -> str:
    return ",".join(str(n) for n in invariants) if invariants else "1"


# -- subcommands ------------------------------------------------------------


def cmd_group(args) -> int:
    group = parse_group_spec(args.spec)
    records = cyclic_subgroups(group)
    document = {
        "spec": group.spec,
        "canonical": list(group.invariant_factors),
        "order": group.order,
        "exponent": group.exponent,
        "q": len(records),
        "cyclic_subgroups": [
            {"order": rec.subgroup_order, "generator": list(rec.canonical_generator)}
            for rec in records
        ],
    }
    _emit(args, document, lambda: [
        f"group: {group.spec}",
        f"canonical: {group.canonical_spec}",
        f"order: {group.order}",
        f"exponent: {group.exponent}",
        f"cyclic subgroups: q = {len(records)}",
    ] + [
        f"  order {rec.subgroup_order:>4}  generator {rec.canonical_generator}"
        for rec in records
    ])
    return 0


def cmd_od(args) -> int:
    closed = higher_order(args.d, args.k)
    document = {"d": args.d, "k": args.k, "closed_form": closed}
    if not args.oracle:
        _emit(args, document, lambda: [f"o_{args.d}({args.k}) = {closed}"])
        return 0
    sampled = higher_order_oracle(args.d, args.k)
    agree = sampled == closed
    document["oracle"] = sampled
    document["agree"] = agree
    _emit(
        args,
        document,
        lambda: [
            f"closed form {closed}, oracle {sampled}, agreement {str(agree).lower()}"
        ],
    )
    return 0 if agree else 1


def cmd_gd(args) -> int:
    group = parse_group_spec(args.group)

    def compute():
        pres = graded_presentation(group, args.d)
        moduli = sorted(pres.moduli)
        document = {
            "group": group.canonical_spec,
            "degree": args.d,
            "moduli": moduli,
            "invariants": list(invariant_factors_from_orders(moduli)),
        }
        if args.d == 0:
            document["free_rank"] = pres.free_rank
        else:
            document["size"] = pres.size()
        return document

    fields = {
        "group": str,
        "degree": int,
        "moduli": list,
        "invariants": list,
        "free_rank" if args.d == 0 else "size": int,
    }
    cache = ResultCache.from_args(args)
    document = _cached(cache, "gd", group, [args.d], fields, compute)
    _emit(args, document, lambda: [
        f"bracket of {group.canonical_spec} at degree {args.d}",
        f"summand orders: {document['moduli']}",
        f"invariants: {_chain(document['invariants'])}",
        f"free rank: {document['free_rank']}"
        if args.d == 0
        else f"size: {document['size']}",
    ])
    return 0


def _parse_target(text: str):
    if text == "QZ":
        return Target.QZ, "QZ"
    if text == "Z":
        return Target.Z, "Z"
    target = parse_group_spec(text)
    return target.invariant_factors, target.canonical_spec


def cmd_hmg(args) -> int:
    group = parse_group_spec(args.group)
    target, target_name = _parse_target(args.target)
    if args.d == 0 and target is not Target.Z:
        raise GroupSpecError(
            "degree-0 homogeneous functions take values in Z; pass --target Z"
        )

    def compute():
        invariants = hom_invariants(graded_presentation(group, args.d), target)
        document = {
            "group": group.canonical_spec,
            "degree": args.d,
            "target": target_name,
            "invariants": list(invariants),
        }
        if invariants and all(n == 0 for n in invariants):
            document["free_rank"] = len(invariants)
        else:
            document["order"] = prod(invariants) if invariants else 1
        return document

    # only degree 0 (into Z) has a free result; see hom_invariants
    fields = {
        "group": str,
        "degree": int,
        "target": str,
        "invariants": list,
        "free_rank" if args.d == 0 else "order": int,
    }
    cache = ResultCache.from_args(args)
    document = _cached(cache, "hmg", group, [args.d, target_name], fields, compute)
    _emit(args, document, lambda: [
        f"homogeneous functions on {group.canonical_spec}, degree {args.d}, "
        f"target {target_name}",
        f"invariants: {_chain(document['invariants'])}",
        f"free rank: {document['free_rank']}"
        if "free_rank" in document
        else f"order: {document['order']}",
    ])
    return 0


SK1_FIELDS = {
    "group": str,
    "hmg": list,
    "coc": list,
    "sk1": list,
    "theorem_4_1_applies": bool,
    "q_counts": dict,
}


def _sk1_document(cache, group: Group) -> dict:
    """The ``sk1`` document of ``group``: the one cache entry that ``sk1``,
    ``coc`` and ``table`` all read and write."""
    return _cached(
        cache, "sk1", group, [], SK1_FIELDS, lambda: sk1_invariants(group).to_json_dict()
    )


def cmd_coc(args) -> int:
    group = parse_group_spec(args.group)
    coc = _sk1_document(ResultCache.from_args(args), group)["coc"]
    # each kernel's quotient is cyclic, of the order of the cyclic subgroup
    # of the dual (= G) that indexes it: the profile is the census
    census = cyclic_subgroup_census(group)
    document = {
        "group": group.canonical_spec,
        "count": sum(c for _, c in census),
        "quotient_profile": [[m, c] for m, c in census],
        "coc": coc,
        "coc_order": prod(coc),
    }
    _emit(args, document, lambda: [
        f"cocyclic subgroups of {group.canonical_spec}: {document['count']}",
        "cyclic quotient orders: "
        + ", ".join(f"{q} (x{n})" for q, n in document["quotient_profile"]),
        f"lattice invariants: {_chain(coc)}",
        f"lattice order: {document['coc_order']}",
    ])
    return 0


def cmd_sk1(args) -> int:
    group = parse_group_spec(args.group)
    document = _sk1_document(ResultCache.from_args(args), group)
    _emit(args, document, lambda: [
        f"group: {document['group']}",
        f"scalar invariants: {_chain(document['hmg'])}",
        f"cocyclic lattice: {_chain(document['coc'])}",
        f"quotient: {_chain(document['sk1'])}",
        f"theorem 4.1 applies: {str(document['theorem_4_1_applies']).lower()}",
    ])
    return 0


def _job_int(value) -> int:
    """A job field that must be a JSON integer: no float, bool or string."""
    if type(value) is not int:
        raise TypeError(f"{value!r} is not an integer")
    return value


def cmd_transfer(args) -> int:
    try:
        with open(args.job, encoding="utf-8") as fh:
            job = json.load(fh)
    except OSError as exc:
        raise GroupSpecError(f"cannot read job file: {exc}") from exc
    except ValueError as exc:  # not UTF-8, or not JSON
        raise GroupSpecError(f"job file is not JSON: {exc}") from exc
    try:
        degree = _job_int(job["d"])
        source = parse_group_spec(str(job["source"]))
        target = parse_group_spec(str(job["target"]))
        values = tuple(tuple(_job_int(c) for c in v) for v in job["t_values"])
        f_coords = job.get("f_coords")
        if f_coords is not None:
            if type(f_coords) is not list:
                raise TypeError(f"f_coords {f_coords!r} is not a list")
            f_coords = [_job_int(c) for c in f_coords]
    except (KeyError, TypeError, ValueError) as exc:
        raise GroupSpecError(
            'job needs "d" (an integer), "source", "target" and '
            '"t_values" (one list of integers per source element), and may '
            f'have "f_coords" (a list of integers): {exc}'
        ) from exc
    summands = cyclic_subgroup_count(source)
    if f_coords is not None and len(f_coords) != summands:
        raise GroupSpecError(
            f"f_coords needs {summands} entries, one per source summand, "
            f"got {len(f_coords)}"
        )

    try:
        table = FunctionTable(source, degree, values, target)
    except ValueError as exc:
        raise GroupSpecError(str(exc)) from exc
    mapping = induced_graded_map(table)
    document = {
        "d": degree,
        "source": source.canonical_spec,
        "target": target.canonical_spec,
        "source_moduli": list(mapping.source.moduli),
        "target_moduli": list(mapping.target.moduli),
        "images": [list(image) for image in mapping.images],
        "sections": [list(s) if s else None for s in mapping.sections],
        "kernel_size": mapping.kernel_size,
    }
    if f_coords is not None:
        f = tuple(
            RationalResidue.of(c, m) if m > 1 else RationalResidue(0, 1)
            for c, m in zip(f_coords, mapping.source.moduli)
        )
        out = transfer_apply(mapping, f)
        document["transfer"] = [str(v) for v in out]
    _emit(args, document, lambda: [
        f"induced map on degree-{degree} brackets: "
        f"{source.canonical_spec} -> {target.canonical_spec}",
        f"source summand orders: {document['source_moduli']}",
        f"target summand orders: {document['target_moduli']}",
        f"kernel size: {mapping.kernel_size}",
    ] + ([] if f_coords is None else [f"transfer of f: {document['transfer']}"]))
    return 0


def cmd_verify(args) -> int:
    # a name is checked by run_suite, not by argparse choices: the parser is
    # built once, and suites may be registered after that
    names = tuple(verify.SUITES) if args.suite == "all" else (args.suite,)
    given = {"kmax": args.kmax, "dmax": args.dmax, "seed": args.seed}
    reports = []
    code = 0
    for name in names:
        # under "all", each suite gets only the bounds it takes; a named
        # suite gets them all, and run_suite refuses one it does not take
        params = given
        if args.suite == "all":
            taken = verify.suite_parameters(name)
            params = {k: v for k, v in given.items() if k in taken}
        result = verify.run_suite(name, **params)
        if result.checks == 0:
            bounds = " ".join(
                f"--{flag} {params[flag]}"
                for flag in ("kmax", "dmax")
                if params.get(flag) is not None
            )
            raise GroupSpecError(
                f"suite {name} runs no checks with {bounds or 'its default bounds'}"
            )
        reports.append(
            {
                "suite": name,
                "checks": result.checks,
                "passed": result.passed,
                "counterexample": result.counterexample,
            }
        )
        if not args.json:
            if result.passed:
                print(f"suite {name}: {result.checks} checks passed")
            else:
                print(f"suite {name}: FAILED at check {result.checks}")
                print(f"counterexample: {result.counterexample}")
        if not result.passed:
            code = 1
            break
    if args.json:
        print(json.dumps({"suites": reports}, sort_keys=True))
    return code


# -- table generation -------------------------------------------------------


def _family_template(family: str) -> tuple[list[tuple[int, int]], list[int]]:
    """Parse a family template, once for all its primes.

    A bare ``p^n`` is elementary abelian of rank n; otherwise the template
    is comma-separated terms, each ``p``, ``p**e`` / ``p^e`` (the cyclic
    factor of order p^e), or an integer constant. Returns the p-power
    factors as (e, how many) pairs, and the constants.
    """
    fam = family.strip()
    whole = re.fullmatch(r"p\^([0-9]+)", fam)
    if whole:
        return [(1, int(whole.group(1)))], []
    powers, constants = [], []
    for term in fam.split(","):
        term = term.strip()
        power = re.fullmatch(r"p(?:(?:\*\*|\^)([0-9]+))?", term)
        if power:
            powers.append((int(power.group(1) or 1), 1))
        elif term.isascii() and term.isdigit() and int(term) >= 1:
            constants.append(int(term))
        else:
            raise GroupSpecError(
                f"bad family term {term!r}: expected p, p**e, p^e, or an integer"
            )
    return powers, constants


def _family_factors(template, p: int) -> list[int]:
    """The factor orders of a parsed family template at the prime p. The
    order is at least p^t >= 2^t, t the sum of the p-exponents, so a t of the
    cap's bit length or more is refused before any power is built."""
    powers, constants = template
    t = sum(e * n for e, n in powers)
    if t >= DEFAULT_CAP.bit_length():
        raise CapExceededError(
            f"group order of at least {p}^{t} exceeds the cap of {DEFAULT_CAP}"
        )
    return [p**e for e, n in powers for _ in range(n)] + constants


def _parse_primes(text: str) -> list[int]:
    text = text.strip()
    span = re.fullmatch(r"([0-9]+)\.\.([0-9]+)", text)
    # refused before is_prime, which trial-divides every candidate
    for bound in span.groups() if span else text.split(","):
        bound = bound.strip()
        if bound.isascii() and bound.isdigit() and int(bound) > DEFAULT_CAP:
            raise GroupSpecError(
                f"--primes {text!r}: {bound} is above the cap of {DEFAULT_CAP};"
                " a family row with a p term there could only be skipped"
            )
    if span:
        lo, hi = int(span.group(1)), int(span.group(2))
        primes = [p for p in range(lo, hi + 1) if is_prime(p)]
    else:
        primes = []
        for token in text.split(","):
            token = token.strip()
            if not (token.isascii() and token.isdigit()) or not is_prime(int(token)):
                raise GroupSpecError(f"{token!r} is not a prime")
            primes.append(int(token))
    if not primes or len(set(primes)) < len(primes):
        raise GroupSpecError(f"--primes {text!r} needs distinct primes, one or more")
    return primes


def _table_row(template, p: int, cache):
    """One CSV row (or a skip reason) for one prime instance."""
    try:
        group = Group(_family_factors(template, p))
    except CapExceededError as exc:
        return (p, None, str(exc))
    payload = _sk1_document(cache, group)
    row = [
        str(p),
        payload["group"],
        ";".join(str(n) for n in payload["hmg"]),
        str(prod(payload["coc"])),
        ";".join(str(n) for n in payload["sk1"])
        if payload["theorem_4_1_applies"]
        else "",
        "true" if payload["theorem_4_1_applies"] else "false",
    ]
    return (p, row, None)


def cmd_table(args) -> int:
    primes = _parse_primes(args.primes)
    template = _family_template(args.family)  # fail fast on a bad template
    # opened before any row is computed, so a bad path costs no work
    try:
        out = sys.stdout if args.out == "-" else open(args.out, "w", encoding="utf-8")
    except OSError as exc:
        raise GroupSpecError(f"cannot open --out {args.out!r}: {exc}") from exc
    try:
        cache = ResultCache.from_args(args)
        # every row first: a row that raises writes no CSV
        results = [_table_row(template, p, cache) for p in primes]
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["prime", "group", "hmg", "coc_order", "sk1",
                         "theorem_4_1_applies"])
        for p, row, reason in results:
            if row is None:
                print(f"skipping p={p}: {reason}", file=sys.stderr)
            else:
                writer.writerow(row)
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


# -- parser -----------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process. It holds no handlers
    and no suite names: ``main`` looks both up on every call."""
    parser = argparse.ArgumentParser(
        prog="homok",
        description="Homogeneous function groups of finite abelian groups.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit one JSON document")
    common.add_argument(
        "--cache",
        metavar="DIR",
        help="result cache directory (or set HOMOK_CACHE_DIR)",
    )

    p = sub.add_parser("group", parents=[common], help="group card and its cyclic subgroups")
    p.add_argument("spec", help="comma-separated factor orders, e.g. 3,9,5")

    p = sub.add_parser("od", parents=[common], help="higher order o_d(k)")
    p.add_argument("--d", type=int, required=True, help="degree")
    p.add_argument("--k", type=int, required=True, help="element order")
    p.add_argument(
        "--oracle",
        action="store_true",
        help="cross-check against the sampled gcd fold",
    )

    p = sub.add_parser("gd", parents=[common], help="graded bracket presentation")
    p.add_argument("--group", required=True, help="group spec")
    p.add_argument("--d", type=int, required=True, help="degree")

    p = sub.add_parser("hmg", parents=[common], help="homogeneous function invariants")
    p.add_argument("--group", required=True, help="group spec")
    p.add_argument("--d", type=int, required=True, help="degree")
    p.add_argument(
        "--target",
        default="QZ",
        help="QZ (default), Z (degree 0), or a finite target spec like 27",
    )

    p = sub.add_parser("coc", parents=[common], help="cocyclic subgroups and lattice")
    p.add_argument("--group", required=True, help="group spec")

    p = sub.add_parser("sk1", parents=[common], help="quotient by the cocyclic lattice")
    p.add_argument("--group", required=True, help="group spec")

    p = sub.add_parser("transfer", parents=[common], help="run a transfer job file")
    p.add_argument(
        "--job",
        required=True,
        help='JSON file with "d", "source", "target", "t_values" and '
        'optionally "f_coords"',
    )

    p = sub.add_parser("verify", parents=[common], help="run a verification suite")
    p.add_argument(
        "--suite",
        required=True,
        help=f"one of {', '.join(verify.SUITES)}, or all",
    )
    p.add_argument("--kmax", type=int, help="order grid bound (suites that take it)")
    p.add_argument("--dmax", type=int, help="degree grid bound (suites that take it)")
    p.add_argument("--seed", type=int, help="seed (randomized suites)")

    p = sub.add_parser("table", parents=[common], help="CSV over a prime family")
    p.add_argument(
        "--family",
        required=True,
        help="p (cyclic), p^n (elementary rank n), or a template like p**2,p**2",
    )
    p.add_argument("--primes", required=True, help="list 3,5,7 or range 3..31")
    p.add_argument("--out", required=True, help="output path, - for stdout")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # bracket sizes and orders can run to many thousands of digits; print
    # them exactly, and leave the interpreter's limit as it was on return
    # (interpreters before 3.10.7 have no limit)
    has_limit = hasattr(sys, "set_int_max_str_digits")
    if has_limit:
        digits_limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except GroupSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CapExceededError, OracleStabilizationError, TransferError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalInvariantError as exc:
        print(
            f"internal error: {exc}; this is a bug in homok, please report it",
            file=sys.stderr,
        )
        return 1
    finally:
        if has_limit:
            sys.set_int_max_str_digits(digits_limit)


if __name__ == "__main__":
    sys.exit(main())
