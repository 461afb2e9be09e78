"""Command line front end.

Verbs:

    build         construct a ring file (kinds: mat, grouped, morita, file)
    check         run the predicate checks on a ring or commutator file
    extract       turn a ring file into a commutator-data file
    coordinatize  rebuild a ring file from commutator data (firm or reduced)
    roundtrip     extract, rebuild, and certify the connecting isomorphism
    verify-lemmas run the structural verification suites on a ring file

Every verb but build prints a report on stdout: a header, one row per check
(name, status, witness and wall time) and, for roundtrip, whether the rings
are isomorphic.  The report is printed whether the verb succeeds or a check
stops it, except that extract and coordinatize without `--output` print
their data file to stdout instead (build always prints or writes its file,
with no report).  An input that cannot be read, is not text, or is not a
ring file where the verb needs one gets no report, only the error.

Text rows stream: each is printed as its check finishes.  `--json` prints
the report once at the end, as a machine-readable body with the same fields
(for roundtrip it also carries the generator matrices of the connecting
block maps).  `--no-timestamp` drops the timestamp and the wall times so
that identical inputs give byte-identical output.

Exit codes: 0 success, 1 input/output trouble, 2 precondition violated,
3 mathematical check failed, 4 internal consistency alarm.

Index conventions: the file formats are 1-based; check witnesses quote the
Python API and are 0-based.
"""

import argparse
import hashlib
import json
import os
import sys
import time
from datetime import datetime, timezone
from functools import cache, cached_property

from . import __version__
from .commrel import (_firm_rel, _reduced_rel, check_K_linear,
                      check_idempotent_rel, extract)
from .coordinatize import (_construct, connecting_hom, rebuild_gates,
                           verify_associativity_patterns)
from .corpus import is_full_idempotent, morita_entry, standard_corpus
from .errors import (BoundExceeded, FileFormatError, InternalAlarm,
                     InvalidParams, MathCheckFailed, PreconditionFailed,
                     RankTooSmall, RootRingError)
from .fileformat import dump_commrel, dump_ring, load_commrel, load_ring, \
    read_ring
from .glgroup import perfectness_and_center, verify_steinberg
from .rings import (FinRing, _is_reduced_given, check_predicates,
                    check_rank, collapse_rank, find_unit, is_firm,
                    is_idempotent, is_reduced, mat_ring, reduced_quotient,
                    regroup, universal_ring)

SCHEMA = "rootring-report/1"

_EXIT = {FileFormatError: 1, OSError: 1, PreconditionFailed: 2,
         MathCheckFailed: 3, InternalAlarm: 4, BoundExceeded: 2}


def _exit_for(e):
    for cls in type(e).__mro__:
        if cls in _EXIT:
            return _EXIT[cls]
    return 2


def _jsonable(x):
    if isinstance(x, (str, int, bool)) or x is None:
        return x
    if isinstance(x, float):
        return round(x, 6)
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return repr(x)


def _fail_info(e):
    wit = getattr(e, "witness", None)
    if wit is None:
        return str(e)
    return {"message": str(e), "witness": wit}


class Reporter:
    """Records check rows and prints the report to `out`, if given: in
    text, the header at once and each row as it is added; in JSON, one
    body when the report is finished."""

    def __init__(self, verb, options, path, data, json_mode, timestamp,
                 out):
        self.verb = verb
        self.options = options
        self.path = path
        self.digest = hashlib.sha256(data).hexdigest()
        self.json = json_mode
        self.timestamp = timestamp
        self.out = out
        self.checks = []
        self.extra = {}
        self.worst = 0
        lines = ["rootring %s %s" % (__version__, verb),
                 "input: %s sha256=%s" % (path, self.digest)]
        if self.options:
            lines.append("options: " + " ".join(
                "%s=%s" % kv for kv in sorted(self.options.items())))
        if timestamp is not None:
            lines.append("timestamp: %s" % timestamp)
        self._print(lines)

    def _print(self, lines):
        if self.out is not None and not self.json:
            self.out.write("".join(line + "\n" for line in lines))
            self.out.flush()

    def add(self, name, status, witness=None, seconds=0.0, code=3):
        """Record and print a row; a fail row raises the exit code to
        `code`."""
        self.checks.append(
            {"name": name, "status": status, "witness": witness,
             "seconds": seconds})
        if status == "fail":
            self.worst = max(self.worst, code)
        row = "check %s: %s" % (name, status)
        if self.timestamp is not None:
            row += " [%.3fs]" % seconds
        if witness is not None:
            row += "  " + (witness if isinstance(witness, str)
                           else repr(witness))
        self._print([row])

    def run(self, name, fn, describe=None):
        """Time an operation; a RootRingError becomes a fail row and
        propagates so the pipeline stops."""
        t0 = time.perf_counter()
        try:
            out = fn()
        except RootRingError as e:
            self.add(name, "fail", _fail_info(e), time.perf_counter() - t0,
                     _exit_for(e))
            raise
        note = describe(out) if describe else None
        self.add(name, "pass", note, time.perf_counter() - t0)
        return out

    def check(self, name, fn, exc=None):
        """Time a (bool, witness) predicate and record it; returns both.
        A failure raises `exc`, if given, and else only sets exit code 3."""
        t0 = time.perf_counter()
        ok, wit = fn()
        dt = time.perf_counter() - t0
        if ok or exc is None:
            self.flag(name, ok, wit, seconds=dt)
            return ok, wit
        msg = "check %s failed at %r" % (name, wit)
        err = exc(msg, wit) if issubclass(exc, MathCheckFailed) else exc(msg)
        self.add(name, "fail", wit, dt, _exit_for(err))
        raise err

    def flag(self, name, ok, witness=None, note=None, seconds=0.0):
        """Record a bool check without interrupting the pipeline."""
        if ok or witness is None:
            witness = note
        self.add(name, "pass" if ok else "fail", witness, seconds)

    def soft(self, name, fn):
        """Run a suite returning (ok-or-None-for-skip, note); exceptions
        become fail rows but do not stop the remaining suites."""
        t0 = time.perf_counter()
        try:
            ok, note = fn()
        except RootRingError as e:
            self.add(name, "fail", _fail_info(e), time.perf_counter() - t0,
                     _exit_for(e))
            return
        status = "skip" if ok is None else "pass" if ok else "fail"
        self.add(name, status, note, time.perf_counter() - t0)

    def finish(self):
        """Print what streaming has not: the extras, or the JSON body."""
        if self.out is None:
            return
        if not self.json:
            self._print(["%s: %s" % (k, ("true" if v else "false")
                                     if isinstance(v, bool) else v)
                         for k, v in sorted(self.extra.items())])
            return
        show_times = self.timestamp is not None
        body = {
            "schema": SCHEMA,
            "tool": {"name": "rootring", "version": __version__},
            "verb": self.verb,
            "options": _jsonable(self.options),
            "input": {"path": self.path, "sha256": self.digest},
            "checks": [
                {"name": c["name"], "status": c["status"],
                 "witness": _jsonable(c["witness"]),
                 "wall_time": round(c["seconds"], 6) if show_times
                 else None}
                for c in self.checks],
            "exit": self.worst,
        }
        if show_times:
            body["timestamp"] = self.timestamp
        for k, v in self.extra.items():
            body[k] = _jsonable(v)
        self.out.write(json.dumps(body, sort_keys=True, indent=2) + "\n")


# -- input plumbing -----------------------------------------------------------

def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def _decode(raw, path):
    try:
        return raw.decode("ascii")
    except UnicodeDecodeError as e:
        raise FileFormatError("%s is not a text file: %s" % (path, e))


def _kind_of(text):
    head = text.split(None, 1)
    return head[0] if head else ""


# -- build ---------------------------------------------------------------------

def _int_param(params, pos, what, minimum):
    if pos >= len(params):
        raise InvalidParams("missing %s" % what)
    try:
        v = int(params[pos])
    except ValueError:
        raise InvalidParams("%s must be an integer, got %r"
                            % (what, params[pos]))
    if v < minimum:
        raise InvalidParams("%s must be at least %d, got %d"
                            % (what, minimum, v))
    return v


def _parse_partition(text, size):
    """Parts separated by '|'; inside a part, 1-based indices either as
    plain digit strings (sizes up to 9) or comma-separated."""
    parts = []
    seen = set()
    for chunk in text.split("|"):
        if not chunk:
            raise InvalidParams("empty part in partition %r" % text)
        if "," in chunk:
            try:
                idxs = [int(c) for c in chunk.split(",")]
            except ValueError:
                raise InvalidParams("bad partition part %r" % chunk)
        elif size <= 9:
            if not chunk.isdigit():
                raise InvalidParams("bad partition part %r" % chunk)
            idxs = [int(c) for c in chunk]
        else:
            try:
                idxs = [int(chunk)]
            except ValueError:
                raise InvalidParams("bad partition part %r" % chunk)
        for t in idxs:
            if not 1 <= t <= size:
                raise InvalidParams("index %d out of range 1..%d"
                                    % (t, size))
            if t in seen:
                raise InvalidParams("index %d appears twice" % t)
            seen.add(t)
        parts.append([t - 1 for t in idxs])
    if len(seen) != size:
        missing = sorted(set(range(1, size + 1)) - seen)
        raise InvalidParams("partition misses indices %r" % missing)
    return parts


def cmd_build(args):
    kind, params = args.kind, args.params
    if kind == "mat":
        rank = _int_param(params, 0, "rank", 1)
        check_rank(rank)
        modulus = _int_param(params, 1, "modulus", 2)
        R = mat_ring(rank, FinRing.zmod(modulus))
    elif kind == "grouped":
        size = _int_param(params, 0, "size", 1)
        check_rank(size, "size")
        modulus = _int_param(params, 1, "modulus", 2)
        if len(params) < 3:
            raise InvalidParams("missing partition, e.g. \"1|2|3|45\"")
        parts = _parse_partition(params[2], size)
        R = regroup(mat_ring(size, FinRing.zmod(modulus)), parts)
    elif kind == "morita":
        R = morita_entry().ring
    elif kind == "file":
        if not params:
            raise InvalidParams("missing input path")
        R = read_ring(params[0])
    else:
        raise InvalidParams("unknown build kind %r" % kind)
    return dump_ring(R)


# -- check ---------------------------------------------------------------------

def _load_ring(rep, text):
    return rep.run("load", lambda: load_ring(text),
                   lambda R: "rank=%d modulus=%d order=%d"
                   % (R.rank, R.modulus, R.additive.order))


def cmd_check(args, rep, text):
    if _kind_of(text) == "commrel":
        _, D = _load_data(rep, text)
        rep.check("k-linear", lambda: check_K_linear(D))
        ok, _ = rep.check("idempotent-rel", lambda: check_idempotent_rel(D))
        if ok:
            rep.check("firm-rel", lambda: _firm_rel(D))
            rep.check("reduced-rel", lambda: _reduced_rel(D))
        else:
            rep.add("firm-rel", "skip", "data is not idempotent")
            rep.add("reduced-rel", "skip", "data is not idempotent")
    else:
        R = _load_ring(rep, text)
        idem = rep.check("idempotent", lambda: is_idempotent(R))
        rep.check("firm", lambda: is_firm(R))
        rep.check("reduced", lambda: _is_reduced_given(R, idem))


# -- extract, coordinatize and roundtrip ----------------------------------------

def _load_data(rep, text):
    """Ring files are extracted on the fly; commrel files load directly.
    Returns (ring-or-None, data)."""
    if _kind_of(text) == "peirce":
        R = rep.run("load", lambda: load_ring(text),
                    lambda R: "rank=%d modulus=%d" % (R.rank, R.modulus))
        D = rep.run("extract", lambda: extract(R),
                    lambda D: "%d modules, %d maps"
                    % (len(D.modules), len(D.cmaps)))
        return R, D
    D = rep.run("load", lambda: load_commrel(text),
                lambda D: "rank=%d modulus=%d" % (D.rank, D.modulus))
    return None, D


def cmd_extract(args, rep, text):
    _, D = _load_data(rep, text)
    rep.check("k-linear", lambda: check_K_linear(D))
    return dump_commrel(D)


# rows certifying each construction: name, its verdicts read off the
# certificates, and what one verdict counts
_CERTIFICATE_ROWS = {
    "firm": (("pair-quotient-bijective",
              lambda c: c["pair_quotient_bijective"], "pairs"),),
    "reduced": (("factor-injective",
                 lambda c: {(s, k): ok
                            for s, m in c["factor_injective"].items()
                            for k, ok in m.items()},
                 "factors"),
                ("base-pair-spans", lambda c: c["base_pair_spans"],
                 "blocks")),
}


def _rebuild(rep, D, mode):
    """The rebuild gates and the construction, with certificate rows.
    The rank and k-linear gates exit 2, the data predicates 3."""
    def rank_gate():
        if D.rank < 4:
            raise RankTooSmall("rank >= 4 required, got %d" % D.rank)
        return D.rank
    rep.run("rank", rank_gate, lambda r: "rank=%d" % r)
    for name, _prop, check in rebuild_gates(D, mode):
        rep.check(name, check, PreconditionFailed if name == "k-linear"
                  else MathCheckFailed)
    res = rep.run("coordinatize-" + mode, lambda: _construct(D, mode),
                  lambda res: "diagonal orders %r"
                  % [res.ring.blocks[(s, s)].order for s in range(D.rank)])
    for name, verdicts, unit in _CERTIFICATE_ROWS[mode]:
        found = verdicts(res.certificates)
        rep.flag(name, all(found.values()),
                 witness=sorted(k for k, ok in found.items() if not ok),
                 note="%d %s" % (len(found), unit))
    pat = res.certificates["associativity_patterns"]
    rep.flag("associativity-patterns", pat.ok,
             witness=sorted(pat.failing()),
             note="%d patterns" % len(pat.patterns))
    preds = res.predicates
    rep.flag("rebuilt-idempotent", preds.idempotent,
             witness=preds.idempotent_witness)
    rep.flag("rebuilt-%s" % mode, getattr(preds, mode),
             witness=getattr(preds, mode + "_witness"))
    return res


def cmd_coordinatize(args, rep, text):
    _, D = _load_data(rep, text)
    return dump_ring(_rebuild(rep, D, args.mode).ring)


def cmd_roundtrip(args, rep, text):
    rep.extra["isomorphic"] = False
    R, D = _load_data(rep, text)
    res = _rebuild(rep, D, args.mode)
    conn = rep.run("connecting-hom", lambda: connecting_hom(D, res, R),
                   lambda c: "%d block maps" % len(c.hom.homs))
    bad = sorted(k for k, v in conn.bijective.items() if not v)
    rep.flag("blockwise-bijective", conn.is_isomorphism, witness=bad,
             note="%d blocks" % len(conn.bijective))
    rep.extra["isomorphic"] = conn.is_isomorphism
    if args.json:
        rep.extra["block_maps"] = {
            "(%d, %d)" % ij: h.matrix()
            for ij, h in sorted(conn.hom.homs.items())}


# -- verify-lemmas ----------------------------------------------------------------

class _Facts:
    """What several suites ask about the input ring, each computed on first
    use, so an error lands in the row of the suite that asked."""

    def __init__(self, ring):
        self.ring = ring

    predicates = cached_property(lambda self: check_predicates(self.ring))
    data = cached_property(lambda self: extract(self.ring))


def _suite_full_idem(R, facts):
    """Unital rings: the three predicates agree with each other and with
    fullness of every diagonal idempotent."""
    flat = R.as_finring()
    unit = find_unit(flat)
    if unit is None:
        return None, "ring has no unit"
    idems = [R.embed(i, i, R.project(i, i, unit)) for i in range(R.rank)]
    family_ok = all(
        R.mul(idems[a], idems[b]) ==
        (idems[a] if a == b else R.additive.zero)
        for a in range(R.rank) for b in range(R.rank))
    if not family_ok or R.additive.sum(idems) != unit:
        return False, "diagonal unit components are not a complete " \
            "orthogonal family"
    pr = facts.predicates
    preds = (pr.idempotent, pr.firm, pr.reduced)
    full = all(is_full_idempotent(R, e) for e in idems)
    ok = len(set(preds)) == 1 and preds[0] == full
    return ok, "idempotent=%r firm=%r reduced=%r full=%r" % (preds + (full,))


def _suite_root_elim(R, facts):
    if R.rank < 2:
        return None, "rank 1, nothing to collapse"
    pr = facts.predicates
    if not pr.idempotent and not pr.firm:
        return None, "input neither idempotent nor firm"
    S = collapse_rank(R)
    ps = check_predicates(S)
    ok = (ps.idempotent or not pr.idempotent) and (ps.firm or not pr.firm)
    return ok, "collapsed rank=%d idempotent=%r firm=%r" % (
        S.rank, ps.idempotent, ps.firm)


def _suite_morita(_R, _facts):
    entry = morita_entry()
    ok, wit = is_firm(entry.ring)
    return ok, "fixture %s firm" % entry.name if ok else wit


def _suite_univ_ring(R, facts):
    pr = facts.predicates
    if not pr.idempotent:
        return None, "input not idempotent"
    T, can = universal_ring(R)
    firm_ok, wit = is_firm(T)
    if not firm_ok:
        return False, ("universal ring not firm", wit)
    iso_ok = can.is_blockwise_iso() if pr.firm else True
    Q, _proj = reduced_quotient(R)
    red_ok, rwit = is_reduced(Q)
    if not red_ok:
        return False, ("reduced quotient not reduced", rwit)
    if not iso_ok:
        return False, "canonical map of a firm ring is not bijective"
    return True, "universal firm, quotient reduced%s" % (
        ", canonical map bijective" if pr.firm else "")


def _suite_center_perf(R, facts):
    if R.rank < 2:
        return None, "rank 1, no transvections"
    st = verify_steinberg(R)
    if not st.ok:
        bad = (st.additivity_failures + st.commuting_failures
               + st.composition_failures + st.identity_failures)
        return False, ("steinberg relations fail", bad[0])
    if R.rank < 3:
        return True, "steinberg relations hold (rank 2: no center suite)"
    if not facts.predicates.idempotent:
        return True, "steinberg relations hold (not idempotent: no " \
            "center suite)"
    cp = perfectness_and_center(R)
    if not cp.ok:
        return False, ("center or perfectness fails",
                       cp.perfect_witness or cp.central_violations
                       or cp.action_witness)
    return True, "relations, perfectness and center all pass " \
        "(%d upper units)" % cp.upper_size


def _suite_gl_roots(_R, facts):
    D = facts.data
    ok, wit = check_K_linear(D)
    if not ok:
        return False, ("extracted data not scalar-linear", wit)
    pr = facts.predicates
    carried = []
    if pr.idempotent:
        ok, wit = check_idempotent_rel(D)
        if not ok:
            return False, ("idempotent not carried over", wit)
        carried.append("idempotent")
        for name, body in (("firm", _firm_rel), ("reduced", _reduced_rel)):
            if getattr(pr, name):
                ok, wit = body(D)
                if not ok:
                    return False, ("%s not carried over" % name, wit)
                carried.append(name)
    return True, "carried over: %s" % (", ".join(carried) or "none apply")


def _suite_ass(R, _facts):
    if R.rank < 4:
        bad = R.associativity_failures(limit=1)
        return not bad, ("all generator triples associate (rank < 4: no "
                         "pattern split)" if not bad else bad[0])
    pat = verify_associativity_patterns(R)
    total = sum(p["checked"] for p in pat.patterns.values())
    if not pat.ok:
        return False, sorted(pat.failing())
    return True, "%d patterns, %d products" % (len(pat.patterns), total)


def _roundtrip_suite(R, facts, mode):
    if R.rank < 4:
        return None, "rank < 4"
    D = facts.data
    for _name, prop, check in rebuild_gates(D, mode):
        ok, _ = check()
        if not ok:
            return None, "data not %s" % prop
    conn = connecting_hom(D, _construct(D, mode), R)
    if not conn.is_isomorphism:
        return False, sorted(k for k, v in conn.bijective.items()
                             if not v)
    return True, "rebuilt and certified isomorphic"


_SUITES = (
    ("full-idem", _suite_full_idem),
    ("root-elim", _suite_root_elim),
    ("morita", _suite_morita),
    ("univ-ring", _suite_univ_ring),
    ("center-perf", _suite_center_perf),
    ("gl-roots", _suite_gl_roots),
    ("ass", _suite_ass),
    ("r-cons", lambda R, facts: _roundtrip_suite(R, facts, "firm")),
    ("r-gen", lambda R, facts: _roundtrip_suite(R, facts, "reduced")),
)


def cmd_verify_lemmas(args, rep, text):
    R = _load_ring(rep, text)
    facts = _Facts(R)
    for name, suite in _SUITES:
        rep.soft(name, lambda suite=suite: suite(R, facts))


# -- corpus seeding ---------------------------------------------------------------

def _seed_corpus(directory):
    os.makedirs(directory, exist_ok=True)
    for entry in standard_corpus():
        path = os.path.join(directory, entry.name + ".ring")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(dump_ring(entry.ring))
        print("wrote %s" % path)
    return 0


# -- argument wiring ----------------------------------------------------------------

@cache
def _parser():
    # built on the first `main` and reused: parsing leaves it unchanged.
    # report flags are accepted before and after the verb; the copies on
    # the subparsers suppress their defaults so they never overwrite a
    # value the main parser already set
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--json", action="store_true",
                       default=argparse.SUPPRESS,
                       help="machine-readable reports")
    flags.add_argument("--no-timestamp", action="store_true",
                       default=argparse.SUPPRESS,
                       help="omit timestamp and wall times; "
                            "byte-deterministic")

    p = argparse.ArgumentParser(
        prog="rootring",
        description="Exact computations with block-decomposed finite "
                    "rings and their root-subgroup commutator data.")
    p.add_argument("--version", action="version",
                   version="rootring %s" % __version__)
    p.add_argument("--json", action="store_true",
                   help="machine-readable reports")
    p.add_argument("--no-timestamp", action="store_true",
                   help="omit timestamp and wall times; byte-deterministic")
    p.add_argument("--seed-corpus", metavar="DIR",
                   help="write the standard corpus as ring files into DIR")
    sub = p.add_subparsers(dest="verb")

    b = sub.add_parser("build", help="construct a ring file",
                       parents=[flags])
    b.add_argument("kind", choices=["mat", "grouped", "morita", "file"])
    b.add_argument("params", nargs="*",
                   help="mat: rank modulus; grouped: size modulus "
                        "partition (e.g. \"1|2|3|45\"); morita: none; "
                        "file: path")
    b.add_argument("-o", "--output")

    c = sub.add_parser("check", help="predicate checks on a file",
                       parents=[flags])
    c.add_argument("input")

    e = sub.add_parser("extract", help="ring file to commutator data",
                       parents=[flags])
    e.add_argument("input")
    e.add_argument("-o", "--output")

    co = sub.add_parser("coordinatize",
                        help="rebuild a ring from commutator data",
                        parents=[flags])
    co.add_argument("input")
    co.add_argument("--mode", choices=["firm", "reduced"], required=True)
    co.add_argument("-o", "--output")

    r = sub.add_parser("roundtrip",
                       help="extract, rebuild, certify the isomorphism",
                       parents=[flags])
    r.add_argument("input")
    r.add_argument("--mode", choices=["firm", "reduced"], required=True)

    v = sub.add_parser("verify-lemmas",
                       help="run the structural verification suites",
                       parents=[flags])
    v.add_argument("input")
    return p


# verbs that report: each records its rows on the Reporter and returns the
# data file it produces, if any
_VERBS = {"check": cmd_check, "extract": cmd_extract,
          "coordinatize": cmd_coordinatize, "roundtrip": cmd_roundtrip,
          "verify-lemmas": cmd_verify_lemmas}
_RING_INPUT = ("extract", "roundtrip", "verify-lemmas")


def main(argv=None):
    parser = _parser()
    args = parser.parse_args(argv)
    timestamp = None if args.no_timestamp else \
        datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    rep = error = None
    try:
        if args.seed_corpus is not None:
            code = _seed_corpus(args.seed_corpus)
            if args.verb is None:
                return code
        if args.verb is None:
            parser.error("a verb is required (or --seed-corpus DIR)")
        out = getattr(args, "output", None)
        if out:
            parent = os.path.dirname(out) or "."
            if not os.path.isdir(parent):
                raise OSError("output directory does not exist: %s" % parent)
        if args.verb == "build":
            data = cmd_build(args)
        else:
            raw = _read_bytes(args.input)
            text = _decode(raw, args.input)
            if args.verb in _RING_INPUT and _kind_of(text) != "peirce":
                raise FileFormatError("%s needs a ring file" % args.verb)
            # the report goes to stdout unless the data file does
            shown = out or not hasattr(args, "output")
            rep = Reporter(args.verb, {"mode": args.mode}
                           if hasattr(args, "mode") else {},
                           args.input, raw, args.json, timestamp,
                           sys.stdout if shown else None)
            data = _VERBS[args.verb](args, rep, text)
        if out:
            with open(out, "w", encoding="ascii") as fh:
                fh.write(data)
        elif data is not None:
            sys.stdout.write(data)
    except (RootRingError, OSError) as e:
        error = e
    if rep is not None:
        rep.finish()
    if error is None:
        return 0 if rep is None else rep.worst
    print("error: %s" % error, file=sys.stderr)
    return _exit_for(error)


if __name__ == "__main__":
    sys.exit(main())
