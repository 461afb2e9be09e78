import json
import subprocess
import sys
import time

import pytest

from rootring import __version__, cli, commrel, coordinatize, rings
from rootring.abelian import FinAbGroup
from rootring.cli import main
from rootring.commrel import CommRelData, all_roots
from rootring.corpus import corrupted_matrix, standard_corpus, zero_entry
from rootring.fileformat import dump_commrel, dump_ring, load_ring, \
    write_ring
from rootring.rings import FinRing, mat_ring


def _write(tmp_path, name, ring):
    p = tmp_path / name
    write_ring(ring, str(p))
    return str(p)


def test_build_mat_is_deterministic(tmp_path):
    p1, p2 = str(tmp_path / "a.ring"), str(tmp_path / "b.ring")
    assert main(["build", "mat", "4", "2", "-o", p1]) == 0
    assert main(["build", "mat", "4", "2", "-o", p2]) == 0
    a = open(p1).read()
    assert a == open(p2).read()
    assert a.startswith("peirce rank=4 modulus=2\n")


def test_build_to_stdout(capsys):
    assert main(["build", "mat", "1", "2"]) == 0
    out = capsys.readouterr().out
    assert out == "peirce rank=1 modulus=2\nblock 1 1: 2\n" \
                  "mult 1 1 1: (1,1) -> 1\n"


def test_build_rejects_bad_params(capsys):
    assert main(["build", "mat", "0", "2"]) == 2
    assert "rank" in capsys.readouterr().err
    assert main(["build", "mat", "4", "1"]) == 2
    assert main(["build", "mat", "4"]) == 2
    assert main(["build", "mat", "x", "2"]) == 2
    assert main(["build", "grouped", "5", "2", "1|2|45"]) == 2
    assert "misses" in capsys.readouterr().err
    assert main(["build", "grouped", "5", "2", "1|2|3|4|5|5"]) == 2


@pytest.mark.parametrize("argv, text", [
    (["build", "mat", "100000", "2"], None),
    (["build", "mat", "17", "2"], None),
    (["build", "grouped", "100000", "2", "1|2"], None),
    (["check", "in"], "peirce rank=60 modulus=2\n"),
    (["check", "in"], "peirce rank=120 modulus=2\n"),
    (["check", "in"], "commrel rank=60 modulus=2\n"),
    (["coordinatize", "in", "--mode", "firm"], "commrel rank=17 modulus=2\n"),
])
def test_rank_above_the_cap_exits_2_at_once(tmp_path, capsys, argv, text):
    if text is not None:
        path = tmp_path / "in"
        path.write_text(text)
        argv = [str(path) if a == "in" else a for a in argv]
    t0 = time.perf_counter()
    assert main(["--no-timestamp"] + argv) == 2
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "exceeds the rank cap of %d" % rings.MAX_RANK in err


def test_rank_cap_admits_its_own_value(tmp_path, capsys):
    path = tmp_path / "in"
    path.write_text("peirce rank=%d modulus=2\n" % rings.MAX_RANK)
    assert main(["--no-timestamp", "check", str(path)]) == 0


def test_rank_cap_prints_no_traceback(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "rootring.cli", "build", "mat", "100000", "2"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr == "error: rank 100000 exceeds the rank cap of %d\n" \
        % rings.MAX_RANK


def test_build_grouped(tmp_path):
    p = str(tmp_path / "g.ring")
    assert main(["build", "grouped", "5", "2", "1|2|3|45", "-o", p]) == 0
    R = load_ring(open(p).read())
    assert R.rank == 4
    assert R.blocks[(3, 3)].order == 16


def test_grouping_by_one_index_parts_builds_the_matrix_ring(capsys):
    parts = "|".join(str(t) for t in range(1, rings.MAX_RANK + 1))
    assert main(["build", "grouped", str(rings.MAX_RANK), "2", parts]) == 0
    grouped = capsys.readouterr().out
    assert main(["build", "mat", str(rings.MAX_RANK), "2"]) == 0
    assert grouped == capsys.readouterr().out


def test_build_morita_and_file_canonicalize(tmp_path, capsys):
    p = str(tmp_path / "m.ring")
    assert main(["build", "morita", "-o", p]) == 0
    canonical = open(p).read()
    assert load_ring(canonical).rank == 2
    # a shuffled copy comes back canonical through `build file`
    lines = canonical.splitlines()
    shuffled = tmp_path / "shuffled.ring"
    shuffled.write_text("\n".join([lines[0]] + lines[:0:-1]) + "\n")
    assert main(["build", "file", str(shuffled)]) == 0
    assert capsys.readouterr().out == canonical


def test_check_ring(tmp_path, capsys):
    p = _write(tmp_path, "m.ring", mat_ring(3, FinRing.zmod(4)))
    assert main(["--no-timestamp", "check", p]) == 0
    out = capsys.readouterr().out
    for row in ("check idempotent: pass", "check firm: pass",
                "check reduced: pass"):
        assert row in out


def test_check_failing_ring(tmp_path, capsys):
    p = _write(tmp_path, "z.ring", zero_entry(4, 2).ring)
    assert main(["--no-timestamp", "check", p]) == 3
    out = capsys.readouterr().out
    assert "check idempotent: fail" in out


def test_extract_then_check_data(tmp_path, capsys):
    p = _write(tmp_path, "m.ring", mat_ring(4, FinRing.zmod(2)))
    q = str(tmp_path / "m.commrel")
    assert main(["--no-timestamp", "extract", p, "-o", q]) == 0
    assert "check k-linear: pass" in capsys.readouterr().out
    assert open(q).read().startswith("commrel rank=4 modulus=2\n")
    assert main(["--no-timestamp", "check", q]) == 0
    out = capsys.readouterr().out
    for row in ("check k-linear: pass", "check idempotent-rel: pass",
                "check firm-rel: pass", "check reduced-rel: pass"):
        assert row in out


def test_coordinatize_from_data_file(tmp_path, capsys):
    p = _write(tmp_path, "m.ring", mat_ring(4, FinRing.zmod(2)))
    q = str(tmp_path / "m.commrel")
    main(["--no-timestamp", "extract", p, "-o", q])
    capsys.readouterr()
    out_ring = str(tmp_path / "rebuilt.ring")
    assert main(["--no-timestamp", "coordinatize", q, "--mode", "firm",
                 "-o", out_ring]) == 0
    report = capsys.readouterr().out
    assert "check coordinatize-firm: pass" in report
    assert "check pair-quotient-bijective: pass" in report
    rebuilt = load_ring(open(out_ring).read())
    assert [rebuilt.blocks[(s, s)].order for s in range(4)] == [2, 2, 2, 2]


def test_roundtrip_firm(tmp_path, capsys):
    p = _write(tmp_path, "m.ring", mat_ring(4, FinRing.zmod(2)))
    assert main(["--no-timestamp", "roundtrip", p, "--mode", "firm"]) == 0
    out = capsys.readouterr().out
    assert "isomorphic: true" in out
    assert "check blockwise-bijective: pass" in out


def test_roundtrip_rank_gate(tmp_path, capsys):
    p = _write(tmp_path, "m3.ring", mat_ring(3, FinRing.zmod(2)))
    assert main(["--no-timestamp", "roundtrip", p, "--mode", "firm"]) == 2
    captured = capsys.readouterr()
    assert "rank >= 4 required" in captured.err
    assert "check rank: fail" in captured.out
    assert "isomorphic: false" in captured.out


def test_roundtrip_predicate_failure(tmp_path, capsys):
    p = _write(tmp_path, "z.ring", zero_entry(4, 2).ring)
    assert main(["--no-timestamp", "roundtrip", p, "--mode", "firm"]) == 3
    out = capsys.readouterr().out
    assert "check idempotent-rel: fail  (0, 1, 2)" in out
    assert "isomorphic: false" in out


def _scalar_data_file(tmp_path, order):
    """Rank-4 data over Z/2 with every module Z/order and zero brackets."""
    D = CommRelData(4, 2, {(r.i, r.j): FinAbGroup([order])
                           for r in all_roots(4)}, {})
    p = tmp_path / ("z%d.commrel" % order)
    p.write_text(dump_commrel(D))
    return str(p)


def test_coordinatize_gate_rows(tmp_path, capsys):
    out = tmp_path / "rebuilt.ring"
    # Z/4 modules are no Z/2-modules: a precondition, exit 2
    p = _scalar_data_file(tmp_path, 4)
    assert main(["--no-timestamp", "coordinatize", p, "--mode", "firm",
                 "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert "check k-linear: fail  (0, 1)" in captured.out
    assert "idempotent-rel" not in captured.out
    assert "check k-linear failed" in captured.err
    # nonzero modules with zero brackets are not idempotent: exit 3
    p = _scalar_data_file(tmp_path, 2)
    for mode in ("firm", "reduced"):
        assert main(["--no-timestamp", "coordinatize", p, "--mode", mode,
                     "-o", str(out)]) == 3
        report = capsys.readouterr().out
        assert "check k-linear: pass" in report
        assert "check idempotent-rel: fail  (0, 1, 2)" in report
        assert "%s-rel" % mode not in report
    assert not out.exists()
    assert main(["--no-timestamp", "check", p]) == 3
    report = capsys.readouterr().out
    assert "check idempotent-rel: fail  (0, 1, 2)" in report
    assert "check firm-rel: skip  data is not idempotent" in report
    assert "check reduced-rel: skip  data is not idempotent" in report


def _count_calls(monkeypatch, owner, names):
    """Count calls of owner.<name> for each name.  For a module owner the
    counting wrapper replaces the function in every rootring module that
    imported it."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(owner, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        holders = [owner] if isinstance(owner, type) else \
            [m for m in (cli, commrel, coordinatize, rings)
             if getattr(m, name, None) is original]
        for holder in holders:
            monkeypatch.setattr(holder, name, counted)
    return counts


@pytest.mark.parametrize("mode, visit, visits",
                         [("firm", "_firm_quadruple", 12),
                          ("reduced", "_inert_kernel", 24)],
                         ids=["firm-_firm_quadruple",
                              "reduced-_inert_kernel"])
def test_roundtrip_checks_each_fact_once(tmp_path, monkeypatch, capsys,
                                         mode, visit, visits):
    p = _write(tmp_path, "m.ring", mat_ring(4, FinRing.zmod(2)))
    counts = _count_calls(monkeypatch, commrel,
                          ("check_K_linear", "check_idempotent_rel",
                           "extract", visit))
    walks = _count_calls(monkeypatch, CommRelData,
                         ("associativity_failures",))
    assert main(["--no-timestamp", "roundtrip", p, "--mode", mode]) == 0
    assert "isomorphic: true" in capsys.readouterr().out
    # one run of the mode predicate visits each of its index sets once:
    # the 4*3*2/2 ordered distinct quadruples (i, j, k, l) with j < k, since
    # (i, k, j, l) is the same fact (firm), or the six roots of each of the
    # four index triples (reduced)
    assert counts == {"check_K_linear": 1, "check_idempotent_rel": 1,
                      "extract": 1, visit: visits}
    assert walks == {"associativity_failures": 1}


def test_check_runs_idempotency_once(tmp_path, monkeypatch, capsys):
    p = _write(tmp_path, "m.ring", mat_ring(4, FinRing.zmod(2)))
    q = str(tmp_path / "m.commrel")
    assert main(["--no-timestamp", "extract", p, "-o", q]) == 0
    data = _count_calls(monkeypatch, commrel, ("check_idempotent_rel",))
    ring = _count_calls(monkeypatch, rings, ("is_idempotent",))
    assert main(["--no-timestamp", "check", q]) == 0
    assert data == {"check_idempotent_rel": 1}
    assert main(["--no-timestamp", "check", p]) == 0
    assert ring == {"is_idempotent": 1}
    assert capsys.readouterr().out.count(": fail") == 0


def test_json_report_shape_and_determinism(tmp_path, capsys):
    p = _write(tmp_path, "m.ring", mat_ring(4, FinRing.zmod(2)))
    args = ["--json", "--no-timestamp", "roundtrip", p, "--mode", "reduced"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first
    body = json.loads(first)
    assert body["schema"] == "rootring-report/1"
    assert body["isomorphic"] is True
    assert body["exit"] == 0
    assert body["input"]["sha256"] == __import__("hashlib").sha256(
        open(p, "rb").read()).hexdigest()
    assert "timestamp" not in body
    names = [c["name"] for c in body["checks"]]
    assert "coordinatize-reduced" in names
    assert all(c["status"] == "pass" for c in body["checks"])
    assert all(c["wall_time"] is None for c in body["checks"])
    # the JSON body carries the connecting block maps as integer matrices
    assert len(body["block_maps"]) == 16
    assert body["block_maps"]["(0, 1)"] == [[1]]


def test_default_report_has_timestamp(tmp_path, capsys):
    p = _write(tmp_path, "m.ring", mat_ring(2, FinRing.zmod(2)))
    assert main(["--json", "check", p]) == 0
    body = json.loads(capsys.readouterr().out)
    assert "timestamp" in body
    assert all(c["wall_time"] is not None for c in body["checks"])


def test_report_flags_work_after_the_verb(tmp_path, capsys):
    p = _write(tmp_path, "m.ring", mat_ring(2, FinRing.zmod(2)))
    assert main(["--json", "--no-timestamp", "check", p]) == 0
    leading = capsys.readouterr().out
    assert main(["check", p, "--json", "--no-timestamp"]) == 0
    assert capsys.readouterr().out == leading
    # a flag before the verb survives the subparser defaults
    assert main(["--no-timestamp", "check", p, "--json"]) == 0
    assert capsys.readouterr().out == leading


def test_verify_lemmas_small(tmp_path, capsys):
    p = _write(tmp_path, "m.ring", mat_ring(3, FinRing.zmod(2)))
    assert main(["--no-timestamp", "verify-lemmas", p]) == 0
    out = capsys.readouterr().out
    for row in ("check full-idem: pass", "check root-elim: pass",
                "check morita: pass", "check univ-ring: pass",
                "check center-perf: pass", "check gl-roots: pass",
                "check ass: pass", "check r-cons: skip",
                "check r-gen: skip"):
        assert row in out


def test_verify_lemmas_full_pass(tmp_path, capsys):
    p = _write(tmp_path, "m.ring", mat_ring(4, FinRing.zmod(2)))
    assert main(["--no-timestamp", "verify-lemmas", p]) == 0
    out = capsys.readouterr().out
    assert out.count(": pass") == 10  # load plus all nine suites
    assert ": fail" not in out and ": skip" not in out


def test_verify_lemmas_derives_each_fact_once(tmp_path, monkeypatch,
                                              capsys):
    p = _write(tmp_path, "m.ring", mat_ring(4, FinRing.zmod(2)))
    preds = _count_calls(monkeypatch, rings, ("check_predicates",))
    data = _count_calls(monkeypatch, commrel, ("extract",))
    assert main(["--no-timestamp", "verify-lemmas", p]) == 0
    assert capsys.readouterr().out.count(": pass") == 10
    # the input ring's predicates once, plus root-elim's collapsed ring
    assert preds == {"check_predicates": 2}
    assert data == {"extract": 1}


def test_text_rows_stream_as_each_check_finishes(tmp_path, monkeypatch,
                                                 capsys):
    p = _write(tmp_path, "m.ring", mat_ring(2, FinRing.zmod(2)))
    seen = []

    def probe(_R, _facts):
        seen.append(capsys.readouterr().out)
        return True, "probe"

    monkeypatch.setattr(cli, "_SUITES", (cli._SUITES[0], ("probe", probe)))
    assert main(["--no-timestamp", "verify-lemmas", p]) == 0
    assert seen[0].startswith("rootring %s verify-lemmas\n" % __version__)
    assert seen[0].endswith("check full-idem: pass  idempotent=True "
                            "firm=True reduced=True full=True\n")
    assert capsys.readouterr().out == "check probe: pass  probe\n"
    # a JSON body is printed once, at the end
    assert main(["--json", "--no-timestamp", "verify-lemmas", p]) == 0
    assert seen[1] == ""
    body = json.loads(capsys.readouterr().out)
    assert [c["name"] for c in body["checks"]] == ["load", "full-idem",
                                                   "probe"]


@pytest.mark.parametrize("verb, output", [
    ("check", False), ("extract", False), ("extract", True),
    ("coordinatize", False), ("coordinatize", True), ("roundtrip", False),
    ("verify-lemmas", False)])
@pytest.mark.parametrize("ring, code", [("mat_4_z2", 0), ("corrupted", 2)])
def test_report_is_printed_unless_stdout_carries_the_data(
        tmp_path, capsys, verb, output, ring, code):
    R = mat_ring(4, FinRing.zmod(2)) if ring == "mat_4_z2" else \
        corrupted_matrix(4, 2)
    p = tmp_path / "in.ring"
    p.write_text(dump_ring(R))
    argv = ["--no-timestamp", verb, str(p)]
    if verb in ("coordinatize", "roundtrip"):
        argv += ["--mode", "firm"]
    if output:
        argv += ["-o", str(tmp_path / "out")]
    assert main(argv) == code
    out = capsys.readouterr().out
    data_on_stdout = verb in ("extract", "coordinatize") and not output
    assert out.startswith("rootring %s %s\n" % (__version__, verb)) \
        is not data_on_stdout
    if data_on_stdout:
        kind = "commrel" if verb == "extract" else "peirce"
        assert out.startswith(kind) if code == 0 else out == ""


def test_verify_lemmas_catches_corruption(tmp_path, capsys):
    ring = corrupted_matrix(4, 2)
    p = tmp_path / "bad.ring"
    p.write_text(dump_ring(ring))
    # the file no longer loads: construction-time associativity rejects it
    assert main(["--no-timestamp", "verify-lemmas", str(p)]) == 2
    assert "check load: fail" in capsys.readouterr().out


def test_io_errors(tmp_path, capsys):
    assert main(["check", str(tmp_path / "missing.ring")]) == 1
    garbage = tmp_path / "g.ring"
    garbage.write_text("not a header\n")
    assert main(["check", str(garbage)]) == 1
    p = _write(tmp_path, "m.ring", mat_ring(4, FinRing.zmod(2)))
    q = str(tmp_path / "m.commrel")
    main(["extract", p, "-o", q])
    capsys.readouterr()
    assert main(["extract", q]) == 1
    assert main(["roundtrip", q, "--mode", "firm"]) == 1
    assert main(["verify-lemmas", q]) == 1
    # an unreachable output path is rejected before any work happens
    bad = str(tmp_path / "no" / "such" / "dir" / "out.ring")
    assert main(["extract", p, "-o", bad]) == 1
    assert "output directory" in capsys.readouterr().err


def test_seed_corpus(tmp_path, capsys):
    d = str(tmp_path / "corpus")
    assert main(["--seed-corpus", d]) == 0
    lines = capsys.readouterr().out.splitlines()
    names = {e.name for e in standard_corpus()}
    assert len(lines) == len(names)
    for name in ("mat_4_z2", "mat_4_z3", "grouped_5_z2_1x1x1x2",
                 "morita_2"):
        ring = load_ring(open("%s/%s.ring" % (d, name)).read())
        assert ring.rank >= 1


def test_module_entry_point(tmp_path):
    p = _write(tmp_path, "m.ring", mat_ring(2, FinRing.zmod(2)))
    proc = subprocess.run(
        [sys.executable, "-m", "rootring.cli", "--no-timestamp",
         "check", str(p)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "check firm: pass" in proc.stdout


@pytest.mark.parametrize("first, second", [
    (["--json", "--no-timestamp", "check", "RING"],
     ["--no-timestamp", "check", "RING"]),
    (["--no-timestamp", "check", "RING", "--json"],
     ["--no-timestamp", "check", "RING"]),
    (["--no-timestamp", "roundtrip", "RING", "--mode", "firm"],
     ["--no-timestamp", "roundtrip", "RING", "--mode", "reduced"]),
], ids=["json-then-plain", "json-after-verb-then-plain", "firm-then-reduced"])
def test_successive_mains_share_nothing_but_the_parser(tmp_path, capsys,
                                                       first, second):
    p = _write(tmp_path, "m.ring", mat_ring(4, FinRing.zmod(2)))
    first = [p if a == "RING" else a for a in first]
    second = [p if a == "RING" else a for a in second]
    cli._parser.cache_clear()
    assert main(second) == 0
    alone = capsys.readouterr().out
    parser = cli._parser()
    cli._parser.cache_clear()
    assert main(first) == 0
    capsys.readouterr()
    assert main(second) == 0
    assert capsys.readouterr().out == alone
    assert cli._parser() is cli._parser() is not parser
    if "--mode" in second:
        assert "reduced" in alone and "coordinatize-firm" not in alone
    else:
        assert not alone.lstrip().startswith("{")
