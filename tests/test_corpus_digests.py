"""Pin the command line outputs on the seed corpus.

For each of the `--seed-corpus` rings and the annihilated rank-4 matrix
ring over Z/2, `corpus_digests.json` stores the sha256 of stdout and the
exit code of `check`, `extract`, `coordinatize`, `roundtrip` (both
modes) and `verify-lemmas`, each run with `--json --no-timestamp`.  It
also stores, under the key "build <params>", the stdout digest and exit
code of the `build` commands in BUILDS: grouped rings larger than the
corpus, whose dumps go through the flattened ring and the block charts.
A change that alters any report or dumped file shows up as a diff of that
file.

Regenerate it with

    PYTHONPATH=src python tests/test_corpus_digests.py --write
"""

import contextlib
import hashlib
import io
import json
import os
import sys

import pytest

from rootring.abelian import FinAbGroup
from rootring.cli import main
from rootring.corpus import standard_corpus
from rootring.fileformat import dump_ring
from rootring.rings import FinRing, PeirceRing, mat_ring

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "corpus_digests.json")

VERBS = (("check",), ("extract",),
         ("coordinatize", "--mode", "firm"),
         ("coordinatize", "--mode", "reduced"),
         ("roundtrip", "--mode", "firm"),
         ("roundtrip", "--mode", "reduced"),
         ("verify-lemmas",))

BUILDS = ("grouped 6 2 1|2|3|4|56", "grouped 7 2 1|2|3|4|567",
          "grouped 8 2 12|34|56|78", "grouped 5 4 1|2|3|45",
          "grouped 6 3 31|2|546", "grouped 12 2 1|2|3|4|5|6|7|8|9|10|11|12")


def annihilated_mat4():
    """mat_ring(4, Z/2) with an extra Z/2 in block (0, 0) that multiplies
    everything to zero: its data is firm and reduced, the ring is neither."""
    plain = mat_ring(4, FinRing.zmod(2))
    blocks = dict(plain.blocks)
    blocks[(0, 0)] = FinAbGroup([2, 2])
    tables = {(i, j, k): {ab: v + (0,) if (i, k) == (0, 0) else v
                          for ab, v in tab.items()}
              for (i, j, k), tab in plain.tables.items()}
    return PeirceRing(4, 2, blocks, tables)


def corpus_texts():
    texts = {e.name: dump_ring(e.ring) for e in standard_corpus()}
    texts["mat_4_z2_annihilated"] = dump_ring(annihilated_mat4())
    return texts


def _run(argv):
    """"<sha256 of stdout> exit=<code>" for one command line."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    return "%s exit=%d" % (digest, code)


def outputs(name):
    """{verb line: "<sha256 of stdout> exit=<code>"} for the ring file
    `<name>.ring` in the current directory."""
    return {" ".join(verb): _run(["--json", "--no-timestamp", verb[0],
                                  name + ".ring"] + list(verb[1:]))
            for verb in VERBS}


def build_outputs(params):
    return {"build": _run(["build"] + params.split())}


def _write_files(directory, texts):
    for name, text in texts.items():
        with open(os.path.join(directory, name + ".ring"), "w",
                  encoding="ascii") as fh:
            fh.write(text)


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    _write_files(str(d), corpus_texts())
    return d


def _expected():
    # a missing file collects no cases, and the coverage test then fails
    if not os.path.exists(DIGESTS):
        return {}
    with open(DIGESTS, encoding="ascii") as fh:
        return json.load(fh)


EXPECTED = _expected()


@pytest.mark.parametrize(
    "name", sorted(k for k in EXPECTED if not k.startswith("build ")))
def test_corpus_outputs_match_digests(name, corpus_dir, monkeypatch):
    monkeypatch.chdir(corpus_dir)
    assert outputs(name) == EXPECTED[name]


@pytest.mark.parametrize("params", BUILDS)
def test_build_outputs_match_digests(params):
    assert build_outputs(params) == EXPECTED["build " + params]


def test_digests_cover_the_corpus():
    assert sorted(EXPECTED) == sorted(
        list(corpus_texts()) + ["build " + p for p in BUILDS])


def _write_digests(directory):
    texts = corpus_texts()
    _write_files(directory, texts)
    os.chdir(directory)
    table = {name: outputs(name) for name in sorted(texts)}
    table.update({"build " + p: build_outputs(p) for p in BUILDS})
    with open(DIGESTS, "w", encoding="ascii") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    import tempfile
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_corpus_digests.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        _write_digests(tmp)
