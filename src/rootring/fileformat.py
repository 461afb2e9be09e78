"""Line-oriented text files for rings and commutator data.

Both formats have the same shape: a header naming the kind, rank and
scalar modulus, one line per nontrivial additive group giving its cyclic
orders, and one line per nonzero structure constant.  A ring file looks
like

    peirce rank=2 modulus=2
    block 1 1: 2
    block 1 2: 2
    mult 1 2 1: (1,1) -> 1

and a commutator-data file uses the keywords ``commrel``, ``module`` and
``cmap`` with the same syntax.  Indices are 1-based in files (0-based in
memory); absent ``block``/``module`` lines mean trivial groups and absent
``mult``/``cmap`` lines mean zero products.  The writers emit lines in
canonical order (row index, column index, third index, generator pair),
so loading a canonically written file and dumping it again reproduces the
bytes exactly.

Shape problems (unparsable lines, out-of-range indices, wrong vector
lengths) raise FileFormatError; files that parse but describe inconsistent
mathematics (non-associative tables, block exponents not dividing the
modulus) raise PreconditionFailed from the constructors.
"""

import re

from .abelian import FinAbGroup
from .commrel import CommRelData
from .errors import FileFormatError, PreconditionFailed
from .rings import PeirceRing, check_rank

_HEADER = re.compile(r"(peirce|commrel) rank=(\d+) modulus=(\d+)$")
_GROUP = re.compile(r"(block|module) (\d+) (\d+): (\d+(?:,\d+)*)$")
_TABLE = re.compile(r"(mult|cmap) (\d+) (\d+) (\d+): "
                    r"\((\d+),(\d+)\) -> (\d+(?:,\d+)*)$")

_WORDS = {"peirce": ("block", "mult"), "commrel": ("module", "cmap")}


def _fail(num, msg):
    raise FileFormatError("line %d: %s" % (num, msg))


def _parse(text, kind):
    """Split a file into (rank, modulus, group orders, tables).

    Group keys and table keys come out 0-based; values are kept as the raw
    integer tuples from the file.  Only shape is validated here.
    """
    group_word, table_word = _WORDS[kind]
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise FileFormatError("line 1: expected '%s rank=<l> modulus=<n>'"
                              % kind)
    m = _HEADER.fullmatch(lines[0])
    if not m or m.group(1) != kind:
        _fail(1, "expected '%s rank=<l> modulus=<n>'" % kind)
    rank, modulus = int(m.group(2)), int(m.group(3))
    if rank < 1:
        _fail(1, "rank must be at least 1")
    check_rank(rank)
    if modulus < 2:
        _fail(1, "modulus must be at least 2")

    def index(num, text1):
        t = int(text1) - 1
        if not 0 <= t < rank:
            _fail(num, "index %s out of range 1..%d" % (text1, rank))
        return t

    groups = {}
    tables = {}
    for num, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        m = _GROUP.fullmatch(line)
        if m:
            if m.group(1) != group_word:
                _fail(num, "'%s' line in a %s file" % (m.group(1), kind))
            key = (index(num, m.group(2)), index(num, m.group(3)))
            if kind == "commrel" and key[0] == key[1]:
                _fail(num, "module indices must differ")
            if key in groups:
                _fail(num, "duplicate %s %d %d" % (group_word,
                                                   key[0] + 1, key[1] + 1))
            orders = tuple(int(d) for d in m.group(4).split(","))
            if 0 in orders:
                _fail(num, "orders must be positive")
            groups[key] = orders
            continue
        m = _TABLE.fullmatch(line)
        if m:
            if m.group(1) != table_word:
                _fail(num, "'%s' line in a %s file" % (m.group(1), kind))
            key = tuple(index(num, m.group(t)) for t in (2, 3, 4))
            if kind == "commrel" and len(set(key)) != 3:
                _fail(num, "cmap indices must be pairwise distinct")
            pair = (int(m.group(5)) - 1, int(m.group(6)) - 1)
            value = tuple(int(c) for c in m.group(7).split(","))
            tab = tables.setdefault(key, {})
            if pair in tab:
                _fail(num, "duplicate %s entry at %r" % (table_word, pair))
            tab[pair] = value
            continue
        _fail(num, "cannot parse %r" % line)
    return rank, modulus, groups, tables


def _check_tables(groups, tables, table_word):
    """Generator indices must hit real generators and values must have the
    target dimension; the math-level checks stay in the constructors."""
    def dim(key):
        return len(groups.get(key, ()))

    for (i, j, k), tab in tables.items():
        for (a, b), v in tab.items():
            if not (0 <= a < dim((i, j)) and 0 <= b < dim((j, k))):
                raise FileFormatError(
                    "%s %d %d %d: generator pair (%d,%d) out of range"
                    % (table_word, i + 1, j + 1, k + 1, a + 1, b + 1))
            if len(v) != dim((i, k)):
                raise FileFormatError(
                    "%s %d %d %d: value needs %d coordinates, got %d"
                    % (table_word, i + 1, j + 1, k + 1, dim((i, k)), len(v)))


def load_ring(text):
    """Parse ring-file text into a PeirceRing (construction checks run)."""
    rank, modulus, groups, tables = _parse(text, "peirce")
    _check_tables(groups, tables, "mult")
    blocks = {key: FinAbGroup(orders) for key, orders in groups.items()}
    try:
        return PeirceRing(rank, modulus, blocks, tables)
    except ValueError as e:
        raise PreconditionFailed(str(e)) from e


def load_commrel(text):
    """Parse commutator-data text into CommRelData (checks run)."""
    rank, modulus, groups, tables = _parse(text, "commrel")
    _check_tables(groups, tables, "cmap")
    modules = {}
    for i in range(rank):
        for j in range(rank):
            if i != j:
                modules[(i, j)] = FinAbGroup(groups.get((i, j), ()))
    try:
        return CommRelData(rank, modulus, modules, tables)
    except ValueError as e:
        raise PreconditionFailed(str(e)) from e


def _dump(kind, rank, modulus, groups, tables):
    group_word, table_word = _WORDS[kind]
    lines = ["%s rank=%d modulus=%d" % (kind, rank, modulus)]
    for (i, j) in sorted(groups):
        G = groups[(i, j)]
        if G.dim:
            lines.append("%s %d %d: %s" % (group_word, i + 1, j + 1,
                                           ",".join(map(str, G.orders))))
    for (i, j, k) in sorted(tables):
        tab = tables[(i, j, k)]
        for (a, b) in sorted(tab):
            lines.append("%s %d %d %d: (%d,%d) -> %s"
                         % (table_word, i + 1, j + 1, k + 1, a + 1, b + 1,
                            ",".join(map(str, tab[(a, b)]))))
    return "\n".join(lines) + "\n"


def dump_ring(R):
    """Canonical text for a PeirceRing.

    >>> from .rings import FinRing, mat_ring
    >>> print(dump_ring(mat_ring(1, FinRing.zmod(2))), end="")
    peirce rank=1 modulus=2
    block 1 1: 2
    mult 1 1 1: (1,1) -> 1
    """
    return _dump("peirce", R.rank, R.modulus, R.blocks, R.tables)


def dump_commrel(D):
    """Canonical text for CommRelData."""
    return _dump("commrel", D.rank, D.modulus, D.modules, D.cmaps)


def _read(path):
    try:
        with open(path, encoding="ascii") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise FileFormatError("%s is not a text file: %s" % (path, e)) from e


def read_ring(path):
    return load_ring(_read(path))


def write_ring(R, path):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dump_ring(R))
