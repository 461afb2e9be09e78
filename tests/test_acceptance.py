"""End-to-end acceptance checks.

Each test covers one headline guarantee of the package and prints a single
verdict line past the capture machinery, so the lines show up in any
pytest run:

  1. firm reconstruction roundtrip on the 4x4 matrix ring over Z/2
  2. reduced reconstruction roundtrip on the same ring
  3. both roundtrips on a non-matrix decomposition (grouped 5x5 over Z/2)
  4. both roundtrips in odd characteristic (Z/3)
  5. predicate equivalence with idempotent fullness on unital rings
  6. structural constructions preserve the predicates across the corpus
  7. the elementary group layer: relations, closures, center, perfectness
  8. oracle equivalence for tensors and quasi-inverses, 200+ instances
  9. negative controls: corruption is detected, data damage is flagged

Wall-clock budgets are asserted where reconstruction work is involved.
"""

import random
import time
from contextlib import contextmanager
from functools import partial
from math import gcd, lcm

import pytest

from oracles import (balanced_tensor_oracle, quasi_inverse_oracle,
                     tensor_oracle)
from rootring.abelian import FinAbGroup, TensorGroup
from rootring.cli import main as cli_main
from rootring.commrel import (CommRelData, check_firm_rel,
                              check_idempotent_rel, check_reduced_rel,
                              extract)
from rootring.coordinatize import (connecting_hom, firm_coordinatize,
                                   reduced_coordinatize,
                                   verify_associativity_patterns)
from rootring.corpus import (corrupted_matrix, fullness_of_idempotents,
                             grouped_entry, morita_entry, standard_corpus)
from rootring.errors import NotQuasiInvertible
from rootring.fileformat import write_ring
from rootring.glgroup import (elementary_subgroup, perfectness_and_center,
                              quasi_inverse, transvection, verify_steinberg)
from rootring.rings import (FinRing, PeirceRing, RelTensor, check_predicates,
                            collapse_rank, is_firm, is_reduced, mat_ring,
                            reduced_quotient, universal_ring)


_CONSOLE = None


@pytest.fixture(autouse=True)
def _console(capsys):
    global _CONSOLE
    _CONSOLE = capsys
    yield
    _CONSOLE = None


def _say(line):
    if _CONSOLE is None:
        print(line)
    else:
        with _CONSOLE.disabled():
            print(line)


@contextmanager
def _criterion(number, label):
    try:
        yield
    except BaseException:
        _say("[%d/9] %s: FAIL" % (number, label))
        raise
    _say("[%d/9] %s: PASS" % (number, label))


def _certified_roundtrip(R, mode):
    """Extract, rebuild, and return the connection report and the result."""
    D = extract(R)
    res = (firm_coordinatize if mode == "firm" else reduced_coordinatize)(D)
    conn = connecting_hom(D, res, R)
    return res, conn


def test_firm_roundtrip_mat4_z2(tmp_path):
    with _criterion(1, "firm roundtrip, 4x4 matrices over Z/2"):
        t0 = time.perf_counter()
        R = mat_ring(4, FinRing.zmod(2))
        res, conn = _certified_roundtrip(R, "firm")
        certs = res.certificates["pair_quotient_bijective"]
        assert len(certs) == 12 and all(certs.values())
        assert conn.is_isomorphism
        assert all(h.is_isomorphism() for h in conn.hom.homs.values())
        assert conn.hom.is_ring_hom()
        assert time.perf_counter() - t0 < 10.0
        p = tmp_path / "m4.ring"
        write_ring(R, str(p))
        assert cli_main(["--no-timestamp", "roundtrip", str(p),
                         "--mode", "firm"]) == 0


def test_reduced_roundtrip_mat4_z2(tmp_path):
    with _criterion(2, "reduced roundtrip, 4x4 matrices over Z/2"):
        t0 = time.perf_counter()
        R = mat_ring(4, FinRing.zmod(2))
        res, conn = _certified_roundtrip(R, "reduced")
        assert all(res.certificates["base_pair_spans"].values())
        inj = res.certificates["factor_injective"]
        assert all(all(m.values()) for m in inj.values())
        assert conn.is_isomorphism
        assert time.perf_counter() - t0 < 30.0
        p = tmp_path / "m4.ring"
        write_ring(R, str(p))
        assert cli_main(["--no-timestamp", "roundtrip", str(p),
                         "--mode", "reduced"]) == 0


def test_grouped_mat5_roundtrips_both_modes():
    with _criterion(3, "grouped 5x5 over Z/2 roundtrips in both modes"):
        t0 = time.perf_counter()
        R = grouped_entry(5, 2, [[0], [1], [2], [3, 4]]).ring
        assert R.blocks[(3, 3)].order == 16
        for mode in ("firm", "reduced"):
            res, conn = _certified_roundtrip(R, mode)
            assert res.ring.blocks[(3, 3)].order == 16, mode
            assert conn.is_isomorphism, mode
        assert time.perf_counter() - t0 < 120.0


def test_roundtrips_odd_characteristic():
    with _criterion(4, "both roundtrips over Z/3"):
        t0 = time.perf_counter()
        R = mat_ring(4, FinRing.zmod(3))
        D = extract(R)
        # over Z/3 the sign conventions matter: -1 != 1 in every entry of
        # the exactness matrices, so a sign slip would show up here
        ok, wit = check_firm_rel(D)
        assert ok, wit
        for mode in ("firm", "reduced"):
            res, conn = _certified_roundtrip(R, mode)
            assert conn.is_isomorphism, mode
            assert [res.ring.blocks[(s, s)].order for s in range(4)] \
                == [3, 3, 3, 3], mode
        assert time.perf_counter() - t0 < 40.0


def _product_ring_entry():
    """Z/2 x Z/2 with the two coordinate idempotents: every off-diagonal
    block vanishes, so predicates and fullness are all false together."""
    G = FinAbGroup([2, 2])
    flat = FinRing(G, {(0, 0): (1, 0), (1, 1): (0, 1)}, unit=(1, 1))
    from rootring.corpus import CorpusEntry
    from rootring.rings import peirce_from_idempotents
    ring, _ = peirce_from_idempotents(flat, [(1, 0), (0, 1)])
    return CorpusEntry("z2_x_z2", ring, source=flat,
                       idems=[(1, 0), (0, 1)])


def test_predicates_agree_with_fullness_on_unital_corpus():
    with _criterion(5, "idempotent = firm = reduced = fullness on unital "
                       "corpus rings"):
        entries = [e for e in standard_corpus() if e.unital_idems]
        entries.append(_product_ring_entry())
        assert len(entries) >= 15
        seen_false = False
        for entry in entries:
            pr = check_predicates(entry.ring)
            full = fullness_of_idempotents(entry)
            assert pr.idempotent == pr.firm == pr.reduced == full, entry.name
            seen_false = seen_false or not full
        assert seen_false  # the equivalence is exercised in both directions


def test_structural_constructions_preserve_predicates():
    with _criterion(6, "collapse, context, hull and quotient keep their "
                       "promised predicates on the corpus"):
        for entry in standard_corpus():
            R = entry.ring
            pr = check_predicates(R)
            if R.rank >= 2:
                S = collapse_rank(R)
                ps = check_predicates(S)
                if pr.idempotent:
                    assert ps.idempotent, entry.name
                if pr.firm:
                    assert ps.firm, entry.name
            if pr.idempotent:
                T, canonical = universal_ring(R)
                assert is_firm(T)[0], entry.name
                assert canonical.is_ring_hom(), entry.name
                if pr.firm:
                    assert canonical.is_blockwise_iso(), entry.name
                Q, proj = reduced_quotient(R)
                assert is_reduced(Q)[0], entry.name
                assert proj.is_ring_hom(), entry.name
        assert is_firm(morita_entry().ring)[0]


def test_group_layer():
    with _criterion(7, "transvection relations, closures, perfectness and "
                       "center"):
        R4 = mat_ring(4, FinRing.zmod(2))
        rep = verify_steinberg(R4, identity_triples="all")
        assert rep.ok and rep.checked > 1000
        # conjugation acts by ring automorphisms, checked letter by letter
        G = R4.additive
        letters = [transvection(R4, i, j, a)
                   for i in range(4) for j in range(4) if i != j
                   for a in R4.blocks[(i, j)].gens()]
        for u in letters:
            inv = u.inverse()
            for a in G.gens():
                assert inv.act(u.act(a)) == G.reduce(a)
                for b in G.gens():
                    assert u.act(G.add(a, b)) == G.add(u.act(a), u.act(b))
                    assert u.act(R4.mul(a, b)) == R4.mul(u.act(a), u.act(b))
        assert verify_steinberg(mat_ring(3, FinRing.zmod(4))).ok
        assert len(elementary_subgroup(mat_ring(2, FinRing.zmod(2)))) == 6
        assert len(elementary_subgroup(mat_ring(3, FinRing.zmod(2)))) == 168
        cp = perfectness_and_center(mat_ring(3, FinRing.zmod(2)))
        assert cp.perfect and cp.perfect_witness is None
        assert cp.upper_size == 8 and not cp.central_violations
        assert cp.action_injective is True


def _element_order(G, v):
    k = 1
    for d, x in zip(G.orders, v):
        if x:
            k = lcm(k, d // gcd(d, x))
    return k


def _random_group(rng):
    dims = rng.randint(0, 2)
    return FinAbGroup([rng.choice((2, 3, 4, 5, 8, 9)) for _ in range(dims)])


def test_oracle_equivalence():
    with _criterion(8, "tensor and quasi-inverse oracles agree on 200+ "
                       "instances"):
        rng = random.Random(20260817)
        instances = 0

        # plain tensor of pairs of random groups
        for _ in range(100):
            A, B = _random_group(rng), _random_group(rng)
            if A.order * B.order > 1024:
                continue
            T = TensorGroup(A, B)
            O = tensor_oracle(A, B)
            assert T.group.invariant_factors() == O.group.invariant_factors()
            for _ in range(4):
                a = A.reduce([rng.randrange(d) for d in A.orders])
                b = B.reduce([rng.randrange(d) for d in B.orders])
                assert _element_order(T.group, T.pure(a, b)) == \
                    _element_order(O.group, O.pure(a, b))
            instances += 1

        # balanced tensor over diagonal blocks of corpus rings
        for entry in standard_corpus():
            R = entry.ring
            for i in range(R.rank):
                for j in range(R.rank):
                    for k in range(R.rank):
                        M, S, N = R.blocks[(i, j)], R.blocks[(j, j)], \
                            R.blocks[(j, k)]
                        if M.order * N.order > 1024 or \
                                M.order * N.order * S.order > 4096:
                            continue
                        right_act = partial(R.block_mul, i, j, j)
                        left_act = partial(R.block_mul, j, j, k)
                        got = RelTensor({j: (M, N)},
                                        [(j, j, S, right_act, left_act)])
                        want = balanced_tensor_oracle(
                            M, N, list(S.elements()), right_act, left_act)
                        assert got.quot.group.invariant_factors() == \
                            want.group.invariant_factors(), \
                            (entry.name, i, j, k)
                        instances += 1

        # quasi-inverses against exhaustive search
        rings = [FinRing.zmod(n) for n in range(2, 14)]
        rings += [FinRing.matrix_ring(FinRing.zmod(n), 2) for n in (2, 3, 4)]
        rings.append(FinRing.matrix_ring(FinRing.zmod(2), 3))
        assert all(r.additive.order <= 1024 for r in rings)
        for _ in range(80):
            ring = rng.choice(rings)
            G = ring.additive
            x = G.reduce([rng.randrange(d) for d in G.orders])
            want = quasi_inverse_oracle(ring, x)
            if want is None:
                with pytest.raises(NotQuasiInvertible):
                    quasi_inverse(ring, x)
            else:
                assert quasi_inverse(ring, x) == want
            instances += 1

        assert instances >= 200, instances


def test_negative_controls():
    with _criterion(9, "one corrupted table entry and one zeroed bracket "
                       "map are both caught"):
        bad = corrupted_matrix(4, 2)
        # construction refuses the corrupted tables outright
        with pytest.raises(ValueError, match="associative"):
            PeirceRing(4, 2, dict(bad.blocks), dict(bad.tables))
        # and each verification layer flags the damage independently
        assert bad.associativity_failures(limit=1)
        assert not verify_steinberg(bad).ok
        pat = verify_associativity_patterns(bad)
        assert not pat.ok and not pat.hypothesis_ok

        D = extract(mat_ring(4, FinRing.zmod(2)))
        cmaps = {key: tab for key, tab in D.cmaps.items()
                 if key != (0, 1, 2)}
        damaged = CommRelData(4, 2, D.modules, cmaps, check=False)
        ok, wit = check_idempotent_rel(damaged)
        assert not ok and wit == (0, 1, 2)
