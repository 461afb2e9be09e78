"""Rebuilding a Peirce ring from its off-diagonal commutator data.

The input is a rank-l family of modules and brackets (CommRelData); the
off-diagonal blocks of the answer are the modules themselves and the
whole problem is the diagonal.  Two constructions are implemented for
rank at least 4: for firm data each diagonal block is a quotient of a
sum of tensor squares, for reduced data it is a subgroup of a product
of endomorphism modules.  Both come with certificates: the internal
consistency facts the constructions rely on are all checked at run
time, and `connecting_hom` produces the comparison map onto any ring
carrying the same data and reports whether it is an isomorphism.  That
shows an isomorphism exists; nothing here checks that it is the only one.

Nothing here is randomized and nothing is approximated; every check is
an exact computation with finite abelian groups.
"""

from dataclasses import dataclass
from functools import cache, partial
from itertools import permutations, product

from .abelian import (AbHom, DirectSum, FinAbGroup, Subgroup, TensorGroup,
                      induced_map, induces_isomorphism, quotient)
from .commrel import (_firm_rel, _reduced_rel, check_idempotent_rel,
                      check_K_linear)
from .errors import (IndexClash, InjectivityFailure, InternalAlarm,
                     NotHomomorphism, NotWellDefined, PreconditionFailed,
                     RankTooSmall)
from .rings import (PeirceHom, PeirceRing, PredicateReport, _is_reduced_given,
                    associator_pairs, is_firm, is_idempotent,
                    nonassociative_triples, relation_rows)


# -- the relation subgroup between two tensor summands -----------------------

def relation_subgroup(D, s, i, j):
    """The relations between the summands U_si (x) U_is and U_sj (x) U_js
    forced by associativity through U_ij, as a subgroup of their direct
    sum: generated by (x (x) yz, -(xy) (x) z), which
    `rings.associator_pairs` builds.

    In any associative ring inducing the data both components of such a
    pair multiply out to the same diagonal element, so the diagonal block
    must be divided by exactly these.
    """
    if len({s, i, j}) != 3:
        raise IndexClash("indices must be distinct, got %r" % ((s, i, j),))
    Ti = TensorGroup(D.module(s, i), D.module(i, s))
    Tj = TensorGroup(D.module(s, j), D.module(j, s))
    amb = DirectSum([Ti.group, Tj.group])
    pairs = associator_pairs(Ti, Tj, D.module(i, j),
                             partial(D.cvalue, s, i, j),
                             partial(D.cvalue, i, j, s))
    return Subgroup(amb.group, relation_rows(amb, pairs, 0, 1))


# -- diagonal blocks as quotients (firm data) ---------------------------------

@dataclass(frozen=True)
class DiagonalPresentation:
    """One diagonal block presented as a quotient.

    The ambient group is the direct sum over the other indices i (in the
    order `indices`) of the tensor squares U_si (x) U_is; `pairs[(i, j)]`
    lists the relation pairs between summands i and j, `relations` is the
    subgroup they all span and `quot` the quotient with its projection and
    section.
    """

    s: int
    indices: tuple
    tensors: dict
    pairs: dict
    ambient: DirectSum
    relations: Subgroup
    quot: object

    def pos(self, i):
        return self.indices.index(i)

    def class_of(self, i, x, y):
        """Quotient coordinates of the tensor x (x) y from summand i."""
        v = self.tensors[i].pure(x, y)
        return self.quot.proj(self.ambient.embed(self.pos(i), v))


def _diagonal_presentation(D, s, order=None):
    idxs = [i for i in range(D.rank) if i != s]
    if order is not None:
        if sorted(order) != idxs:
            raise ValueError("summand order for %d must be a permutation "
                             "of the other indices, got %r" % (s, order))
        idxs = list(order)
    tens = {i: TensorGroup(D.module(s, i), D.module(i, s)) for i in idxs}
    amb = DirectSum([tens[i].group for i in idxs])
    pairs = {(i, j): associator_pairs(tens[i], tens[j], D.module(i, j),
                                      partial(D.cvalue, s, i, j),
                                      partial(D.cvalue, i, j, s))
             for i, j in permutations(idxs, 2)}
    gens = []
    for (i, j), ps in pairs.items():
        gens += relation_rows(amb, ps, idxs.index(i), idxs.index(j))
    rel = Subgroup(amb.group, gens)
    return DiagonalPresentation(s=s, indices=tuple(idxs), tensors=tens,
                                pairs=pairs, ambient=amb, relations=rel,
                                quot=quotient(amb.group, rel))


def _pair_quotient_bijective(pres, i, j):
    """Whether the two-summand quotient already presents the whole diagonal
    block: ((T_i + T_j) / (relations between i and j)) -> R_ss must be an
    isomorphism.  The construction of the diagonal multiplications depends
    on this, so it is verified rather than trusted, by the order test of
    `induces_isomorphism`: the two-summand quotient is never presented."""
    Ti, Tj = pres.tensors[i], pres.tensors[j]
    amb2 = DirectSum([Ti.group, Tj.group])
    gens2 = (relation_rows(amb2, pres.pairs[(i, j)], 0, 1)
             + relation_rows(amb2, pres.pairs[(j, i)], 1, 0))
    cols = []
    for t, part in ((0, Ti), (1, Tj)):
        at = pres.pos(i if t == 0 else j)
        for loc in range(part.group.dim):
            e = part.group.gen(loc)
            cols.append(pres.quot.proj(pres.ambient.embed(at, e)))
    f = AbHom(amb2.group, pres.quot.group, cols)
    return induces_isomorphism(f, Subgroup(amb2.group, gens2))


def _supported_preimages(pres, kept):
    """One ambient preimage per quotient generator, supported on the
    ambient coordinates `kept`, plus the kernel of the restricted
    projection.  Returns (preimages, kernel_rows); preimages are sparse
    {coordinate: coefficient} dicts."""
    Q = pres.quot.group
    orders = pres.ambient.group.orders
    f = AbHom(FinAbGroup([orders[t] for t in kept]), Q,
              [pres.quot.proj.cols[t] for t in kept])
    pres_list = []
    for p in range(Q.dim):
        lam = f.preimage(Q.gen(p))
        if lam is None:
            raise InternalAlarm(
                "diagonal class has no representative off one summand",
                witness=(pres.s, p))
        pres_list.append({kept[c]: v for c, v in enumerate(lam) if v})
    kernel_rows = [{kept[c]: v for c, v in enumerate(row) if v}
                   for row in f.kernel().basis()]
    return pres_list, kernel_rows


def _coordinate_summand(pres):
    """Map each ambient coordinate to (summand index, generator pair)."""
    out = {}
    for i in pres.indices:
        T = pres.tensors[i]
        off = pres.ambient.offsets[pres.pos(i)]
        for loc, pair in enumerate(T.pairs):
            out[off + loc] = (i, pair)
    return out


def _diagonal_actions(D, pres, j, coord_info):
    """Structure tables for R_ss x R_sj -> R_sj and R_js x R_ss -> R_js.

    A class of the diagonal quotient acts through any representative
    supported away from summand j, where both products can be evaluated
    inside the data; the kernel of the restricted projection is checked
    to act by zero, which is what makes the choice of representative
    irrelevant.
    """
    s = pres.s
    Q = pres.quot.group
    Gsj, Gjs = D.module(s, j), D.module(j, s)
    kept = [t for t, (k, _) in sorted(coord_info.items()) if k != j]
    pre, kern = _supported_preimages(pres, kept)

    def left_value(vec, v):
        out = Gsj.zero
        for t, c in vec.items():
            k, (a, b) = coord_info[t]
            hv = D.cvalue(k, s, j, D.module(k, s).gen(b), v)
            out = Gsj.add(out, Gsj.scale(c, D.cvalue(s, k, j,
                                                     D.module(s, k).gen(a),
                                                     hv)))
        return out

    def right_value(w, vec):
        out = Gjs.zero
        for t, c in vec.items():
            k, (a, b) = coord_info[t]
            wg = D.cvalue(j, s, k, w, D.module(s, k).gen(a))
            out = Gjs.add(out, Gjs.scale(c, D.cvalue(j, k, s, wg,
                                                     D.module(k, s).gen(b))))
        return out

    for row in kern:
        for v in Gsj.gens():
            if any(left_value(row, v)):
                raise NotWellDefined(
                    "left diagonal action depends on the representative",
                    witness=(s, j, tuple(sorted(row.items()))))
        for w in Gjs.gens():
            if any(right_value(w, row)):
                raise NotWellDefined(
                    "right diagonal action depends on the representative",
                    witness=(s, j, tuple(sorted(row.items()))))

    left = {}
    right = {}
    for p in range(Q.dim):
        for b, v in enumerate(Gsj.gens()):
            left[(p, b)] = left_value(pre[p], v)
        for b, w in enumerate(Gjs.gens()):
            right[(b, p)] = right_value(w, pre[p])
    return left, right


def _diagonal_square(D, pres, left_tables, coord_info):
    """Structure table for R_ss x R_ss -> R_ss.

    The second factor is expanded into pure tensors through the canonical
    section; the first acts on the left tensor legs through the already
    built actions.  Every relation generator is checked to be killed, so
    the expansion choice does not matter.
    """
    s = pres.s
    Q = pres.quot.group

    def act(p, vec):
        out = Q.zero
        for t, c in vec:
            m, (a, b) = coord_info[t]
            u = left_tables[m].get((p, a))
            if u is None or not any(u):
                continue
            term = pres.class_of(m, u, D.module(m, s).gen(b))
            out = Q.add(out, Q.scale(c, term))
        return out

    for row in pres.relations.basis():
        items = [(t, c) for t, c in enumerate(row) if c]
        for p in range(Q.dim):
            if any(act(p, items)):
                raise NotWellDefined(
                    "diagonal square depends on the tensor expansion",
                    witness=(s, p, tuple(row)))

    table = {}
    for p in range(Q.dim):
        for r in range(Q.dim):
            w = pres.quot.section(Q.gen(r))
            table[(p, r)] = act(p, [(t, c) for t, c in enumerate(w) if c])
    return table


def _firm_diagonal(D, s, order, tables, certificates):
    """Diagonal block s of the firm construction, summands in `order`
    (None: increasing): returns its presentation and group, and adds the
    tables involving R_ss and the two-summand checks."""
    pres = _diagonal_presentation(D, s, order)
    pair_checks = certificates.setdefault("pair_quotient_bijective", {})
    for a, i in enumerate(pres.indices):
        for j in pres.indices[a + 1:]:
            good = _pair_quotient_bijective(pres, i, j)
            pair_checks[(s, i, j)] = good
            if not good:
                raise InternalAlarm("a two-summand quotient fails to "
                                    "present the diagonal block",
                                    witness=(s, i, j))
    coord_info = _coordinate_summand(pres)
    left_tables = {}
    for j in pres.indices:
        left, right = _diagonal_actions(D, pres, j, coord_info)
        left_tables[j] = left
        if left:
            tables[(s, s, j)] = left
        if right:
            tables[(j, s, s)] = right
    for j in pres.indices:
        Gsj, Gjs = D.module(s, j), D.module(j, s)
        tab = {}
        for a, x in enumerate(Gsj.gens()):
            for b, y in enumerate(Gjs.gens()):
                tab[(a, b)] = pres.class_of(j, x, y)
        if tab:
            tables[(s, j, s)] = tab
    square = _diagonal_square(D, pres, left_tables, coord_info)
    if square:
        tables[(s, s, s)] = square
    return pres, pres.quot.group


# -- results ------------------------------------------------------------------

@dataclass(frozen=True)
class CoordinatizationResult:
    """A rebuilt ring together with everything that certifies it."""

    ring: PeirceRing
    mode: str
    diagonals: dict
    certificates: dict

    @property
    def predicates(self):
        return self.certificates["predicates"]


# -- diagonal blocks as endomorphism families (reduced data) ------------------

@dataclass(frozen=True)
class EndoPresentation:
    """One diagonal block as a family of commuting actions.

    For each other index k an element records where it sends every
    generator of U_sk (acting on the left) and of U_ks (acting on the
    right); all those images are flattened into one vector in `ambient`.
    `span` is the additive span of the generating triples for the base
    pair and `chart` presents it abstractly.
    """

    s: int
    others: tuple
    slots: dict
    ambient: DirectSum
    base_pair: tuple
    generators: tuple
    span: Subgroup
    chart: object

    def slot_value(self, vec, side, k, idx):
        t = self.slots[(side, k, idx)]
        return self.ambient.project(t, vec)


def _endo_layout(D, s):
    others = tuple(i for i in range(D.rank) if i != s)
    parts = []
    slots = {}
    for k in others:
        Gsk, Gks = D.module(s, k), D.module(k, s)
        for a in range(Gsk.dim):
            slots[("L", k, a)] = len(parts)
            parts.append(Gsk)
        for b in range(Gks.dim):
            slots[("R", k, b)] = len(parts)
            parts.append(Gks)
    return others, slots, DirectSum(parts)


def _triple_endvec(D, s, others, slots, amb, i, j, x, y, z):
    """The action family of the would-be product x(yz) = (xy)z, evaluated
    on every module generator.  Where both factorizations apply they must
    agree; disagreement means the data is not associative and is raised
    as an alarm since the construction preconditions exclude it."""
    yz = D.cvalue(i, j, s, y, z)
    xy = D.cvalue(s, i, j, x, y)
    parts = [None] * len(slots)
    for k in others:
        Gsk, Gks = D.module(s, k), D.module(k, s)
        for a, w in enumerate(Gsk.gens()):
            v1 = v2 = None
            if k != i:
                v1 = D.cvalue(s, i, k, x, D.cvalue(i, s, k, yz, w))
            if k != j:
                v2 = D.cvalue(s, j, k, xy, D.cvalue(j, s, k, z, w))
            if v1 is not None and v2 is not None and v1 != v2:
                raise InternalAlarm("the two factorizations of a left "
                                    "action disagree",
                                    witness=(s, i, j, k, a))
            parts[slots[("L", k, a)]] = v1 if v1 is not None else v2
        for b, w in enumerate(Gks.gens()):
            r1 = r2 = None
            if k != i:
                r1 = D.cvalue(k, i, s, D.cvalue(k, s, i, w, x), yz)
            if k != j:
                r2 = D.cvalue(k, j, s, D.cvalue(k, s, j, w, xy), z)
            if r1 is not None and r2 is not None and r1 != r2:
                raise InternalAlarm("the two factorizations of a right "
                                    "action disagree",
                                    witness=(s, i, j, k, b))
            parts[slots[("R", k, b)]] = r1 if r1 is not None else r2
    return amb.assemble(parts)


def _endo_presentation(D, s):
    others, slots, amb = _endo_layout(D, s)
    i0, j0 = others[0], others[1]
    gens = []
    for x in D.module(s, i0).gens():
        for y in D.module(i0, j0).gens():
            for z in D.module(j0, s).gens():
                vec = _triple_endvec(D, s, others, slots, amb, i0, j0,
                                     x, y, z)
                gens.append((x, y, z, vec))
    span = Subgroup(amb.group, [g[3] for g in gens])
    return EndoPresentation(s=s, others=others, slots=slots, ambient=amb,
                            base_pair=(i0, j0), generators=tuple(gens),
                            span=span, chart=span.as_group())


def _endo_certificates(D, endo):
    """The two facts the construction stands on: the base pair already
    spans everything the other pairs contribute, and no nonzero element
    of the span acts trivially on any single index."""
    s = endo.s
    all_gens = list(endo.span.gens)
    for i, j in permutations(endo.others, 2):
        if (i, j) == endo.base_pair:
            continue
        for x, y, z in product(D.module(s, i).gens(), D.module(i, j).gens(),
                               D.module(j, s).gens()):
            all_gens.append(_triple_endvec(D, s, endo.others, endo.slots,
                                           endo.ambient, i, j, x, y, z))
    full = Subgroup(endo.ambient.group, all_gens)
    if endo.span != full:
        raise InternalAlarm("the base pair does not span the diagonal "
                            "block", witness=(s, endo.base_pair))
    Q = endo.chart.group
    injective = {}
    for k in endo.others:
        coords = sorted(endo.slots[key] for key in endo.slots
                        if key[1] == k)
        orders = []
        for t in coords:
            orders.extend(endo.ambient.parts[t].orders)
        target = FinAbGroup(orders)
        cols = []
        for p in range(Q.dim):
            vec = endo.chart.incl(Q.gen(p))
            flat = []
            for t in coords:
                flat.extend(endo.ambient.project(t, vec))
            cols.append(target.reduce(flat))
        h = AbHom(Q, target, cols)
        if not h.is_injective():
            raise InjectivityFailure("the diagonal block does not act "
                                     "faithfully on one index",
                                     witness=(s, k))
        injective[k] = True
    return injective


def _endo_product(endo, e, f):
    """Composition in the action family: (ef) acts on the left through e
    after f and on the right through f after e."""
    amb = endo.ambient
    parts = [None] * len(amb.parts)
    for (side, k, idx), t in endo.slots.items():
        if side == "L":
            u = amb.project(endo.slots[("L", k, idx)], f)
            G = amb.parts[t]
            out = G.zero
            for a2, c in enumerate(u):
                if c:
                    out = G.add(out, G.scale(
                        c, amb.project(endo.slots[("L", k, a2)], e)))
            parts[t] = out
        else:
            v = amb.project(endo.slots[("R", k, idx)], e)
            G = amb.parts[t]
            out = G.zero
            for b2, c in enumerate(v):
                if c:
                    out = G.add(out, G.scale(
                        c, amb.project(endo.slots[("R", k, b2)], f)))
            parts[t] = out
    return amb.assemble(parts)


def _endo_tables(D, endo):
    """All structure tables involving one diagonal block in reduced mode."""
    s = endo.s
    Q = endo.chart.group
    incl = [endo.chart.incl(Q.gen(p)) for p in range(Q.dim)]
    tables = {}
    for k in endo.others:
        Gsk, Gks = D.module(s, k), D.module(k, s)
        left = {}
        right = {}
        for p in range(Q.dim):
            for a in range(Gsk.dim):
                left[(p, a)] = endo.slot_value(incl[p], "L", k, a)
            for b in range(Gks.dim):
                right[(b, p)] = endo.slot_value(incl[p], "R", k, b)
        if left:
            tables[(s, s, k)] = left
        if right:
            tables[(k, s, s)] = right

        j1 = next(i for i in endo.others if i != k)
        Gkj, Gjs = D.module(k, j1), D.module(j1, s)
        T = TensorGroup(Gkj, Gjs)
        dec_gens = T.values(lambda y, z: (y, z))   # (y, z) per coordinate
        f = T.hom(Gks, partial(D.cvalue, k, j1, s))

        def product_vec(x, lam):
            out = endo.ambient.group.zero
            for c, (y, z) in zip(lam, dec_gens):
                if c:
                    vec = _triple_endvec(D, s, endo.others, endo.slots,
                                         endo.ambient, k, j1, x, y, z)
                    out = endo.ambient.group.add(
                        out, endo.ambient.group.scale(c, vec))
            return out

        for row in f.kernel().basis():
            for x in Gsk.gens():
                if any(product_vec(x, row)):
                    raise InternalAlarm(
                        "a pairing into the diagonal block depends on the "
                        "decomposition", witness=(s, k, tuple(row)))
        pairing = {}
        for a, x in enumerate(Gsk.gens()):
            for b, w in enumerate(Gks.gens()):
                lam = f.preimage(w)
                if lam is None:
                    raise InternalAlarm("a module element has no product "
                                        "decomposition", witness=(s, k, b))
                vec = product_vec(x, lam)
                try:
                    pairing[(a, b)] = endo.chart.coords(vec)
                except ValueError:
                    raise InternalAlarm("a pairing value left the diagonal "
                                        "span", witness=(s, k, a, b))
        if pairing:
            tables[(s, k, s)] = pairing

    square = {}
    for p in range(Q.dim):
        for r in range(Q.dim):
            vec = _endo_product(endo, incl[p], incl[r])
            try:
                square[(p, r)] = endo.chart.coords(vec)
            except ValueError:
                raise InternalAlarm("the diagonal block is not closed "
                                    "under composition", witness=(s, p, r))
    if square:
        tables[(s, s, s)] = square
    return tables

def _reduced_diagonal(D, s, _order, tables, certificates):
    """Diagonal block s of the reduced construction, as _firm_diagonal;
    the span and faithfulness checks go into `certificates`."""
    endo = _endo_presentation(D, s)
    certificates.setdefault("factor_injective", {})[s] = \
        _endo_certificates(D, endo)
    certificates.setdefault("base_pair_spans", {})[s] = True
    tables.update(_endo_tables(D, endo))
    return endo, endo.chart.group


# -- the rebuild: the gates, then one construction --------------------------

def rebuild_gates(D, mode):
    """The hypotheses of the `mode` construction on D, in the order they
    are checked, as (report row name, property the data must have, check
    returning (ok, witness)); each check assumes the ones before passed."""
    body = _firm_rel if mode == "firm" else _reduced_rel
    return (("k-linear", "K-linear", lambda: check_K_linear(D)),
            ("idempotent-rel", "idempotent", lambda: check_idempotent_rel(D)),
            (mode + "-rel", mode, lambda: body(D)))


def _construct(D, mode, summand_order=None):
    """The `mode` construction on data of rank at least 4 that passed
    `rebuild_gates(D, mode)`, certified by one associativity pass, bucketed
    by index pattern, then the idempotent predicate and the mode's own
    predicate.  The other predicate is left as None in the report."""
    blocks = {(i, j): D.module(i, j)
              for i in range(D.rank) for j in range(D.rank) if i != j}
    tables = {key: dict(tab) for key, tab in D.cmaps.items()}
    diagonals = {}
    certificates = {}
    diagonal = _firm_diagonal if mode == "firm" else _reduced_diagonal
    for s in range(D.rank):
        order = None if summand_order is None else summand_order.get(s)
        diagonals[s], blocks[(s, s)] = diagonal(D, s, order, tables,
                                                certificates)

    ring = PeirceRing(D.rank, D.modulus, blocks, tables, check=False)
    patterns = verify_associativity_patterns(ring)
    if not patterns.ok:
        raise InternalAlarm("an associativity index pattern fails on the "
                            "rebuilt ring",
                            witness=sorted(patterns.failing())[0])
    found = {"idempotent": is_idempotent(ring), "firm": (None, None),
             "reduced": (None, None)}
    found[mode] = (is_firm(ring) if mode == "firm"
                   else _is_reduced_given(ring, found["idempotent"]))
    for name in ("idempotent", mode):
        ok, wit = found[name]
        if not ok:
            raise InternalAlarm("rebuilt ring fails the %s predicate" % name,
                                witness=wit)
    certificates["associativity_patterns"] = patterns
    certificates["predicates"] = PredicateReport(
        *found["idempotent"], *found["firm"], *found["reduced"])
    return CoordinatizationResult(ring=ring, mode=mode, diagonals=diagonals,
                                  certificates=certificates)


def _require_gates(D, mode):
    if D.rank < 4:
        raise RankTooSmall("need rank at least 4, got %d" % D.rank)
    for _name, prop, check in rebuild_gates(D, mode):
        ok, wit = check()
        if not ok:
            raise PreconditionFailed("data is not %s at %r" % (prop, wit))


def firm_coordinatize(D, summand_order=None):
    """Rebuild a Peirce ring from firm data of rank at least 4.

    Diagonal blocks are quotients of sums of tensor squares; their
    multiplications are induced along representatives and certified by
    explicit kernel checks.  `summand_order` optionally reorders the
    tensor summands per diagonal index ({s: permutation of the others});
    the result is then presented differently but is the same ring up to
    the connecting isomorphism.
    """
    _require_gates(D, "firm")
    return _construct(D, "firm", summand_order)


def reduced_coordinatize(D):
    """Rebuild a Peirce ring from reduced data of rank at least 4.

    Each diagonal block is realized concretely as the additive span of
    the generating action families; multiplication is composition, and
    faithfulness of the action on every single index is what replaces
    the quotient bookkeeping of the firm construction.
    """
    _require_gates(D, "reduced")
    return _construct(D, "reduced")


# -- the comparison isomorphism -----------------------------------------------

@dataclass(frozen=True)
class ConnectionReport:
    """A blockwise comparison homomorphism and where it is bijective."""

    hom: PeirceHom
    bijective: dict

    @property
    def is_isomorphism(self):
        return all(self.bijective.values())


def _induces(R, D):
    """Whether extract(R) == D, compared without building the data: the
    same off-diagonal blocks and nonzero tables on distinct indices."""
    return (R.modulus == D.modulus
            and all(R.blocks[key] == G for key, G in D.modules.items())
            and {key: tab for key, tab in R.tables.items()
                 if len(set(key)) == 3}
            == {key: tab for key, tab in D.cmaps.items() if tab})


def connecting_hom(D, built, original):
    """The canonical homomorphism from a rebuilt ring onto any ring
    carrying the same data.

    Off-diagonal blocks map by the identity; a diagonal class maps to the
    product its tensors (firm mode) or generating triples (reduced mode)
    multiply out to inside `original`.  Multiplicativity is verified on
    all generator pairs and bijectivity is reported per block, so running
    this against the extraction source shows that the reconstruction is
    isomorphic to it; it does not show that the isomorphism is unique.
    """
    if built.ring.rank != original.rank or D.rank != original.rank:
        raise PreconditionFailed("rank mismatch")
    if original.rank < 3:
        raise RankTooSmall("need rank at least 3, got %d" % original.rank)
    if not _induces(original, D):
        raise PreconditionFailed(
            "the original ring does not induce the given data")
    if not _induces(built.ring, D):
        raise PreconditionFailed(
            "the rebuilt ring does not induce the given data")

    homs = {}
    for i in range(original.rank):
        for j in range(original.rank):
            if i != j:
                homs[(i, j)] = AbHom.identity(original.blocks[(i, j)])
    for s in range(original.rank):
        pres = built.diagonals[s]
        if built.mode == "firm":
            cols = []
            for i in pres.indices:
                cols += pres.tensors[i].values(
                    partial(original.block_mul, s, i, s))
            f = AbHom(pres.ambient.group, original.blocks[(s, s)], cols)
            homs[(s, s)] = induced_map(f, pres.quot)
        else:
            i0, j0 = pres.base_pair
            amb = pres.ambient.group
            F = FinAbGroup([amb.exponent] * len(pres.generators))
            f = AbHom(F, amb, [g[3] for g in pres.generators])
            target = original.blocks[(s, s)]
            value = AbHom(F, target, [
                original.block_mul(s, i0, s, x,
                                   original.block_mul(i0, j0, s, y, z))
                for x, y, z, _ in pres.generators])
            Q = pres.chart.group
            cols = []
            for p in range(Q.dim):
                lam = f.preimage(pres.chart.incl(Q.gen(p)))
                if lam is None:
                    raise InternalAlarm("a diagonal generator is not a "
                                        "combination of triples",
                                        witness=(s, p))
                cols.append(value(lam))
            homs[(s, s)] = AbHom(Q, target, cols)

    hom = PeirceHom(built.ring, original, homs)
    bad = hom.multiplicativity_failures(limit=1)
    if bad:
        raise NotHomomorphism("the comparison map is not multiplicative",
                              witness=bad[0])
    bij = {key: h.is_isomorphism() for key, h in hom.homs.items()}
    return ConnectionReport(hom=hom, bijective=bij)


# -- associativity index patterns ---------------------------------------------

HYPOTHESIS_PATTERNS = ("ijkl", "ijki", "ijik", "ijkj", "ijii", "iiji")
DERIVED_PATTERNS = ("iijk", "ijkk", "ijij", "ijjk", "ijji", "iiij",
                    "ijjj", "iijj", "iiii")


def _pattern_name(quad):
    """Canonical name of the coincidence pattern of four indices, lettered
    by first occurrence.

    >>> _pattern_name((3, 1, 3, 3))
    'ijii'
    >>> _pattern_name((2, 2, 5, 2))
    'iiji'
    """
    seen = {}
    out = []
    for t in quad:
        if t not in seen:
            seen[t] = "ijkl"[len(seen)]
        out.append(seen[t])
    return "".join(out)


@cache
def _quad_patterns(rank):
    """{quad: _pattern_name(quad)} for every quadruple of indices below
    rank, in lexicographic order; named once per rank."""
    return {quad: _pattern_name(quad)
            for quad in product(range(rank), repeat=4)}


@dataclass(frozen=True)
class PatternReport:
    """Associativity on generator triples, bucketed by index pattern.

    A triple product over blocks (i, j), (j, k), (k, l) is sorted by
    which of the four indices coincide; six of the fifteen patterns
    suffice to force the other nine, so a corruption confined to the
    derived nine is impossible in honest data while any corruption at
    all still shows up in some bucket.
    """

    patterns: dict

    @property
    def ok(self):
        return all(not entry["failures"] for entry in self.patterns.values())

    @property
    def hypothesis_ok(self):
        return all(not self.patterns[n]["failures"]
                   for n in HYPOTHESIS_PATTERNS)

    @property
    def derived_ok(self):
        return all(not self.patterns[n]["failures"]
                   for n in DERIVED_PATTERNS)

    def failing(self):
        return [n for n, entry in self.patterns.items()
                if entry["failures"]]


def verify_associativity_patterns(R, failure_limit=3):
    """Check (xy)z = x(yz) on generator triples for every quadruple of
    block indices, reported per coincidence pattern.

    The six hypothesis patterns are the ones a reconstruction has to
    supply; the nine others come for free once those hold, and checking
    them anyway turns that implication into a tested fact on R.
    """
    if R.rank < 4:
        raise RankTooSmall("need rank at least 4, got %d" % R.rank)
    patterns = {name: {"kind": "hypothesis", "checked": 0, "failures": []}
                for name in HYPOTHESIS_PATTERNS}
    for name in DERIVED_PATTERNS:
        patterns[name] = {"kind": "derived", "checked": 0, "failures": []}
    names = _quad_patterns(R.rank)
    for (i, j, k, l), name in names.items():
        patterns[name]["checked"] += (
            R.blocks[(i, j)].dim * R.blocks[(j, k)].dim * R.blocks[(k, l)].dim)
    for quad, abc in nonassociative_triples(names, R.block, R.block_mul):
        failures = patterns[names[quad]]["failures"]
        if len(failures) < failure_limit:
            failures.append((quad, abc))
    return PatternReport(patterns=patterns)
