"""Collapse of odd-dimensional algebras along the volume element.

Oracles: the idempotent identities and the homomorphism law are checked by
exact multivector multiplication (exhaustive over blade pairs at small n);
the transfer verdicts are recomputed here by applying each transformation to
eps*omega with the raw core operations, independently of the module's own
parity route.  Catalog labels (classes a1..f2, coverings pin^{..}) are pinned
literally.
"""

import pytest
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from cliffork.core_algebra import GaussianScalar, MultiVector, SignatureSpec, _multivector
from cliffork.coverings import predicted_pt_signature
from cliffork.quotient import (
    CLASS_SETS,
    PHYSICAL_NAMES,
    apply_transformation,
    central_idempotents,
    epsilon_context,
    epsilon_map,
    quotient_class,
    quotient_group,
    transfer_report,
)
from cliffork.spinor_repr import build_spinbasis
from cliffork.verify import _quotient_contexts


def real_contexts(max_n):
    out = []
    for n in range(1, max_n + 1, 2):
        for p in range(n + 1):
            if (2 * p - n) % 8 in (1, 5):
                out.append(epsilon_context(p, n - p))
    return out


def complex_contexts(max_n):
    out = []
    for n in range(1, max_n + 1, 2):
        for p in range(n + 1):
            out.append(epsilon_context(SignatureSpec(p, n - p, "C")))
    return out


# ---------------------------------------------------------------------------
# context construction


def test_context_real_line():
    ctx = epsilon_context(1, 0)
    assert ctx.epsilon == GaussianScalar.ONE
    one = MultiVector.scalar(ctx.sig, Fraction(1, 2))
    lam_p, lam_m = central_idempotents(ctx)
    assert (lam_p - (one + one * MultiVector.unit(ctx.sig, 1))).is_zero()
    assert (lam_m - (one - one * MultiVector.unit(ctx.sig, 1))).is_zero()
    assert ctx.target == SignatureSpec(0, 0)
    assert ctx.target_labels == (SignatureSpec(0, 0),)


def test_context_complex_three():
    # all-plus mark of the three-dimensional complex algebra: omega^2 = -1
    ctx = epsilon_context(SignatureSpec(3, 0, "C"))
    assert ctx.epsilon == GaussianScalar.I
    lam_p, _ = central_idempotents(ctx)
    want = MultiVector(
        ctx.sig,
        {
            0: GaussianScalar(Fraction(1, 2)),
            0b111: GaussianScalar(Fraction(0), Fraction(1, 2)),
        },
    )
    assert (lam_p - want).is_zero()


def test_context_errors():
    with pytest.raises(ValueError):
        epsilon_context(2, 0)  # even-dimensional
    with pytest.raises(ValueError):
        epsilon_context(SignatureSpec(2, 2, "C"))
    # real odd types 3 and 7 have omega^2 = -1: no real collapse
    with pytest.raises(ValueError, match="complexified"):
        epsilon_context(3, 0)
    with pytest.raises(ValueError, match="complexified"):
        epsilon_context(0, 1)


def test_context_targets_and_guards():
    ctx = epsilon_context(2, 1)
    assert ctx.target == SignatureSpec(2, 0)
    assert ctx.target_labels == (SignatureSpec(2, 0), SignatureSpec(1, 1))
    # q = 0 forces the (q, p-1) reading, realized by dropping the last (plus) unit
    ctx = epsilon_context(5, 0)
    assert ctx.target == SignatureSpec(4, 0)
    assert ctx.target_labels == (SignatureSpec(0, 4),)
    # p = 0 keeps only the (p, q-1) reading
    ctx = epsilon_context(0, 3)
    assert ctx.target == SignatureSpec(0, 2)
    assert ctx.target_labels == (SignatureSpec(0, 2),)
    # complex contexts carry the single lower-dimensional complex algebra
    ctx = epsilon_context(SignatureSpec(3, 2, "C"))
    assert ctx.target == SignatureSpec(3, 1, "C")
    assert ctx.target_labels == (ctx.target,)


def test_epsilon_choice_tracks_volume_square():
    for ctx in complex_contexts(7):
        n = ctx.sig.n
        want_real = (n % 4 == 1) == (ctx.sig.q % 2 == 0)
        assert ctx.epsilon.is_real() == want_real, ctx.sig


# ---------------------------------------------------------------------------
# idempotents


@pytest.mark.parametrize("ctx", real_contexts(7) + complex_contexts(7), ids=lambda c: str(c.sig))
def test_idempotent_identities(ctx):
    lam_p, lam_m = central_idempotents(ctx)
    one = MultiVector.scalar(ctx.sig, 1)
    # recomputed here, not trusting the constructor's own checks
    assert (lam_p * lam_p - lam_p).is_zero()
    assert (lam_m * lam_m - lam_m).is_zero()
    assert (lam_p * lam_m).is_zero()
    assert (lam_m * lam_p).is_zero()
    assert (lam_p + lam_m - one).is_zero()
    sq = ctx.ew * ctx.ew
    assert sq.is_scalar() and sq.scalar_part() == GaussianScalar.ONE


# ---------------------------------------------------------------------------
# the collapse map


def test_epsilon_map_unit_values():
    for ctx in (epsilon_context(2, 1), epsilon_context(SignatureSpec(3, 0, "C"))):
        one = MultiVector.scalar(ctx.target, 1)
        assert (epsilon_map(ctx.ew, ctx) - one).is_zero()
        lam_p, lam_m = central_idempotents(ctx)
        assert (epsilon_map(lam_p, ctx) - one).is_zero()
        assert epsilon_map(lam_m, ctx).is_zero()


def test_epsilon_map_kernel_exhaustive():
    for ctx in real_contexts(5) + complex_contexts(5):
        for mask in range(1 << ctx.sig.n):
            x = MultiVector.from_mask(ctx.sig, mask)
            ker = x - ctx.ew * x
            assert epsilon_map(ker, ctx).is_zero(), (ctx.sig, mask)


def test_epsilon_map_multiplicative_exhaustive():
    # homomorphism law on every ordered blade pair, all odd signatures n <= 5
    for ctx in real_contexts(5) + complex_contexts(5):
        images = {}
        for mask in range(1 << ctx.sig.n):
            images[mask] = epsilon_map(MultiVector.from_mask(ctx.sig, mask), ctx)
        for a in range(1 << ctx.sig.n):
            xa = MultiVector.from_mask(ctx.sig, a)
            for b in range(1 << ctx.sig.n):
                lhs = epsilon_map(xa * MultiVector.from_mask(ctx.sig, b), ctx)
                rhs = images[a] * images[b]
                assert (lhs - rhs).is_zero(), (ctx.sig, a, b)


def test_epsilon_map_surjective_on_blades():
    for ctx in real_contexts(5) + complex_contexts(5):
        hit = set()
        for mask in range(1 << ctx.sig.n):
            img = epsilon_map(MultiVector.from_mask(ctx.sig, mask), ctx)
            (m, _), = list(img.items())
            hit.add(m)
        assert hit == set(range(1 << ctx.target.n)), ctx.sig


def epsilon_map_by_dicts(x, ctx):
    """The collapse as it was before the one-term branch: every value is
    split into two dicts by mask and folded as a multivector."""
    top = 1 << (ctx.sig.n - 1)
    out, high = {}, {}
    for mask, c in x.items():
        (high if mask & top else out)[mask] = c
    if high:
        for mask, c in (ctx.ew * _multivector(ctx.sig, high)).items():
            assert not mask & top
            c = out.get(mask, GaussianScalar.ZERO) + c
            if c:
                out[mask] = c
            else:
                del out[mask]
    return _multivector(ctx.target, out)


def test_one_term_epsilon_map_matches_the_dict_route():
    coeffs = (GaussianScalar.ONE, GaussianScalar.I, GaussianScalar.of(Fraction(-3, 2)),
              GaussianScalar(Fraction(2, 3), -1))
    for ctx in _quotient_contexts(7):
        values = [MultiVector.from_mask(ctx.sig, m, c)
                  for m in range(1 << ctx.sig.n) for c in coeffs]
        # two terms, one of them folded onto the other: the dict branch
        one = MultiVector.scalar(ctx.sig, 1)
        values += [one + ctx.ew, one - ctx.ew]
        for x in values:
            got, want = epsilon_map(x, ctx), epsilon_map_by_dicts(x, ctx)
            assert got == want and hash(got) == hash(want), (ctx.sig, str(x))
            assert str(got) == str(want)
            assert got.sig is ctx.target


def test_epsilon_map_rejects_wrong_algebra():
    ctx = epsilon_context(2, 1)
    with pytest.raises(ValueError, match="context"):
        epsilon_map(MultiVector.scalar(SignatureSpec(1, 2), 1), ctx)


@given(data=st.data())
@settings(max_examples=60)
def test_epsilon_map_homomorphism_random(data):
    ctx = data.draw(st.sampled_from(real_contexts(5) + complex_contexts(5)))
    dim = 1 << ctx.sig.n

    def rand_mv():
        coeffs = data.draw(
            st.dictionaries(st.integers(0, dim - 1), st.integers(-4, 4), max_size=5)
        )
        return MultiVector(ctx.sig, {m: GaussianScalar.of(c) for m, c in coeffs.items()})

    x, y = rand_mv(), rand_mv()
    lhs = epsilon_map(x * y, ctx)
    rhs = epsilon_map(x, ctx) * epsilon_map(y, ctx)
    assert (lhs - rhs).is_zero()
    assert epsilon_map(x - ctx.ew * x, ctx).is_zero()


# ---------------------------------------------------------------------------
# transfer of the discrete transformations


@pytest.mark.parametrize("ctx", real_contexts(7) + complex_contexts(7), ids=lambda c: str(c.sig))
def test_transfer_predicates_match_direct_action(ctx):
    report = transfer_report(ctx)
    for name in PHYSICAL_NAMES[1:]:
        image = apply_transformation(ctx.ew, name)
        fixes = (image - ctx.ew).is_zero()
        if not fixes:  # the only other option is a global sign flip
            assert (image + ctx.ew).is_zero(), (ctx.sig, name)
        assert report.entries[name].transfers == fixes, (ctx.sig, name)
    assert not report.entries["P"].transfers


@pytest.mark.parametrize("ctx", real_contexts(7) + complex_contexts(7), ids=lambda c: str(c.sig))
def test_transferred_set_is_a_four_subgroup(ctx):
    names = transfer_report(ctx).transferred()
    code = {"1": 0, "P": 1, "T": 2, "PT": 3, "C": 4, "CP": 5, "CT": 6, "CPT": 7}
    got = {code[n] for n in names}
    assert len(got) == 4
    for a in got:
        for b in got:
            assert a ^ b in got, (ctx.sig, names)


def test_transfer_named_cases():
    # reversal survives when the parent dimension is 1 mod 4
    assert transfer_report(epsilon_context(SignatureSpec(5, 0, "C"))).entries["T"].transfers
    assert transfer_report(epsilon_context(SignatureSpec(3, 2, "C"))).entries["T"].transfers
    assert not transfer_report(epsilon_context(SignatureSpec(3, 0, "C"))).entries["T"].transfers
    # coefficient conjugation survives for real parents with q even
    for args in ((1, 0), (3, 2), (5, 0)):
        assert transfer_report(epsilon_context(*args)).entries["C"].transfers
    rep = transfer_report(epsilon_context(2, 1))
    assert not rep.entries["C"].transfers
    assert rep.entries["CP"].transfers and rep.entries["CT"].transfers
    assert rep.transferred() == ("1", "PT", "CP", "CT")
    assert transfer_report(epsilon_context(1, 0)).transferred() == ("1", "T", "C", "CT")


def test_one_transfer_report_per_quotient_invocation(monkeypatch, capsys):
    import cliffork.quotient as quotient_module
    from cliffork.cli import run

    calls = []
    monkeypatch.setattr(quotient_module, "transfer_report",
                        lambda ctx: calls.append(ctx) or transfer_report(ctx))
    for argv in (["quotient", "--p", "2", "--q", "1"],
                 ["quotient", "--complex", "3", "--mark", "0,3", "--format", "json"]):
        calls.clear()
        assert run(argv) == 0
        assert len(calls) == 1, argv
    capsys.readouterr()


def test_transfer_reasons_mention_the_sign_sources():
    rep = transfer_report(epsilon_context(2, 1))
    assert "reversal" in rep.entries["T"].reason
    assert "grade flip" in rep.entries["P"].reason
    assert "negative generators" in rep.entries["C"].reason
    cplx = transfer_report(epsilon_context(SignatureSpec(3, 0, "C")))
    assert "eps=i" in cplx.entries["C"].reason


# ---------------------------------------------------------------------------
# symmetry classes


CLASS_CASES_COMPLEX = {
    (3, 2): "a1",  # n=5, marked ring 2R
    (1, 4): "a2",  # n=5, marked ring 2H
    (4, 1): "b",  # n=5, marked ring C
    (2, 3): "b",
    (3, 0): "c",  # n=3, marked ring C
    (1, 2): "c",
    (2, 1): "d1",  # n=3, marked ring 2R
    (0, 3): "d2",  # n=3, marked ring 2H
}

CLASS_CASES_REAL = {
    (1, 0): "e1",
    (3, 2): "e1",
    (2, 1): "e2",
    (4, 3): "e2",
    (5, 0): "f1",
    (1, 4): "f1",
    (0, 3): "f2",
    (2, 5): "f2",
}


def test_class_labels_and_sets():
    for (p, q), label in CLASS_CASES_COMPLEX.items():
        rep = quotient_class(epsilon_context(SignatureSpec(p, q, "C")))
        assert rep.label == label, (p, q)
        assert rep.symmetry_set == CLASS_SETS[label]
    for (p, q), label in CLASS_CASES_REAL.items():
        rep = quotient_class(epsilon_context(p, q))
        assert rep.label == label, (p, q)
        assert rep.symmetry_set == CLASS_SETS[label]


def test_class_sets_verbatim():
    assert CLASS_SETS["a1"] == ("T", "C~I")
    assert CLASS_SETS["a2"] == ("T", "C")
    assert CLASS_SETS["b"] == ("T", "CP", "CPT")
    assert CLASS_SETS["c"] == ("PT", "C", "CPT")
    assert CLASS_SETS["d1"] == ("PT", "CP~IP", "CT~IT")
    assert CLASS_SETS["d2"] == ("PT", "CP", "CT")
    assert CLASS_SETS["e1"] == ("T", "C~I", "CT~IT")
    assert CLASS_SETS["e2"] == ("T", "CP~IP", "CPT~IPT")
    assert CLASS_SETS["f1"] == ("T", "C~C'", "CT~C'T")
    assert CLASS_SETS["f2"] == ("T", "CP~C'P", "CPT~C'PT")


def test_class_rings_follow_the_mark():
    assert quotient_class(epsilon_context(SignatureSpec(3, 2, "C"))).ring == "2R"
    assert quotient_class(epsilon_context(SignatureSpec(1, 4, "C"))).ring == "2H"
    assert quotient_class(epsilon_context(SignatureSpec(4, 1, "C"))).ring == "C"
    assert quotient_class(epsilon_context(5, 0)).ring == "2H"


def test_class_notes_flag_catalog_vs_direct_divergence():
    # the catalog set and the direct fixed-point set agree only in these cells
    quiet = {"b", "e1", "f1"}
    for (p, q), label in {**CLASS_CASES_COMPLEX}.items():
        rep = quotient_class(epsilon_context(SignatureSpec(p, q, "C")))
        assert bool(rep.notes) == (label not in quiet), (p, q)
    for (p, q), label in CLASS_CASES_REAL.items():
        rep = quotient_class(epsilon_context(p, q))
        assert bool(rep.notes) == (label not in quiet), (p, q)
    # the divergent real cells keep {PT, CP, CT} on the direct route
    rep = quotient_class(epsilon_context(2, 1))
    assert rep.transferred == ("1", "PT", "CP", "CT")
    assert "PT, CP, CT" in rep.notes[0]


def _has_direct_note(report):
    return any("direct fixed-point route" in n for n in report.notes)


# (field, p, q) of the odd cells up to p+q = 9 where quotient_group's catalog
# survivors differ from the folded direct route
GROUP_DIVERGENT_CELLS = {
    ("R", 0, 3), ("R", 2, 5), ("R", 6, 1),
    ("C", 0, 3), ("C", 1, 2), ("C", 2, 1), ("C", 3, 0),
    ("C", 1, 4), ("C", 5, 0),
    ("C", 0, 7), ("C", 1, 6), ("C", 2, 5), ("C", 3, 4),
    ("C", 4, 3), ("C", 5, 2), ("C", 6, 1), ("C", 7, 0),
    ("C", 3, 6), ("C", 7, 2),
}


def test_catalog_direct_divergence_up_to_n9():
    contexts = real_contexts(9) + complex_contexts(9)
    assert len(contexts) == 45
    class_cells, group_cells = set(), set()
    for ctx in contexts:
        sig = ctx.sig
        cell = (sig.field, sig.p, sig.q)
        if sig.field == "C":
            diverges = sig.n % 4 == 3 or sig.type_index() in (1, 5)
        else:
            diverges = sig.q % 2 == 1
        assert _has_direct_note(quotient_class(ctx)) == diverges, cell
        if diverges:
            class_cells.add(cell)
        if _has_direct_note(quotient_group(ctx)):
            group_cells.add(cell)
    assert len(class_cells) == 27
    assert group_cells == GROUP_DIVERGENT_CELLS
    assert group_cells <= class_cells


# ---------------------------------------------------------------------------
# collapsed coverings


def test_group_labels_real():
    assert quotient_group(epsilon_context(1, 0)).label == "pin^{b}"
    assert quotient_group(epsilon_context(3, 2)).label == "pin^{b}"
    assert quotient_group(epsilon_context(2, 1)).label == "pin^{a,b,c}"
    assert quotient_group(epsilon_context(5, 0)).label == "pin^{b,d,f}"
    assert quotient_group(epsilon_context(0, 3)).label == "pin^{b,e,g}"


def test_group_labels_complex():
    cases = {
        (3, 2): "pin^{b}",
        (1, 4): "pin^{b,d}",
        (4, 1): "pin^{b,e,g}",
        (3, 0): "pin^{c,d,g}",
        (2, 1): "pin^{a,b,c}",
        (0, 3): "pin^{c,e,f}",
    }
    for (p, q), label in cases.items():
        assert quotient_group(epsilon_context(SignatureSpec(p, q, "C"))).label == label


def test_group_survivors_and_matrices():
    rep = quotient_group(epsilon_context(2, 1))
    assert rep.survivors == ("1", "P", "T", "PT")
    assert rep.matrix_names == ("I", "W", "E", "C")
    assert rep.reductions == ("CP~P", "CPT~PT")
    rep = quotient_group(epsilon_context(5, 0))
    assert rep.survivors == ("1", "T", "C", "CT")
    assert rep.matrix_names == ("I", "E", "Pi", "S")
    rep = quotient_group(epsilon_context(SignatureSpec(0, 3, "C")))
    assert rep.survivors == ("1", "PT", "CP", "CT")
    assert rep.matrix_names == ("I", "C", "K", "S")


def test_group_cayley_tables():
    # {1,P,T,PT}: composition is bitwise xor on the P/T letters
    rep = quotient_group(epsilon_context(2, 1))
    assert rep.cayley.elements == ["1", "P", "T", "PT"]
    assert rep.cayley.table == [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
    assert rep.abstract == "Z2xZ2"
    # the same Klein shape for every four-element survivor set
    for ctx in (
        epsilon_context(5, 0),
        epsilon_context(0, 3),
        epsilon_context(SignatureSpec(3, 0, "C")),
        epsilon_context(SignatureSpec(0, 3, "C")),
        epsilon_context(SignatureSpec(4, 1, "C")),
    ):
        rep = quotient_group(ctx)
        assert rep.cayley.table == [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
        assert rep.abstract == "Z2xZ2"
    two = quotient_group(epsilon_context(1, 0))
    assert two.cayley.table == [[0, 1], [1, 0]]
    assert two.abstract == "Z2"


def test_group_three_element_case_is_not_closed():
    rep = quotient_group(epsilon_context(SignatureSpec(1, 4, "C")))
    assert rep.survivors == ("1", "T", "C")
    assert rep.cayley is None and rep.abstract is None
    assert any("not closed" in n and "CT" in n for n in rep.notes)
    assert rep.cover_formulas == ()


def test_group_cover_formulas_and_targets():
    rep = quotient_group(epsilon_context(2, 1))
    assert rep.targets == (SignatureSpec(2, 0), SignatureSpec(1, 1))
    assert rep.cover_formulas == (
        "pin^{a,b,c}(2,0) = (spin+(2,0) . C^{a,b,c}) / Z2",
        "pin^{a,b,c}(1,1) = (spin+(1,1) . C^{a,b,c}) / Z2",
    )
    rep = quotient_group(epsilon_context(3, 2))
    assert rep.cover_formulas == (
        "pin^{b}(3,1) = (spin+(3,1) . C^{b}) / Z2",
        "pin^{b}(2,2) = (spin+(2,2) . C^{b}) / Z2",
    )
    rep = quotient_group(epsilon_context(SignatureSpec(4, 1, "C")))
    assert rep.cover_formulas == ("pin^{b,e,g}(4,C) = (spin+(4,C) . C^{b,e,g}) / Z2",)


def test_group_concrete_covers():
    # the a,b,c letters are the squares of W,E,C in the target algebra, so the
    # concrete cover must agree with the independent sign prediction
    rep = quotient_group(epsilon_context(2, 1))
    for target in rep.targets:
        basis = build_spinbasis(target)
        triple = predicted_pt_signature(basis)
        minus = sum(1 for s in triple if s < 0)
        want = {0: "Z2xZ2xZ2", 1: "D4", 2: "Z4xZ2", 3: "Q4"}[minus]
        assert rep.cover_names[f"({target.p},{target.q})"] == want
    assert rep.cover_names == {"(2,0)": "Z4xZ2", "(1,1)": "D4"}
    assert quotient_group(epsilon_context(5, 0)).cover_names == {"(0,4)": "D4"}
    assert quotient_group(epsilon_context(SignatureSpec(0, 3, "C"))).cover_names == {"(2,C)": "Q4"}
    assert quotient_group(epsilon_context(SignatureSpec(4, 1, "C"))).cover_names == {"(4,C)": "Z4xZ2"}
    # a lone survivor E lifts to {+-I, +-E}: Z4 where E squares to -I in the
    # target, as on both targets of Cl(3,2), and Z2xZ2 where it squares to +I
    assert quotient_group(epsilon_context(3, 2)).cover_names == {"(3,1)": "Z4", "(2,2)": "Z4"}
    assert quotient_group(epsilon_context(1, 0)).cover_names == {"(0,0)": "Z2xZ2"}


def test_group_notes_divergent_cells():
    # real type 5, q odd: the direct route keeps {PT, CP, CT} upstairs
    rep = quotient_group(epsilon_context(0, 3))
    assert any("PT, CP, CT" in n for n in rep.notes)
    # real type 1, q odd: after C collapses downstairs the direct route lands
    # on the same reflection group, so no note
    assert quotient_group(epsilon_context(2, 1)).notes == ()
    assert quotient_group(epsilon_context(1, 0)).notes == ()
    assert quotient_group(epsilon_context(5, 0)).notes == ()


def test_group_sweep_consistency():
    # the survivor set is exactly the class's symmetry set folded by the
    # stated reductions (C~I drops to the identity, CP~P renames, C~C' keeps
    # the physical name since only its realization changes)
    for ctx in real_contexts(7) + complex_contexts(7):
        g = quotient_group(ctx)
        c = quotient_class(ctx)
        rename = {}
        for r in g.reductions:
            lhs, rhs = r.split("~")
            if "'" not in rhs:
                rename[lhs] = "1" if rhs == "I" else rhs
        folded = {rename.get(s.split("~")[0], s.split("~")[0]) for s in c.symmetry_set}
        assert folded | {"1"} == set(g.survivors), ctx.sig
        if g.cayley is not None:
            assert g.abstract in ("Z2", "Z2xZ2")
            assert len(g.cover_formulas) == len(g.targets)
