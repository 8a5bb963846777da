import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from ainfbench import gauge as gauge_mod, hochschild
from ainfbench.cli import REFERENCE_MU4
from ainfbench.gauge import (GaugeTransformation, ObstructionError,
                             extract_invariants, gauge_apply, gauge_compose,
                             kill_orders, m6_certificate, mc_extend,
                             preset_gauge_G, preset_gauge_H, random_gauge,
                             rescale)
from ainfbench.perturbation import preset_splitting_C, transfer
from ainfbench.hochschild import (Cochain, coboundary, cochain_basis,
                                  gerstenhaber, is_coboundary,
                                  mu_cochain, reference_cocycle,
                                  class_coordinate)
from ainfbench.quiver import AInfStructure, Element, preset_A
from ainfbench.scalars import FieldSpec

def test_identity_gauge_is_identity(Q, model8):
    B = model8.minimal
    trivial = GaugeTransformation(Q, B.cat, {})
    assert gauge_apply(trivial, B, 8).tables == B.tables


def test_preset_G_kills_mu3(Q, gh_models):
    b, b1, _ = gh_models
    assert 3 in b.tables
    assert 3 not in b1.tables


def test_mu4_table_after_G(Q, gh_models):
    _, b1, _ = gh_models
    want = {
        t: Element.single(g, Q.scalar(*c)) for t, (g, c) in REFERENCE_MU4.items()
    }
    assert b1.tables[4] == want


def test_preset_H_kills_mu4(Q, gh_models):
    _, _, b2 = gh_models
    assert 3 not in b2.tables and 4 not in b2.tables
    assert 5 in b2.tables  # the shortcut normalization keeps mu^5


def test_gauged_structures_satisfy_relations(gh_models):
    for struct in gh_models[1:]:
        assert struct.ainf_check(8) == []


def test_mu6_witness_values(Q, gh_models):
    b2 = gh_models[2]
    mu6 = mu_cochain(b2, 6)
    assert coboundary(mu6, b2).is_zero()
    scaled = mu6.scale(Q.scalar(144))
    want = {
        ("u", "v", "f1", "u", "e1", "v"): ("f0", -9),
        ("f1", "u", "v", "u", "e1", "v"): ("f0", 5),
        ("f1", "u", "e1", "v", "u", "v"): ("f0", 9),
        ("f1", "f1", "u", "e1", "v", "f1"): ("f1", 11),
    }
    for t, (g, num) in want.items():
        assert scaled.value(t) == Element.single(g, Q.scalar(num)), t


def test_certificate_infeasible_over_Q(Q, gh_models):
    b2 = gh_models[2]
    cert = m6_certificate(mu_cochain(b2, 6), b2)
    assert cert.nonzero
    assert cert.rank_system + 1 == cert.rank_augmented
    assert cert.chain and cert.chain[-1].conflict is not None


def test_certificate_solvable_case(Q, model8):
    # a coboundary mu6 must come back with a primitive, not a certificate
    from ainfbench.hochschild import cochain_basis, Cochain, coboundary as cb

    B = model8.minimal
    rng = random.Random(1)
    table = {}
    for key, g in cochain_basis(B, 5, -4):
        if rng.random() < 0.5:
            table[key] = Element.single(g, Q.scalar(rng.randint(-3, 3)))
    nu0 = Cochain(5, -4, table)
    cert = m6_certificate(cb(nu0, B), B)
    assert not cert.nonzero
    assert cert.primitive is not None


def test_kill_orders_effect_matches_presets(Q, model8):
    # killing order 3 must reproduce the effect of preset G: same mu^3 (= 0)
    # and gauge-equivalent mu^4; primitives may differ from the preset g
    B = model8.minimal
    steps, fixed = kill_orders(B, (3,))
    assert 3 not in fixed.tables
    phi_fixed = mu_cochain(fixed, 4)
    g = preset_gauge_G(Q, B.cat)
    b1 = gauge_apply(g, B, 8)
    phi_preset = mu_cochain(b1, 4)
    diff = phi_fixed - phi_preset
    assert coboundary(diff, B).is_zero()
    assert is_coboundary(diff, B) is not None


def test_kill_345_and_cocycle(Q, model8):
    _, fixed = kill_orders(model8.minimal, (3, 4, 5))
    for d in (3, 4, 5):
        assert d not in fixed.tables
    mu6 = mu_cochain(fixed, 6)
    assert coboundary(mu6, fixed).is_zero()
    assert fixed.ainf_check(8) == []


def test_kill_6_obstructed(Q, model8):
    _, fixed = kill_orders(model8.minimal, (3, 4, 5))
    with pytest.raises(ObstructionError) as err:
        kill_orders(fixed, (6,))
    assert err.value.order == 6
    assert err.value.coordinate == Q.scalar(-1, 48)


@pytest.mark.parametrize("orders", [(1,), (2, 3), (3, 9)])
def test_kill_orders_refuses_an_arity_it_cannot_act_on(model8, orders):
    # mu^1 and mu^2 are no gauge's to change, and mu^9 lies above the
    # truncation
    bad = next(d for d in orders if not 3 <= d <= 8)
    with pytest.raises(ValueError, match=f"^cannot gauge away order {bad}: "):
        kill_orders(model8.minimal, orders)


def test_gauge_group_action(Q, model8):
    B = model8.minimal
    g1 = random_gauge(Q, B.cat, random.Random(41), orders=(2, 3))
    g2 = random_gauge(Q, B.cat, random.Random(42), orders=(2, 4))
    serial = gauge_apply(g2, gauge_apply(g1, B, 8), 8)
    composed = gauge_apply(gauge_compose(g2, g1, 8), B, 8)
    assert serial.tables == composed.tables


def test_gauge_beyond_truncation_rejected(Q):
    # mu's arities above its truncation are unknown, not zero: gauging
    # transfer(., 6) to order 10 would make up tables 7-10
    B = transfer(preset_splitting_C(Q), 6).minimal
    with pytest.raises(ValueError, match="beyond truncation 6"):
        gauge_apply(preset_gauge_G(Q, B.cat), B, 10)
    assert gauge_apply(preset_gauge_G(Q, B.cat), B, 6).truncation == 6


def _oracle_gauges(Q, cat):
    return ([preset_gauge_G(Q, cat), preset_gauge_H(Q, cat)]
            + [random_gauge(Q, cat, random.Random(seed)) for seed in range(4)])


def test_gauge_apply_matches_brute_force(Q, model8, mc8):
    for name, base in (("B", model8.minimal), ("mc", mc8)):
        for i, g in enumerate(_oracle_gauges(Q, base.cat)):
            got = gauge_apply(g, base, 8).tables
            want = oracles.gauge_apply(g, base, 8).tables
            assert oracles.ordered(got) == oracles.ordered(want), (name, i)


def test_kill_orders_step_matches_brute_force(model8):
    B = model8.minimal
    steps, fixed = kill_orders(B, (3,))
    want = oracles.gauge_apply(steps[0], B, 8).tables
    assert oracles.ordered(fixed.tables) == oracles.ordered(want)


def test_gauge_compose_matches_brute_force(Q, model8):
    cat = model8.minimal.cat
    g1 = random_gauge(Q, cat, random.Random(41), orders=(2, 3))
    g2 = random_gauge(Q, cat, random.Random(42), orders=(2, 4))
    for second, first in ((g2, g1), (g1, g2), (g1, GaugeTransformation(Q, cat, {}))):
        got = gauge_compose(second, first, 8).components
        want = oracles.gauge_compose(second, first, 8).components
        assert oracles.ordered(got) == oracles.ordered(want)


@pytest.fixture(scope="module", params=[5, 7], ids=["F5", "F7"])
def prime_bases(request):
    """The field F_p, transfer(., 8) and mc_extend(., 1/2, -2/3, 8) over it."""
    F = FieldSpec(request.param)
    return (F, transfer(preset_splitting_C(F), 8).minimal,
            mc_extend(F, F.scalar(1, 2), F.scalar(-2, 3), 8))


def _residues(tables, p):
    """Every Element of the tables is over F_p, its values in [0, p)."""
    return all(el.p == p and all(type(c) is int and 0 <= c < p for c in el.terms.values())
               for table in tables.values() for el in table.values())


def test_gauge_apply_matches_brute_force_over_prime_fields(prime_bases):
    # a missed reduction mod p in the raw loops shows as a value outside
    # [0, p) or an Element of the wrong field, which the oracle has not
    F, B, mc = prime_bases
    for name, base in (("B", B), ("mc", mc)):
        for i, g in enumerate(_oracle_gauges(F, base.cat)):
            got = gauge_apply(g, base, 8).tables
            assert oracles.ordered(got) == oracles.ordered(
                oracles.gauge_apply(g, base, 8).tables), (name, i)
            assert _residues(got, F.characteristic), (name, i)
    assert [g.supports() for g in _oracle_gauges(F, B.cat)][2:] == [[2, 3, 4]] * 4


def test_kill_orders_steps_match_brute_force_over_prime_fields(prime_bases):
    F, B, _ = prime_bases
    steps, fixed = kill_orders(B, (3, 4, 5))
    want = B
    for step in steps:
        want = oracles.gauge_apply(step, want, 8)
    assert [s.supports() for s in steps] == [[2], [3], [4]]
    assert oracles.ordered(fixed.tables) == oracles.ordered(want.tables)
    assert _residues(fixed.tables, F.characteristic)


def test_gauge_compose_matches_brute_force_over_prime_fields(prime_bases):
    F, B, _ = prime_bases
    g1 = random_gauge(F, B.cat, random.Random(41), orders=(2, 3))
    g2 = random_gauge(F, B.cat, random.Random(42), orders=(2, 4))
    g3 = random_gauge(F, B.cat, random.Random(43))
    for second, first in ((g2, g1), (g1, g3), (g3, g2)):
        got = gauge_compose(second, first, 8).components
        assert oracles.ordered(got) == oracles.ordered(
            oracles.gauge_compose(second, first, 8).components)
        assert _residues(got, F.characteristic)


def test_gauge_apply_matches_brute_force_at_order_9(Q, gh_models):
    # each mu_new^r key is scattered into every arity r+1..9 in one pass
    B = gh_models[0]
    g = random_gauge(Q, B.cat, random.Random(9))
    assert g.supports() == [2, 3, 4] and B.truncation == 9
    got = gauge_apply(g, B, 9).tables
    assert 9 in got
    assert oracles.ordered(got) == oracles.ordered(oracles.gauge_apply(g, B, 9).tables)


@given(seed=st.integers(0, 2**32 - 1), density=st.sampled_from((0.1, 0.35, 0.6)),
       orders=st.sampled_from(((2,), (3,), (2, 3), (2, 4), (2, 3, 4))))
def test_gauge_apply_property(Q, model8, seed, density, orders):
    B = model8.minimal
    g = random_gauge(Q, B.cat, random.Random(seed), orders=orders, density=density)
    moved = gauge_apply(g, B, 8)
    want = oracles.gauge_apply(g, B, 8).tables
    assert oracles.ordered(moved.tables) == oracles.ordered(want)
    assert moved.ainf_check(7) == []


def test_gauge_preserves_relations(Q, model8):
    B = model8.minimal
    for seed in range(4):
        g = random_gauge(Q, B.cat, random.Random(seed))
        assert gauge_apply(g, B, 8).ainf_check(7) == [], seed


def test_agreement_below_order_gives_cocycle_difference(Q, model8):
    # structures agreeing below arity d differ at d by a delta-cocycle
    B = model8.minimal
    g = random_gauge(Q, B.cat, random.Random(17), orders=(3,))
    moved = gauge_apply(g, B, 8)
    assert moved.tables.get(3) == B.tables.get(3)
    diff = mu_cochain(moved, 4) - mu_cochain(B, 4)
    assert coboundary(diff, B).is_zero()


def test_invariants_of_the_model(Q, model8):
    inv = extract_invariants(model8.minimal)
    assert inv.m6 == Q.scalar(-1, 48)
    assert inv.m8 == Q.scalar(1, 864)
    assert bool(inv.m6)  # the order-6 class is nonzero


def test_both_normalization_paths_agree(Q, gh_models, model8):
    b2 = gh_models[2]
    _, fixed = kill_orders(model8.minimal, (3, 4, 5))
    c_gh = class_coordinate(mu_cochain(b2, 6), b2)
    c_killed = class_coordinate(mu_cochain(fixed, 6), fixed)
    assert c_gh == c_killed


def test_invariants_gauge_stable(Q, model8):
    base = extract_invariants(model8.minimal)
    for seed in range(3):
        g = random_gauge(Q, model8.minimal.cat, random.Random(100 + seed))
        inv = extract_invariants(gauge_apply(g, model8.minimal, 8))
        assert (inv.m6, inv.m8) == (base.m6, base.m8), seed


def test_rescaling_weights(Q, model8):
    # a negative and a fractional t too: the entry points rescale by 1/t
    base = extract_invariants(model8.minimal)
    for num, den in ((5, 1), (-2, 3)):
        t = Q.scalar(num, den)
        moved = rescale(model8.minimal, t)
        inv = extract_invariants(moved)
        assert inv.m6 == base.m6 * Q.scalar(num**4, den**4)
        assert inv.m8 == base.m8 * Q.scalar(num**6, den**6)
        assert _exact(rescale(moved, Q.one() / t).tables) == _exact(model8.minimal.tables)


def test_self_bracket_of_mu6_is_exact(Q, gh_models, model8):
    # the order-6 cochain self-bracket is a coboundary (its class dies),
    # which is exactly what the order-10 extension step needs
    b2 = gh_models[2]
    for alg in (b2,):
        mu6 = mu_cochain(alg, 6)
        br = gerstenhaber(mu6, mu6, alg)
        assert not br.is_zero()
        assert coboundary(br, alg).is_zero()
        assert is_coboundary(br, alg) is not None


def test_euler_bracket_scales_mu6(Q, gh_models):
    from ainfbench.hochschild import euler_cochain

    b2 = gh_models[2]
    mu6 = mu_cochain(b2, 6)
    e = euler_cochain(b2)
    assert gerstenhaber(e, mu6, b2) == mu6.scale(Q.scalar(-4))


def test_mc_trivial(Q):
    struct = mc_extend(Q, Q.zero(), Q.zero(), order=12)
    assert struct.present_arities() == [2]


def test_mc_realizes_invariants(Q):
    m6, m8 = Q.scalar(2), Q.scalar(-3)
    struct = mc_extend(Q, m6, m8, order=10)
    assert struct.ainf_check(9) == []
    inv = extract_invariants(struct)
    assert (inv.m6, inv.m8) == (m6, m8)


def test_mc_matches_model_at_low_order(Q, model8):
    # prescribing the model's invariants yields a structure agreeing with
    # the normalized model through order 7 after the same normalization
    inv = extract_invariants(model8.minimal)
    built = mc_extend(Q, inv.m6, inv.m8, order=8)
    _, fixed = kill_orders(model8.minimal, (3, 4, 5, 7))
    _, built_fixed = kill_orders(built, (3, 4, 5, 7))
    diff = mu_cochain(built_fixed, 6) - mu_cochain(fixed, 6)
    assert is_coboundary(diff, model8.minimal) is not None
    for d in (3, 4, 5, 7):
        assert d not in built_fixed.tables and d not in fixed.tables


def test_char_exclusions():
    from ainfbench.perturbation import preset_splitting_C, transfer

    with pytest.raises(ValueError):
        mc_extend(FieldSpec(2), FieldSpec(2).one(), FieldSpec(2).zero())
    model_f3 = transfer(preset_splitting_C(FieldSpec(3)), 8).minimal
    with pytest.raises(ValueError):
        extract_invariants(model_f3)


def test_normalized_gauge_required(Q, model8):
    cat = model8.minimal.cat
    with pytest.raises(ValueError):
        GaugeTransformation(Q, cat, {
            2: {("e0", "e1"): Element.single("e1", Q.one())}
        })


def test_gauge_dump_load_roundtrip(Q, model8):
    from ainfbench.gauge import dump_gauge, load_gauge

    g = preset_gauge_G(Q, model8.minimal.cat)
    text = dump_gauge(g)
    assert "G2" in text
    back = load_gauge(text)
    assert back.components == g.components
    assert dump_gauge(back) == text


def test_gauge_load_errors_carry_line_numbers(Q, model8):
    from ainfbench.gauge import dump_gauge, load_gauge

    lines = dump_gauge(preset_gauge_G(Q, model8.minimal.cat)).splitlines()
    i = lines.index("G2") + 1
    lines[i] = lines[i].replace(" -> ", " ")  # a row without its arrow
    with pytest.raises(ValueError, match=rf"^line {i + 1}: "):
        load_gauge("\n".join(lines) + "\n")
    # a zero denominator is bad input on its line, not a ZeroDivisionError
    lines = dump_gauge(preset_gauge_G(Q, model8.minimal.cat)).splitlines()
    i = lines.index("e1 e1 -> -1/2*e1")
    lines[i] = "e1 e1 -> -1/0*e1"
    with pytest.raises(ValueError, match=rf"^line {i + 1}: zero denominator"):
        load_gauge("\n".join(lines) + "\n")


def test_gauge_entries_keep_source_and_target(Q, model8):
    # e1 is a loop at a and u runs a -> b: the degree fits, the ends do not
    from ainfbench.gauge import dump_gauge, load_gauge

    cat = model8.minimal.cat
    with pytest.raises(ValueError, match=r"g\^2\('e1', 'e1'\) -> u: .* a->a"):
        GaugeTransformation(Q, cat, {2: {("e1", "e1"): Element.single("u", Q.one())}})
    lines = dump_gauge(preset_gauge_G(Q, cat)).splitlines()
    i = lines.index("e1 e1 -> -1/2*e1")
    lines[i] = "e1 e1 -> 1*u"
    with pytest.raises(ValueError, match=rf"^line {i + 1}: g\^2"):
        load_gauge("\n".join(lines) + "\n")
    # g^1 is the identity: a G1 section would be read as extra blocks
    lines = dump_gauge(preset_gauge_G(Q, cat)).splitlines()
    i = lines.index("G2")
    lines[i:i] = ["G1", "u -> 1*u"]
    with pytest.raises(ValueError, match=rf"^line {i + 2}: bad g\^1 key"):
        load_gauge("\n".join(lines) + "\n")


def test_classification_over_f5():
    # everything with 6 invertible works verbatim over F5: realized classes
    # round-trip, and the transferred model's invariants are the mod-5
    # reductions of the rational ones
    from ainfbench.perturbation import preset_splitting_C, transfer

    F5 = FieldSpec(5)
    m6, m8 = F5.scalar(2), F5.scalar(3)
    built = mc_extend(F5, m6, m8, order=10)
    assert built.ainf_check(9) == []
    inv = extract_invariants(built)
    assert (inv.m6, inv.m8) == (m6, m8)
    model = transfer(preset_splitting_C(F5), 8).minimal
    got = extract_invariants(model)
    assert got.m6 == F5.scalar(-1, 48)
    assert got.m8 == F5.scalar(1, 864)


def test_trivial_structure_has_zero_invariants(Q):
    trivial = mc_extend(Q, Q.zero(), Q.zero(), order=8)
    inv = extract_invariants(trivial)
    assert (inv.m6, inv.m8) == (Q.zero(), Q.zero())
    assert inv.describe()[0].startswith("reference cocycle at (6,-4)")


def test_mc_pure_order8_class(Q):
    # prescribing (0, b8): mu^6 is a coboundary (zero), structure valid
    built = mc_extend(Q, Q.zero(), Q.one(), order=12)
    assert 6 not in built.tables
    assert built.ainf_check(10) == []
    inv = extract_invariants(built)
    assert (inv.m6, inv.m8) == (Q.zero(), Q.one())


def test_classify_brackets_only_the_references(Q, model8, monkeypatch):
    # the classify sequence: mc_extend, then the invariants of its result
    # and of a point of the model's gauge orbit.  Every solve succeeds, and
    # its answer proves its cochain a cocycle, so the only brackets are the
    # checks of the two references as their cache entries are filled.
    # Bracketing each cochain before its solve made [3, 2, 6].
    monkeypatch.setattr(hochschild, "_CELLS", {})
    monkeypatch.setattr(hochschild, "_SQUARES_ZERO", {})
    calls = []
    bracket = hochschild.coboundary

    def counted(phi, alg):
        calls.append((id(alg), phi.r, phi.s, frozenset(phi.table.items())))
        return bracket(phi, alg)

    monkeypatch.setattr(hochschild, "coboundary", counted)  # gauge brackets only through it
    B = model8.minimal
    moved = gauge_apply(random_gauge(Q, B.cat, random.Random(3)), B, 8)
    counts = []
    built = mc_extend(Q, Q.scalar(1, 2), Q.scalar(-2, 3), 10)
    counts.append(len(calls))
    assert extract_invariants(built).pair() == (Q.scalar(1, 2), Q.scalar(-2, 3))
    counts.append(len(calls) - sum(counts))
    assert extract_invariants(moved).pair() == (Q.scalar(-1, 48), Q.scalar(1, 864))
    counts.append(len(calls) - sum(counts))
    assert counts == [2, 0, 0]
    assert [(r, s) for _, r, s, _ in calls] == [(6, -4), (8, -6)]


# -- error paths of the cocycle checks ----------------------------------------
# Each pins the exception a non-cocycle (or a non-associative mu^2) gets,
# whichever of the solve and the bracket runs first.

def _rescaled(alg, d, key, factor):
    """alg with the mu^d entry at key multiplied by factor."""
    tables = {k: dict(t) for k, t in alg.tables.items()}
    tables[d][key] = tables[d][key].scale(factor)
    return AInfStructure(alg.spec, alg.cat, alg.truncation, tables)


def test_kill_orders_refuses_a_noncocycle(Q, model8):
    # mu^4 before mu^3 is killed: delta(mu^4) = -mu^3 o mu^3 is not zero
    with pytest.raises(ValueError) as err:
        kill_orders(model8.minimal, (4,))
    assert str(err.value) == "mu^4 is not a cocycle; lower orders unkilled?"
    bad = _rescaled(model8.minimal, 3, ("u", "e1", "v"), Q.scalar(2))
    with pytest.raises(ValueError) as err:
        kill_orders(bad, (3,))
    assert str(err.value) == "mu^3 is not a cocycle; lower orders unkilled?"


@pytest.mark.parametrize("d", [6, 8])
def test_extract_invariants_refuses_a_noncocycle(Q, mc8, d):
    key = next(iter(mc8.tables[d]))
    with pytest.raises(AssertionError) as err:
        extract_invariants(_rescaled(mc8, d, key, Q.scalar(2)))
    assert str(err.value) == f"mu^{d} failed to be a cocycle after gauge fixing"


def test_m6_certificate_refuses_a_noncocycle(Q, gh_models):
    b2 = gh_models[2]
    mu6 = mu_cochain(_rescaled(b2, 6, next(iter(b2.tables[6])), Q.scalar(2)), 6)
    with pytest.raises(ValueError) as err:
        m6_certificate(mu6, b2)
    assert str(err.value) == "mu6 is not a cocycle"


def test_non_associative_mu2_keeps_the_bracket_first(Q, model8):
    # e0.(e0.e1) = 4 e1 against (e0.e0).e1 = 2 e1: delta^2 != 0, so a
    # solvable system says nothing about delta(phi), and the bracket decides
    A = _rescaled(preset_A(Q, 8), 2, ("e0", "e1"), Q.scalar(2))
    assert A.ainf_check(3)
    rng = random.Random(2)
    table = {}
    for key, g in cochain_basis(A, 3, -2):
        if rng.random() < 0.5:
            table[key] = Element.single(g, Q.scalar(rng.randint(1, 3)))
    phi = coboundary(Cochain(3, -2, table), A)  # solvable, yet no cocycle
    assert not coboundary(phi, A).is_zero()
    with pytest.raises(ValueError, match="^input is not a cocycle$"):
        is_coboundary(phi, A)
    assert is_coboundary(Cochain(4, -2), A).is_zero()
    # mu^3 of the model still brackets to zero against this mu^2
    B = model8.minimal
    bad = AInfStructure(Q, B.cat, 8, {**B.tables, 2: A.tables[2]})
    steps, fixed = kill_orders(bad, (3,))
    assert [s.supports() for s in steps] == [[2]]
    assert fixed.present_arities() == [2, 4, 5, 6, 7, 8]
    assert [len(fixed.tables[d]) for d in fixed.present_arities()] == [12, 10, 15, 23, 32, 42]


def _obstruction_patch(monkeypatch, make):
    """mc_extend with its order-10 obstruction replaced by make(base)."""
    compose = gauge_mod.gerst_compose

    def patched(phi, psi, alg):
        if phi.r + psi.r - 1 == 11:
            return make(alg)
        return compose(phi, psi, alg)

    monkeypatch.setattr(gauge_mod, "gerst_compose", patched)


def test_mc_extend_internal_errors(Q, monkeypatch):
    def noncocycle(alg):
        key, g = cochain_basis(alg, 11, -8)[0]
        return Cochain(11, -8, {key: Element.single(g, Q.one())})

    _obstruction_patch(monkeypatch, noncocycle)
    with pytest.raises(AssertionError, match="^order-10 obstruction is not a cocycle$"):
        mc_extend(Q, Q.scalar(1, 2), Q.scalar(-2, 3), 10)
    # a solver that finds no primitive for a cocycle contradicts HH = 0 there
    monkeypatch.undo()
    monkeypatch.setattr(hochschild.Cell, "primitive", lambda self, phi: None)
    with pytest.raises(AssertionError, match="^order-10 obstruction not a coboundary: "
                                             "HH cell should vanish$"):
        mc_extend(Q, Q.scalar(1, 2), Q.scalar(-2, 3), 10)


def test_reference_is_bracket_checked_when_cached(Q, monkeypatch):
    # a reference that is no cocycle never enters the cache: here the
    # kernel scan is handed the first basis cochain, outside the image
    from ainfbench.linalg import Echelon

    def broken(self):
        yield [1] + [0] * (self.ncols - 1)

    monkeypatch.setattr(hochschild, "_CELLS", {})
    monkeypatch.setattr(Echelon, "kernel", broken)
    with pytest.raises(ValueError, match="^prescribed order-6 cochain is not a cocycle$"):
        mc_extend(Q, Q.scalar(1, 2), Q.scalar(-2, 3), 8)
    assert hochschild._CELLS == {}


def _classify_run(gh_models, model8):
    """What the solves feed: the m6 certificate of gh_pipeline(Q),
    mc_extend(Q, 1/2, -2/3, 12), and the invariants of three seeded orbit
    points of the transferred model."""
    Q = model8.minimal.spec
    b2 = gh_models[2]
    cert = m6_certificate(mu_cochain(b2, 6), b2)
    built = mc_extend(Q, Q.scalar(1, 2), Q.scalar(-2, 3), 12)
    B = model8.minimal
    orbit = [extract_invariants(gauge_apply(random_gauge(Q, B.cat, random.Random(seed)),
                                            B, 8)) for seed in (21, 22, 23)]
    return (cert.summary(), cert.primitive, oracles.ordered(built.tables),
            [(inv.pair(), inv.reference6, inv.reference8) for inv in orbit])


def test_solve_first_equals_bracket_first(gh_models, model8, monkeypatch):
    # every cochain a solve accepted brackets to zero, and the answers are
    # those of the bracket-first order, keys and key order included
    accepted = []
    solve_first = hochschild.solve_first

    def recorded(phi, alg, not_cocycle, solve):
        result = solve_first(phi, alg, not_cocycle, solve)
        if result is not None:
            accepted.append((phi, alg))
        return result

    with monkeypatch.context() as mp:
        for mod in (hochschild, gauge_mod):
            mp.setattr(mod, "solve_first", recorded)
        fast = _classify_run(gh_models, model8)
    assert len(accepted) == 2 + 3 * 6  # mc orders 10, 12; per point 3, 4, 5, m6, 7, m8
    assert all(coboundary(phi, alg).is_zero() for phi, alg in accepted)
    with monkeypatch.context() as mp:
        oracles.bracket_first(mp)
        assert _classify_run(gh_models, model8) == fast


def test_solutions_are_rechecked(Q, model8, monkeypatch):
    # a solve that returns a wrong answer is caught by the one pass over
    # the columns, which shares nothing with the elimination
    from ainfbench.linalg import Echelon

    _, fixed = kill_orders(model8.minimal, (3, 4, 5))
    phi6 = mu_cochain(fixed, 6)
    reference_cocycle(fixed, 6, -4)
    solve = Echelon.solve

    def off_by_one(self, b):
        x = solve(self, b)
        return None if x is None else [x[0] + 1] + x[1:]

    monkeypatch.setattr(Echelon, "solve", off_by_one)
    with pytest.raises(AssertionError, match="fails its own system"):
        class_coordinate(phi6, fixed)
    with pytest.raises(AssertionError, match="fails its own system"):
        kill_orders(model8.minimal, (3,))


def test_classify_builds_each_delta_matrix_once(Q, model8, monkeypatch):
    # the classify sequence shares one mu^2: the cell that found a
    # reference also reads the coordinates, so no (r, s) is built twice.
    # Building the coordinate's matrix afresh made (5, -4) and (7, -6) again
    # for each of the two extractions: 13 builds.
    monkeypatch.setattr(hochschild, "_CELLS", {})
    builds = []
    build = hochschild.delta_matrix

    def counted(alg, r, s):
        builds.append((r, s))
        return build(alg, r, s)

    monkeypatch.setattr(hochschild, "delta_matrix", counted)
    B = model8.minimal
    moved = gauge_apply(random_gauge(Q, B.cat, random.Random(3)), B, 8)
    built = mc_extend(Q, Q.scalar(1, 2), Q.scalar(-2, 3), 10)
    assert extract_invariants(built).pair() == (Q.scalar(1, 2), Q.scalar(-2, 3))
    assert extract_invariants(moved).pair() == (Q.scalar(-1, 48), Q.scalar(1, 864))
    assert sorted(builds) == [(2, -1), (3, -2), (4, -3), (5, -4), (6, -5), (6, -4),
                              (7, -6), (8, -6), (10, -8)]


@pytest.mark.parametrize("char", [0, 5], ids=["Q", "F5"])
def test_class_coordinate_equals_appended_column_solve(char):
    # the ratio of residuals against the oracle's solve with the
    # reference's column appended, on the mc-built, transferred and
    # orbit structures; F5 exercises the field division
    F = FieldSpec(char)
    model = transfer(preset_splitting_C(F), 8).minimal
    moved = gauge_apply(random_gauge(F, model.cat, random.Random(5)), model, 8)
    built = mc_extend(F, F.scalar(1, 2), F.scalar(-2, 3), 8)
    coordinates = []
    for alg in (built, model, moved):
        _, cur = kill_orders(alg, (3, 4, 5))
        for d in (6, 8):
            if d == 8:
                _, cur = kill_orders(cur, (7,))
            phi = mu_cochain(cur, d)
            want = oracles.class_coordinate(phi, reference_cocycle(cur, d, 2 - d), cur)
            assert class_coordinate(phi, cur) == want
            coordinates.append(want)
    assert coordinates == [F.scalar(1, 2), F.scalar(-2, 3)] + [F.scalar(-1, 48),
                                                                F.scalar(1, 864)] * 2


def test_delta_squares_to_zero_once_per_mu2(Q, model8, monkeypatch):
    monkeypatch.setattr(hochschild, "_SQUARES_ZERO", {})
    checks = []
    check = AInfStructure.ainf_check

    def counted(self, up_to):
        checks.append(up_to)
        return check(self, up_to)

    monkeypatch.setattr(AInfStructure, "ainf_check", counted)
    extract_invariants(model8.minimal)
    assert hochschild.delta_squares_to_zero(preset_A(Q))
    assert checks == [3]
    A = _rescaled(preset_A(Q, 8), 2, ("e0", "e1"), Q.scalar(2))
    assert not hochschild.delta_squares_to_zero(A)
    assert checks == [3, 3] and len(hochschild._SQUARES_ZERO) == 2


# -- gauge files: round trip and mutated rows ---------------------------------

_FIELDS = [FieldSpec(0), FieldSpec(5), FieldSpec(7)]


@st.composite
def _gauges(draw):
    """A sparse gauge on the 6-dimensional category: a few admissible
    (key, output) slots per drawn arity, with small nonzero values."""
    spec = draw(st.sampled_from(_FIELDS))
    alg = preset_A(spec, 4)
    components = {}
    for k in sorted(draw(st.sets(st.integers(2, 4), min_size=1, max_size=3))):
        slots = cochain_basis(alg, k, 1 - k)
        chosen = draw(st.lists(st.sampled_from(slots), min_size=1, max_size=6, unique=True))
        table = {}
        for key, g in chosen:
            num = draw(st.integers(-9, 9).filter(bool))
            den = draw(st.sampled_from([1, 2, 3] if spec.characteristic else [1, 2, 3, 4, 12]))
            c = spec.scalar(num, den)
            if c:
                table[key] = table.get(key, Element()) + Element.single(g, c)
        components[k] = table
    return GaugeTransformation(spec, alg.cat, components)


@given(_gauges())
def test_gauge_roundtrip_on_drawn_gauges(g):
    from ainfbench.gauge import dump_gauge, load_gauge

    back = load_gauge(dump_gauge(g))
    assert back.spec == g.spec
    assert back.components == g.components
    assert dump_gauge(back) == dump_gauge(g)


_BAD_GAUGE_TOKENS = st.sampled_from(["x", "1/0", "+", "1//2", "nan", "->", "e0", "G2", "*u"])


@st.composite
def _mutated_gauge_rows(draw):
    """A dumped gauge with one row of a G section made faulty, and that
    row's number."""
    from ainfbench.gauge import dump_gauge

    lines = dump_gauge(draw(_gauges())).splitlines()
    rows = [i for i, line in enumerate(lines) if "->" in line
            and any(lines[j].startswith("G") for j in range(i))]
    k = draw(st.sampled_from(rows))
    parts = lines[k].split()
    how = draw(st.sampled_from(["replace", "drop", "append", "repeat"]))
    if how == "repeat":
        lines.insert(k + 1, lines[k])
        return "\n".join(lines) + "\n", k + 2
    i = draw(st.integers(0, len(parts) - 1))
    if how == "replace":
        parts[i] = draw(_BAD_GAUGE_TOKENS)
    elif how == "drop":
        del parts[i]
    else:
        parts.append(draw(_BAD_GAUGE_TOKENS))
    lines[k] = " ".join(parts)
    return "\n".join(lines) + "\n", k + 1


@settings(max_examples=60)
@given(_mutated_gauge_rows())
def test_mutated_gauge_row_names_its_line(mutated):
    from ainfbench.gauge import load_gauge

    text, lineno = mutated
    with pytest.raises(ValueError, match=rf"^line {lineno}: "):
        load_gauge(text)


@given(st.lists(st.lists(st.sampled_from(
    ["FIELD", "Q", "F5", "TRUNCATION", "4", "OBJECTS", "a", "GENERATORS", "e0",
     "IDENTITIES", "1*e0", "G2", "G0", "MU2", "e1", "u", "->", "1/2*e1", "+", "1/0",
     "x", "#"]), max_size=6), max_size=14))
def test_gauge_load_raises_only_value_error(rows):
    from ainfbench.gauge import load_gauge

    try:
        load_gauge("\n".join(" ".join(row) for row in rows))
    except ValueError:
        pass


def test_gauge_load_rejects_repeats_and_header_text(Q, model8):
    # each of these was read silently: a repeated row, a repeated section
    # (which dropped the first one's rows) and text after a section header
    # (which started a new section there)
    from ainfbench.gauge import dump_gauge, load_gauge

    lines = dump_gauge(preset_gauge_G(Q, model8.minimal.cat)).splitlines()
    i = lines.index("e1 e1 -> -1/2*e1")
    for edit, message in [
            (lambda ls: ls.insert(i + 1, ls[i]),
             rf"^line {i + 2}: tuple \('e1', 'e1'\) given twice in G2$"),
            (lambda ls: ls.extend(["G2", "u e1 -> -1/2*u"]),
             rf"^line {len(lines) + 1}: section G2 given twice$"),
            (lambda ls: ls.__setitem__(i - 1, "G2 e1 e1 -> -1/2*e1"),
             rf"^line {i}: unexpected text after G2$")]:
        edited = list(lines)
        edit(edited)
        with pytest.raises(ValueError, match=message):
            load_gauge("\n".join(edited) + "\n")


def test_gauge_load_names_the_line_of_a_stray_section(Q, model8):
    # an IOTA section, valid in an .alg file, was refused with no line
    from ainfbench.gauge import dump_gauge, load_gauge

    lines = dump_gauge(preset_gauge_G(Q, model8.minimal.cat)).splitlines()
    text = "\n".join(lines + ["IOTA2", "u e1 -> 1*u"]) + "\n"
    with pytest.raises(ValueError, match=rf"^line {len(lines) + 1}: "
                                         r"unexpected section IOTA2 in gauge file$"):
        load_gauge(text)


# -- the weight grading: entry points on integers ------------------------------

def _exact(tables):
    """Tables as nested lists: the order of the arities, of the keys and of
    each Element's terms, and each raw value with its type."""
    return [(d, [(key, [(g, c, type(c)) for g, c in el.terms.items()])
                 for key, el in table.items()]) for d, table in tables.items()]


def _weight_grading_run(gh_models, model8):
    """Gauges G then H on transfer(preset_splitting_C(Q), 9),
    mc_extend(Q, 1/2, -2/3, 12), and the invariants of three seeded orbit
    points of the transferred model, each entry point called through the
    gauge module."""
    Q = model8.minimal.spec
    B = gh_models[0]
    b1 = gauge_mod.gauge_apply(preset_gauge_G(Q, B.cat), B, 9)
    b2 = gauge_mod.gauge_apply(preset_gauge_H(Q, B.cat), b1, 9)
    built = gauge_mod.mc_extend(Q, Q.scalar(1, 2), Q.scalar(-2, 3), 12)
    orbit = []
    for seed in (31, 32, 33):
        g = random_gauge(Q, model8.minimal.cat, random.Random(seed))
        inv = gauge_mod.extract_invariants(gauge_mod.gauge_apply(g, model8.minimal, 8))
        orbit.append(([(c.value, type(c.value)) for c in inv.pair()],
                      _exact({6: inv.reference6.table, 8: inv.reference8.table})))
    return _exact(b1.tables), _exact(b2.tables), _exact(built.tables), orbit


def test_entry_points_equal_the_weight_one_computation(gh_models, model8, monkeypatch):
    # each input has denominators, so each entry point computes on integers
    Q, B = model8.minimal.spec, gh_models[0]
    assert gauge_mod.weight_scale(B, *preset_gauge_G(Q, B.cat).components.values()) > 1
    moved = gauge_apply(random_gauge(Q, B.cat, random.Random(31)), model8.minimal, 8)
    assert gauge_mod.weight_scale(moved) > 1
    rescaled = _weight_grading_run(gh_models, model8)
    with monkeypatch.context() as mp:
        oracles.weight_one(mp)
        assert gauge_mod.gauge_apply is gauge_mod._gauge_apply
        assert _weight_grading_run(gh_models, model8) == rescaled


@pytest.mark.parametrize("p", [5, 7])
def test_prime_fields_take_weight_one(p, monkeypatch):
    F = FieldSpec(p)
    B = transfer(preset_splitting_C(F), 8).minimal
    g = random_gauge(F, B.cat, random.Random(p))
    assert gauge_mod.weight_scale(B, *g.components.values()) == 1
    assert rescale(B, F.one()) is B
    weights = []
    monkeypatch.setattr(gauge_mod, "rescale", lambda mu, t: weights.append(t) or mu)
    moved = gauge_apply(g, B, 8)
    gauge_mod.mc_extend(F, F.scalar(1, 2), F.scalar(-2, 3), 8)
    extract_invariants(moved)
    assert weights and set(weights) == {F.one()}


def test_an_obstruction_reports_its_coordinate_at_weight_one(Q, model8, monkeypatch):
    # an ObstructionError raised on rescale(mu, t) inside extract_invariants
    # carries the coordinate of mu's class, not t^(d-2) times it
    moved = gauge_apply(random_gauge(Q, model8.minimal.cat, random.Random(31)),
                        model8.minimal, 8)
    assert gauge_mod.weight_scale(moved) > 1
    with pytest.raises(ObstructionError) as want:
        kill_orders(moved, (3, 4, 5, 6))
    assert want.value.coordinate == Q.scalar(-1, 48)
    kill = gauge_mod.kill_orders
    monkeypatch.setattr(gauge_mod, "kill_orders", lambda mu, orders: kill(
        mu, (3, 4, 5, 6) if tuple(orders) == (3, 4, 5) else orders))
    with pytest.raises(ObstructionError) as got:
        extract_invariants(moved)
    assert (got.value.order, got.value.coordinate) == (6, want.value.coordinate)
    assert str(got.value) == str(want.value)
