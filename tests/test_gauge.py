import random

import pytest
from hypothesis import given, strategies as st

import oracles
from ainfbench import gauge as gauge_mod, hochschild, quiver
from ainfbench.cli import REFERENCE_MU4
from ainfbench.gauge import (GaugeTransformation, ObstructionError,
                             extract_invariants, gauge_apply,
                             kill_orders, m6_certificate, mc_extend,
                             preset_gauge_G, preset_gauge_H, random_gauge,
                             rescale)
from ainfbench.perturbation import preset_splitting_C, transfer
from ainfbench.hochschild import (Cochain, coboundary, cochain_basis,
                                  gerstenhaber, is_coboundary,
                                  mu_cochain, reference_cocycle,
                                  class_coordinate)
from ainfbench.linalg import rref
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
    mu6 = mu_cochain(b2, 6)
    cert = m6_certificate(mu6, b2)
    assert cert.nonzero
    # the ranks the solve implies are those Gauss-Jordan finds
    _, rows, matrix = oracles.delta_matrix(b2, 5, -4)
    augmented = matrix + [oracles.cochain_to_vector(mu6, rows)]
    assert (cert.rank_system, cert.rank_augmented) == (len(rref(list(matrix), 0)),
                                                       len(rref(augmented, 0)))
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
    composed = gauge_apply(oracles.gauge_compose(g2, g1, 8), B, 8)
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
        assert _exact(rescale(moved, Q.scalar(den, num)).tables) == _exact(model8.minimal.tables)


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
    b2 = gh_models[2]
    mu6 = mu_cochain(b2, 6)
    e = oracles.euler_cochain(b2)
    assert gerstenhaber(e, mu6, b2) == mu6.scale(Q.scalar(-4))


def test_mc_trivial(Q):
    struct = mc_extend(Q, 0, 0, order=12)
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
        mc_extend(FieldSpec(2), 1, 0)
    model_f3 = transfer(preset_splitting_C(FieldSpec(3)), 8).minimal
    with pytest.raises(ValueError):
        extract_invariants(model_f3)


def test_normalized_gauge_required(Q, model8):
    cat = model8.minimal.cat
    with pytest.raises(ValueError):
        GaugeTransformation(Q, cat, {
            2: {("e0", "e1"): Element.single("e1", 1)}
        })


def test_gauge_entries_keep_source_and_target(Q, model8):
    # e1 is a loop at a and u runs a -> b: the degree fits, the ends do not
    cat = model8.minimal.cat
    with pytest.raises(ValueError, match=r"g\^2\('e1', 'e1'\) -> u: .* a->a"):
        GaugeTransformation(Q, cat, {2: {("e1", "e1"): Element.single("u", 1)}})
    # g^1 is the identity: a g^1 table would be read as extra blocks
    with pytest.raises(ValueError, match=r"^bad g\^1 key \('u',\)$"):
        GaugeTransformation(Q, cat, {1: {("u",): Element.single("u", 1)}})


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
    trivial = mc_extend(Q, 0, 0, order=8)
    inv = extract_invariants(trivial)
    assert (inv.m6, inv.m8) == (0, 0)
    assert inv.describe()[0].startswith("reference cocycle at (6,-4)")


def test_mc_pure_order8_class(Q):
    # prescribing (0, b8): mu^6 is a coboundary (zero), structure valid
    built = mc_extend(Q, 0, 1, order=12)
    assert 6 not in built.tables
    assert built.ainf_check(10) == []
    inv = extract_invariants(built)
    assert (inv.m6, inv.m8) == (0, 1)


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
    """mc_extend over Q with its order-10 obstruction replaced by
    make(base): the scatter into arity 11 is set to -make(base)."""
    scatter, base = gauge_mod.splices, preset_A(FieldSpec(0))

    def arity(table):
        return len(next(iter(table), ()))

    def patched(acc, outer, inner, odd, shift=1):
        if outer and inner and arity(outer) + arity(inner) - 1 == 11:
            acc.update({t: (-el).terms for t, el in make(base).table.items()})
            return acc
        return scatter(acc, outer, inner, odd, shift)

    monkeypatch.setattr(gauge_mod, "splices", patched)


def test_mc_extend_internal_errors(Q, monkeypatch):
    def noncocycle(alg):
        key, g = cochain_basis(alg, 11, -8)[0]
        return Cochain(11, -8, {key: Element.single(g, 1)})

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

    def counted(alg, r, s, *rest):
        builds.append((r, s))
        return build(alg, r, s, *rest)

    monkeypatch.setattr(hochschild, "delta_matrix", counted)
    B = model8.minimal
    moved = gauge_apply(random_gauge(Q, B.cat, random.Random(3)), B, 8)
    built = mc_extend(Q, Q.scalar(1, 2), Q.scalar(-2, 3), 10)
    assert extract_invariants(built).pair() == (Q.scalar(1, 2), Q.scalar(-2, 3))
    assert extract_invariants(moved).pair() == (Q.scalar(-1, 48), Q.scalar(1, 864))
    assert sorted(builds) == [(2, -1), (3, -2), (4, -3), (5, -4), (6, -5), (6, -4),
                              (7, -6), (8, -6), (10, -8)]


def test_classify_enumerates_no_row_only_basis(Q, model8, monkeypatch):
    # the cells of the classify sequence number their rows by first hit:
    # the bases cached are the column bases of its nine builds (and the
    # gauge's slots), none of the row-only bases C(7, -4), C(9, -6) and
    # C(11, -8) of the reference cells' kernels
    monkeypatch.setattr(hochschild, "_CELLS", {})
    monkeypatch.setattr(hochschild, "_BASES", {})
    B = model8.minimal
    moved = gauge_apply(random_gauge(Q, B.cat, random.Random(3)), B, 8)
    built = mc_extend(Q, Q.scalar(1, 2), Q.scalar(-2, 3), 10)
    assert extract_invariants(built).pair() == (Q.scalar(1, 2), Q.scalar(-2, 3))
    assert extract_invariants(moved).pair() == (Q.scalar(-1, 48), Q.scalar(1, 864))
    cached = {c for bases in hochschild._BASES.values() for c in bases}
    assert not cached & {(7, -4), (9, -6), (11, -8)}
    assert sorted(cached) == [(2, -1), (3, -2), (4, -3), (5, -4), (6, -5), (6, -4),
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
        orbit.append(([(c, type(c)) for c in inv.pair()],
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
    assert rescale(B, 1) is B
    weights = []
    monkeypatch.setattr(gauge_mod, "rescale", lambda mu, t: weights.append(t) or mu)
    moved = gauge_apply(g, B, 8)
    gauge_mod.mc_extend(F, F.scalar(1, 2), F.scalar(-2, 3), 8)
    extract_invariants(moved)
    assert weights and set(weights) == {1}


def test_an_obstruction_reports_its_coordinate_at_weight_one(Q, model8, monkeypatch):
    # an ObstructionError raised on rescale(mu, t) inside extract_invariants
    # carries the coordinate of mu's class, not t^(d-2) times it, in one
    # pass and in the sequential oracle alike, once order 6 is to be killed
    moved = gauge_apply(random_gauge(Q, model8.minimal.cat, random.Random(31)),
                        model8.minimal, 8)
    assert gauge_mod.weight_scale(moved) > 1
    with pytest.raises(ObstructionError) as want:
        kill_orders(moved, (3, 4, 5, 6))
    assert want.value.coordinate == Q.scalar(-1, 48)
    monkeypatch.setattr(gauge_mod, "_NORMAL_FORM", (3, 4, 5, 6, 7))
    for extract in (gauge_mod._extract_invariants, oracles.sequential_invariants):
        monkeypatch.setattr(gauge_mod, "_extract_invariants", extract)
        with pytest.raises(ObstructionError) as got:
            extract_invariants(moved)
        assert (got.value.order, got.value.coordinate) == (6, want.value.coordinate)
        assert str(got.value) == str(want.value)


def _sequentially(monkeypatch, extract, mu):
    """extract(mu) with extract_invariants reading the invariants through
    the sequential oracle."""
    with monkeypatch.context() as mp:
        mp.setattr(gauge_mod, "_extract_invariants", oracles.sequential_invariants)
        return extract(mu)


@pytest.mark.parametrize("char", [0, 5, 7], ids=["Q", "F5", "F7"])
def test_one_pass_equals_sequential_extraction(char, monkeypatch):
    # mc-built structures, the transfer through 8 and through 12 (cut to
    # 8), and orbit points of the transfer, one with g^5 and g^6 too
    F = FieldSpec(char)
    model = transfer(preset_splitting_C(F), 8).minimal
    structures = [mc_extend(F, F.scalar(1, 2), F.scalar(-2, 3), 10),
                  mc_extend(F, F.scalar(-3, 4), F.scalar(0), 8), model,
                  transfer(preset_splitting_C(F), 12).minimal]
    for seed, orders in ((1, (2, 3, 4)), (2, (2, 3, 4)), (3, (2, 5, 6))):
        g = random_gauge(F, model.cat, random.Random(seed), orders)
        structures.append(gauge_apply(g, model, 8))
    got = [extract_invariants(mu) for mu in structures]
    assert got == [_sequentially(monkeypatch, extract_invariants, mu) for mu in structures]
    assert [inv.pair() for inv in got[:2]] == [(F.scalar(1, 2), F.scalar(-2, 3)),
                                                (F.scalar(-3, 4), 0)]
    assert {inv.pair() for inv in got[2:]} == {(F.scalar(-1, 48), F.scalar(1, 864))}


@pytest.mark.parametrize("char", [0, 5, 7], ids=["Q", "F5", "F7"])
def test_one_pass_gauges_mu6_down_to_its_class(char, monkeypatch):
    # after reading c6, g^5 is the primitive of psi^6 - c6 * reference, so
    # mu_new^6 = c6 * reference: the only arity-6 table pulled to arities
    # 7 and 8 has the reference's keys, not psi^6's, and the pair is the
    # sequential oracle's.  Without that g^5 the pair is wrong.
    F = FieldSpec(char)
    model = transfer(preset_splitting_C(F), 8).minimal
    ref6 = reference_cocycle(model, 6, -4)
    scatter, pulled = gauge_mod._scatter, []

    def recorded(accs, table, *rest):
        if table and len(next(iter(table))) == 6:
            pulled.append((next(iter(accs)), table))
        scatter(accs, table, *rest)

    for seed in (21, 22, 23):
        moved = gauge_apply(random_gauge(F, model.cat, random.Random(seed)), model, 8)
        pulled.clear()
        with monkeypatch.context() as mp:
            mp.setattr(gauge_mod, "_scatter", recorded)
            got = extract_invariants(moved)
        assert got == _sequentially(monkeypatch, extract_invariants, moved)
        assert got.pair() == (F.scalar(-1, 48), F.scalar(1, 864))
        # the pass runs on the structure rescaled by t, where m6 reads t^4 m6
        c6 = F.scalar(-1, 48) * gauge_mod.weight_scale(moved) ** 4
        assert pulled == [(7, ref6.scale(c6).table), (8, ref6.scale(c6).table)]


@pytest.mark.parametrize("d, error, message", [
    (4, ValueError, "mu^4 is not a cocycle; lower orders unkilled?"),
    (6, AssertionError, "mu^6 failed to be a cocycle after gauge fixing"),
    (8, AssertionError, "mu^8 failed to be a cocycle after gauge fixing"),
])
def test_one_pass_refuses_a_noncocycle_as_the_oracle_does(Q, model8, monkeypatch, d,
                                                          error, message):
    # the transfer is not normal, so psi^d comes from the gauge chosen below d
    B = model8.minimal
    bad = _rescaled(B, d, next(iter(B.tables[d])), Q.scalar(2))

    def failure(mu):
        with pytest.raises(error) as err:
            extract_invariants(mu)
        return str(err.value)

    assert failure(bad) == _sequentially(monkeypatch, failure, bad) == message


def test_gauge_apply_checks_no_table_it_built(Q, model8, monkeypatch):
    # both inputs were checked when built: the rescaled gauge and the
    # result used to be checked again, entry by entry
    B = model8.minimal
    g = random_gauge(Q, B.cat, random.Random(3))
    assert gauge_mod.weight_scale(B, *g.components.values()) > 1
    checked = []
    for mod in (quiver, gauge_mod):
        def counted(cat, label, table, *args, check=mod.check_table):
            checked.append(label)
            return check(cat, label, table, *args)

        monkeypatch.setattr(mod, "check_table", counted)
    moved = gauge_apply(g, B, 8)
    assert checked == []
    moved.check_degrees()
    assert checked == [f"mu^{d}" for d in moved.tables]
    with pytest.raises(ValueError, match="field mismatch: F5 vs Q"):
        gauge_apply(random_gauge(FieldSpec(5), B.cat, random.Random(3)), B, 8)
