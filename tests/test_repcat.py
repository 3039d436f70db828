"""Representations, tensor structure, and equivariant hom spaces."""

import hashlib
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepmonad import exactlin, repcat, suite
from sepmonad.exactlin import Field, GF, Matrix, mat_mul, parse_field
from sepmonad.presets import load_preset, preset_names
from sepmonad.repcat import (
    Morphism,
    Rep,
    RepError,
    compose,
    hom_space_basis,
    identity_mor,
    random_hom,
    random_rep,
    restrict,
    symmetry,
    tensor_mor,
    tensor_obj,
    unit_rep,
    zero_mor,
)
from sepmonad.groups import Subgroup, subgroup_generated
from sepmonad.suite import SuiteConfig, _corrupt_rep, run_suite

Q = Field(0)


def regular_rep(group, field):
    mats = {}
    n = group.order
    for g in group.elements:
        nums = [0] * (n * n)
        for x in group.elements:
            nums[group.mul(g, x) * n + x] = 1
        mats[g] = Matrix.from_flat(field, n, n, nums)
    reg = Rep(group, field, mats, tag="reg")
    reg.require_valid()
    return reg


def test_c2_regular_character():
    c2, _ = load_preset("c2")
    reg = regular_rep(c2, Q)
    # the character: the trace of each action matrix
    assert [sum(reg.mat(i).entry(k, k) for k in range(2)) for i in c2.elements] == [2, 0]


def test_tensor_character_multiplies():
    c2, _ = load_preset("c2")
    reg = regular_rep(c2, Q)
    sq = tensor_obj(reg, reg)
    assert [sum(sq.mat(i).entry(k, k) for k in range(4)) for i in c2.elements] == [4, 0]


def test_c2_hom_dimensions():
    c2, _ = load_preset("c2")
    reg = regular_rep(c2, Q)
    one = unit_rep(c2, Q)
    sq = tensor_obj(reg, reg)
    assert len(hom_space_basis(one, reg)) == 1
    assert len(hom_space_basis(reg, one)) == 1
    assert len(hom_space_basis(reg, reg)) == 2
    assert len(hom_space_basis(sq, sq)) == 8


def test_hom_basis_elements_are_equivariant():
    s3, _ = load_preset("s3")
    reg = regular_rep(s3, Q)
    for b in hom_space_basis(reg, reg):
        for g in s3.gens:
            assert mat_mul(b.matrix, reg.mat(g)) == mat_mul(reg.mat(g), b.matrix)


@pytest.mark.parametrize("spec", ["q", "fp:2", "fp:3"])
@pytest.mark.parametrize("name", preset_names())
def test_hom_basis_commutes_with_every_element(name, spec):
    """The basis is not revalidated on construction: check it on all of G and H."""
    group, gens = load_preset(name)
    field = parse_field(spec)
    for carrier in (group, subgroup_generated(group, gens)):
        x = random_rep(carrier, field, seed=1, budget=2)
        y = random_rep(carrier, field, seed=2, budget=3)
        for a, b in ((x, y), (y, x), (y, y)):
            basis = hom_space_basis(a, b)
            assert basis
            for f in basis:
                for g in carrier.elements:
                    assert mat_mul(f.matrix, a.mat(g)) == mat_mul(b.mat(g), f.matrix)


def test_invalid_rep_rejected():
    c2, _ = load_preset("c2")
    bad = {0: Matrix.identity(Q, 1), 1: Matrix.from_rows(Q, [[2]])}
    with pytest.raises(RepError):
        Rep(c2, Q, bad).require_valid()  # 2 * 2 != 1, not a homomorphism to GL_1


def test_wrong_non_identity_element_breaks_homomorphism_law():
    s3, _ = load_preset("s3")
    good = random_rep(s3, Q, seed=5, budget=3)
    # element 5 is neither the identity nor a generator
    assert 5 not in s3.gens
    mats = {g: good.mat(g) for g in s3.elements}
    mats[5] = mats[4]
    with pytest.raises(RepError, match="homomorphism law fails"):
        Rep(s3, Q, mats).require_valid()


def test_short_generator_set_is_rejected():
    s3, _ = load_preset("s3")
    # the transposition alone generates a subgroup of order 2, not S3
    short = Subgroup(s3, s3.elements, gens=(1,))
    one = Matrix.identity(Q, 1)
    with pytest.raises(RepError, match="does not generate"):
        Rep(short, Q, {g: one for g in s3.elements}).require_valid()


def test_identity_must_act_as_identity():
    c2, _ = load_preset("c2")
    bad = {0: Matrix.from_rows(Q, [[-1]]), 1: Matrix.from_rows(Q, [[1]])}
    with pytest.raises(RepError):
        Rep(c2, Q, bad).require_valid()


def test_strict_associativity_of_tensor():
    """(x (x) y) (x) z and x (x) (y (x) z) carry literally equal matrices."""
    s3, _ = load_preset("s3")
    x = random_rep(s3, Q, seed=1, budget=2)
    y = random_rep(s3, Q, seed=2, budget=3)
    z = random_rep(s3, Q, seed=3, budget=2)
    left = tensor_obj(tensor_obj(x, y), z)
    right = tensor_obj(x, tensor_obj(y, z))
    for g in s3.elements:
        assert left.mat(g) == right.mat(g)


def test_unit_is_strict():
    s3, _ = load_preset("s3")
    x = random_rep(s3, Q, seed=4, budget=3)
    one = unit_rep(s3, Q)
    for g in s3.elements:
        assert tensor_obj(one, x).mat(g) == x.mat(g)
        assert tensor_obj(x, one).mat(g) == x.mat(g)


def test_symmetry_laws():
    s3, _ = load_preset("s3")
    x = random_rep(s3, Q, seed=5, budget=2)
    y = random_rep(s3, Q, seed=6, budget=3)
    s_xy = symmetry(x, y)
    s_yx = symmetry(y, x)
    assert mat_mul(s_yx.matrix, s_xy.matrix).is_identity()
    f = random_hom(x, x, seed=7)
    g = random_hom(y, y, seed=8)
    lhs = mat_mul(s_xy.matrix, tensor_mor(f, g).matrix)
    rhs = mat_mul(tensor_mor(g, f).matrix, s_xy.matrix)
    assert lhs == rhs  # naturality of the swap


def test_symmetry_is_equivariant():
    s3, _ = load_preset("s3")
    x = random_rep(s3, Q, seed=9, budget=2)
    y = random_rep(s3, Q, seed=10, budget=2)
    s = symmetry(x, y)
    s.require_valid()


def test_random_rep_deterministic_and_valid():
    s3, _ = load_preset("s3")
    a = random_rep(s3, Q, seed=42, budget=4)
    b = random_rep(s3, Q, seed=42, budget=4)
    assert a.dim == b.dim and [a.mat(i) for i in s3.elements] == [b.mat(i) for i in s3.elements]
    assert a.dim == 4
    a.require_valid()
    c = random_rep(s3, Q, seed=43, budget=4)
    assert (a.dim, [a.mat(i) for i in s3.elements]) != (c.dim, [c.mat(i) for i in s3.elements])


# sha256 of every action matrix (shape, den, entries) of the seeded reps
# at seeds 0, 1 and budgets 1, 4, 12: seeded families must not change
# from one version to the next.
_SEEDED_REP_DIGESTS = {
    ("s3", "q", "G"): "85f3a6f97421147784ed50bfb4c8e683f35c56020933b0966bc1e8ec0a7a9049",
    ("s3", "q", "H"): "6b973eb5c22fd09d5fd59740a8ab583651267b34852d3fc0c6c6a90d35804e7e",
    ("s3", "fp:3", "G"): "8c6c19fa646b7e70333177f7134be0d956b71012968e995e019fddb0967eec01",
    ("s3", "fp:3", "H"): "3c0080e3e2d7d27c7f84c2a41a662961bb3ade0a98fc486a02a360415f12f0b7",
    ("a4", "q", "G"): "f8ce45bd8fa5f17c0942515856ddc7145b7088d68289eeb81e04d25226f4ad51",
    ("a4", "q", "H"): "ef4feb6331da756deae255cc1567e7e48b7f169d83af31a2ee535a4f8d26e05a",
    ("a4", "fp:3", "G"): "7fa5a220ef09bc57f345ce6810b058ace1dff3789bacb60fb3366f4e849b49f3",
    ("a4", "fp:3", "H"): "bfa3cf6b6e70ca18c049acda2e8d2d7ab8fafd29dd3adfb46f3b0f0ea766f161",
}


@pytest.mark.parametrize("name, spec, side", sorted(_SEEDED_REP_DIGESTS))
def test_seeded_random_reps_are_frozen(name, spec, side):
    group, gens = load_preset(name)
    carrier = group if side == "G" else subgroup_generated(group, gens)
    digest = hashlib.sha256()
    for seed in (0, 1):
        for budget in (1, 4, 12):
            rep = random_rep(carrier, parse_field(spec), seed, budget)
            for g in carrier.elements:
                m = rep.mat(g)
                digest.update(repr((m.rows, m.cols, m.den, m.nums)).encode())
    assert digest.hexdigest() == _SEEDED_REP_DIGESTS[name, spec, side]


# sha256 of random_hom(x, y, 7 i + j) over all ordered pairs of the seeded
# reps at seeds 0, 1 and budgets 1, 3, 6: the seeded maps must not change
# with the way their basis combination is summed.
_SEEDED_HOM_DIGESTS = {
    ("s3", "q", "G"): "c36c305bc84a0b34f7b7bcdffa76aed88046719a36901e0028379744e462c914",
    ("s3", "q", "H"): "9b46bf109cd5874de6d585daf2f047a977f02685351fbc8d85453b8d7d9b14de",
    ("s3", "fp:3", "G"): "e6e2107d0454d4cd2d4bd3413cb2ac50939fe264a1694748018ae49aa86e6be9",
    ("s3", "fp:3", "H"): "37db9d01d33cb8d76c4bb31a76b357c37f35d859bef29da3b10a39aa2d5ae45a",
    ("a4", "q", "G"): "ca30482ed4c5b1aa5b97e209b49a8ca60b9dc2780f2049675757119cf0d03569",
    ("a4", "q", "H"): "5656d27a74e7ed35929299a0de890bec761c8c0b019fd23621f8deb0177aa5ae",
    ("a4", "fp:3", "G"): "5ce06bc88cccbc40ffe286487e53e9a8e1c476c7a3e8fb0bd7c06b5401909831",
    ("a4", "fp:3", "H"): "7d4a1544837fafed48420b17272975c2185cd4758f64aa3e112139cc1c785cd9",
    ("q8", "q", "G"): "8c6b97c8898a25097f41160271f1ab10dfe44fed97d75b087236802b392b2215",
    ("q8", "q", "H"): "66a7444755e9812da4a3f3cec1a6c037691c1db787d07e3076c60e63a63e74c9",
    ("q8", "fp:3", "G"): "ab94ea0596a0fe50706912eade7e9767fe7b166161f5f9907e0b8b14f801a3e6",
    ("q8", "fp:3", "H"): "83937742e7fbc3408e257287bf84d646f415bf833bf24a77328c2c077cae1490",
}


@pytest.mark.parametrize("name, spec, side", sorted(_SEEDED_HOM_DIGESTS))
def test_seeded_random_homs_are_frozen(name, spec, side):
    group, gens = load_preset(name)
    carrier = group if side == "G" else subgroup_generated(group, gens)
    field = parse_field(spec)
    reps = [random_rep(carrier, field, seed, budget) for seed in (0, 1) for budget in (1, 3, 6)]
    digest = hashlib.sha256()
    nonzero = 0
    for i, x in enumerate(reps):
        for j, y in enumerate(reps):
            m = random_hom(x, y, 7 * i + j).matrix
            nonzero += any(m.nzrows)
            digest.update(repr((m.rows, m.cols, m.den, m.nums)).encode())
    assert nonzero >= len(reps)
    assert digest.hexdigest() == _SEEDED_HOM_DIGESTS[name, spec, side]


def test_random_rep_modular():
    c4, _ = load_preset("c4")
    x = random_rep(c4, GF(2), seed=0, budget=3)
    x.require_valid()
    assert x.dim == 3


def test_restriction_keeps_matrices():
    s3, default = load_preset("s3")
    h = subgroup_generated(s3, default)
    x = random_rep(s3, Q, seed=11, budget=3)
    rx = restrict(x, h)
    for i in h.elements:
        assert rx.mat(i) == x.mat(i)
    with pytest.raises(RepError):
        restrict(rx, h)  # already an H-representation


def test_compose_and_zero():
    s3, _ = load_preset("s3")
    x = random_rep(s3, Q, seed=12, budget=2)
    f = random_hom(x, x, seed=13)
    assert compose(identity_mor(x), f).matrix == f.matrix
    assert compose(f, identity_mor(x)).matrix == f.matrix
    assert not any(compose(f, zero_mor(x, x)).matrix.nzrows)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 4))
def test_random_hom_is_equivariant(seed, budget):
    s3, _ = load_preset("s3")
    x = random_rep(s3, Q, seed=seed, budget=budget)
    f = random_hom(x, x, seed=seed)
    f.require_valid()


# -- the two routes to a hom space ----------------------------------------


def _formless(x):
    """A copy of x without its permutation form: the same matrices, the stacked route."""
    return Rep(x.carrier, x.field, x.mat, dim=x.dim)


def _routes(x, y):
    """The basis matrices of Hom(x, y) from the permutation form and from the stacked nullspace."""
    orbit = [f.matrix for f in hom_space_basis(x, y)]
    stacked = [f.matrix for f in hom_space_basis(_formless(x), _formless(y))]
    return orbit, stacked


def _s4_h_pair(field):
    """H-reps 5 and 6 of the s4 case at seed 0, of budgets 8 and 12: its largest hom space."""
    group, gens = load_preset("s4")
    h = subgroup_generated(group, gens)
    return random_rep(h, field, "0|h5", 8), random_rep(h, field, "0|h6", 12)


FIELD_SPECS = ["q", "fp:2", "fp:3", "fp:5"]


@pytest.mark.parametrize("spec", FIELD_SPECS)
@pytest.mark.parametrize("side", ["G", "H"])
@pytest.mark.parametrize("name", ["c2", "s3", "d4", "q8", "a4", "s4"])
def test_hom_space_routes_agree(name, side, spec):
    group, gens = load_preset(name)
    carrier = group if side == "G" else subgroup_generated(group, gens)
    field = parse_field(spec)
    reps = [random_rep(carrier, field, seed, budget)
            for seed, budget in enumerate((1, 2, 3, 4, 6))]
    assert all(x.perm_form is not None for x in reps)
    for x, y in product(reps, reps):
        orbit, stacked = _routes(x, y)
        assert orbit
        assert orbit == stacked


@pytest.mark.parametrize("spec", FIELD_SPECS)
def test_hom_space_routes_agree_on_the_largest_s4_pair(spec):
    x, y = _s4_h_pair(parse_field(spec))
    for a, b in ((x, y), (y, x)):
        orbit, stacked = _routes(a, b)
        assert orbit == stacked


def test_orbit_route_runs_one_small_elimination(monkeypatch):
    shapes = []
    real = exactlin._rref

    def spy(rows_list, rows, cols, field):
        shapes.append((rows, cols))
        return real(rows_list, rows, cols, field)

    monkeypatch.setattr(exactlin, "_rref", spy)
    x, y = _s4_h_pair(Q)
    assert len(hom_space_basis(x, y)) == 22
    # one elimination of the 22 orbit maps, flattened to 12 * 8 = 96 entries
    assert shapes == [(22, 96)]
    shapes.clear()
    hom_space_basis(_formless(x), _formless(y))
    # the stacked system: 96 equations per generator of H
    assert shapes == [(192, 96)]


def test_corrupted_rep_takes_the_stacked_route(monkeypatch):
    s3, _ = load_preset("s3")
    x = random_rep(s3, Q, seed=1, budget=3)
    bad = _corrupt_rep(x)
    assert bad.perm_form is None
    routes = []
    for name in ("nullspace_basis", "span_basis"):
        real = getattr(repcat, name)
        monkeypatch.setattr(repcat, name,
                            lambda a, name=name, real=real: routes.append(name) or real(a))
    hom_space_basis(bad, x)
    hom_space_basis(x, bad)
    assert routes == ["nullspace_basis", "nullspace_basis"]
    hom_space_basis(x, x)
    assert routes[2:] == ["span_basis"]


def test_a_wrong_permutation_form_is_caught_by_rep_hom_sanity(monkeypatch):
    """The form only picks the route; the seeded maps are certified on the matrices."""

    def lying(carrier, field, seed, budget):
        rep = random_rep(carrier, field, seed, budget)
        umat, uinv, perm = rep.perm_form
        rep.perm_form = (umat, uinv, lambda g: perm(0))  # as if every g fixed every index
        return rep

    monkeypatch.setattr(suite, "random_rep", lying)
    [check] = run_suite(SuiteConfig(group="s3", family_size=3,
                                    checks=("rep_hom_sanity",))).checks
    assert check.status == "fail"
    assert check.witness == {"kind": "rep_hom_sanity",
                             "context": "morphism 0: equivariance fails at generator 1"}
