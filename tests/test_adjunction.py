"""Coinduction, its adjunction structure maps, and the projection map."""

import pytest

from sepmonad import adjunction
from sepmonad.exactlin import Field, GF, Matrix, mat_kron, mat_mul
from sepmonad.adjunction import (
    coind_mor,
    coind_obj,
    counit_eps,
    ind_counit,
    lax_iota,
    lax_lambda,
    lax_lambda_composite,
    projection_pi,
    projection_pi_inverse,
    section_xi,
    unit_eta,
)
from sepmonad.eilenberg import em_comparison, em_inverse_split
from sepmonad.groups import right_cosets, subgroup_generated
from sepmonad.monadring import coset_permutation_rep, standard_ring
from sepmonad.presets import load_preset
from sepmonad.suite import Ctx, SuiteConfig
from sepmonad.repcat import (
    compose,
    identity_mor,
    random_hom,
    random_rep,
    restrict,
    restrict_mor,
    tensor_mor,
    tensor_obj,
    unit_rep,
)

Q = Field(0)


def _s3_setup(field=Q):
    group, default = load_preset("s3")
    h = subgroup_generated(group, default)
    return group, h, right_cosets(group, h)


def test_coind_of_trivial_is_coset_permutation():
    _, h, cs = _s3_setup()
    a = coind_obj(unit_rep(h, Q), cs)
    a.require_valid()
    assert a.dim == 3
    rows = lambda m: [[int(m.entry(i, j)) for j in range(3)] for i in range(3)]
    assert rows(a.mat(1)) == [[1, 0, 0], [0, 0, 1], [0, 1, 0]]
    assert rows(a.mat(2)) == [[0, 1, 0], [0, 0, 1], [1, 0, 0]]


def test_coind_dimension_is_index_times_dim():
    _, h, cs = _s3_setup()
    n = random_rep(h, Q, seed=0, budget=2)
    cn = coind_obj(n, cs)
    cn.require_valid()
    assert cn.dim == cs.index * n.dim


def test_triangle_identities():
    group, h, cs = _s3_setup()
    for seed in range(4):
        x = random_rep(group, Q, seed=seed, budget=3)
        rx = restrict(x, h)
        eta = unit_eta(x, cs)
        eps = counit_eps(rx, cs)
        assert mat_mul(eps.matrix, eta.matrix).is_identity()

        n = random_rep(h, Q, seed=seed, budget=2)
        cn = coind_obj(n, cs)
        ceps = coind_mor(counit_eps(n, cs), cs)
        eta_cn = unit_eta(cn, cs)
        assert mat_mul(ceps.matrix, eta_cn.matrix).is_identity()


def test_induction_counit_triangles():
    """Coinduction is also left adjoint: c = hstack of inverse-rep actions."""
    group, h, cs = _s3_setup()
    for seed in range(3):
        x = random_rep(group, Q, seed=seed, budget=2)
        rx = restrict(x, h)
        c = ind_counit(x, cs)
        xi = section_xi(rx, cs)
        assert mat_mul(c.matrix, xi.matrix).is_identity()

        n = random_rep(h, Q, seed=seed + 7, budget=2)
        cn = coind_obj(n, cs)
        c_cn = ind_counit(cn, cs)
        cxi = coind_mor(section_xi(n, cs), cs)
        assert mat_mul(c_cn.matrix, cxi.matrix).is_identity()


def test_counit_section_identity():
    _, h, cs = _s3_setup()
    for seed in range(4):
        n = random_rep(h, Q, seed=seed, budget=3)
        assert mat_mul(counit_eps(n, cs).matrix, section_xi(n, cs).matrix).is_identity()


def test_structure_maps_are_equivariant():
    """Every structure map is equivariant between the endpoints it builds."""
    for name in ("s3", "d4"):  # d4: index 4, H not normal
        group, default = load_preset(name)
        h = subgroup_generated(group, default)
        cs = right_cosets(group, h)
        for fld in (Q, GF(2)):
            # seeds whose reps are not sums of trivial ones, so a swapped
            # endpoint shows as a failed equivariance
            x = random_rep(group, fld, seed=0, budget=3)
            n = random_rep(h, fld, seed=5, budget=2)
            m = random_rep(h, fld, seed=2, budget=2)
            coind_obj(n, cs).require_valid()
            maps = [
                unit_eta(x, cs),
                counit_eps(n, cs),
                section_xi(n, cs),
                lax_iota(cs, fld),
                lax_lambda(n, m, cs),
                projection_pi(n, x, cs),
                projection_pi_inverse(n, x, cs),
                ind_counit(x, cs),
                coind_mor(random_hom(n, m, seed=6), cs),
            ]
            for f in maps:
                f.require_valid()


def test_unit_naturality():
    group, h, cs = _s3_setup()
    x = random_rep(group, Q, seed=5, budget=2)
    f = random_hom(x, x, seed=6)
    eye = Matrix.identity(Q, cs.index)
    eta = unit_eta(x, cs)
    lhs = mat_mul(mat_kron(eye, restrict_mor(f, h).matrix), eta.matrix)
    rhs = mat_mul(eta.matrix, f.matrix)
    assert lhs == rhs


def test_lambda_closed_form_equals_composite():
    _, h, cs = _s3_setup()
    for fld in (Q, GF(2), GF(3)):
        x = random_rep(h, fld, seed=1, budget=2)
        y = random_rep(h, fld, seed=2, budget=2)
        assert lax_lambda(x, y, cs).matrix == lax_lambda_composite(x, y, cs).matrix


def test_lambda_composite_leaves_the_eta_stack_unbuilt(monkeypatch):
    """Coind(eps_x (x) eps_y) . eta is kron(I, eps_x (x) eps_y) times the stack
    of tensor actions: it is multiplied block by block, each block chaining by
    the mixed-product rule, so no row of the index^2 dx dy-row stack is built."""
    ctx = Ctx(SuiteConfig(group="s4", family_size=2))
    etas = []
    real = adjunction.unit_eta
    monkeypatch.setattr(adjunction, "unit_eta", lambda m, cs: etas.append(real(m, cs)) or etas[-1])
    for x in ctx.lam_reps:
        for y in ctx.lam_reps:
            assert lax_lambda(x, y, ctx.cs).matrix == lax_lambda_composite(x, y, ctx.cs).matrix
    assert len(etas) == len(ctx.lam_reps) ** 2
    for eta in etas:
        with pytest.raises(AttributeError):  # the row slot is unset until the rows are read
            Matrix.nzrows.__get__(eta.matrix)


def test_lambda_unit_laws():
    _, h, cs = _s3_setup()
    one_h = unit_rep(h, Q)
    iota = lax_iota(cs, Q)
    x = random_rep(h, Q, seed=3, budget=2)
    cx = coind_obj(x, cs)
    eye_cx = Matrix.identity(Q, cx.dim)
    left = mat_mul(lax_lambda(one_h, x, cs).matrix, mat_kron(iota.matrix, eye_cx))
    assert left.is_identity()
    right = mat_mul(lax_lambda(x, one_h, cs).matrix, mat_kron(eye_cx, iota.matrix))
    assert right.is_identity()


def test_projection_invertible_and_closed_form():
    group, h, cs = _s3_setup()
    for fld in (Q, GF(2)):
        y = random_rep(h, fld, seed=1, budget=2)
        x = random_rep(group, fld, seed=2, budget=3)
        pi = projection_pi(y, x, cs)
        pinv = projection_pi_inverse(y, x, cs)
        assert mat_mul(pi.matrix, pinv.matrix).is_identity()
        assert mat_mul(pinv.matrix, pi.matrix).is_identity()
        # the defining composite lambda . (id (x) eta), from the library's maps
        composite = compose(lax_lambda(y, restrict(x, h), cs),
                            tensor_mor(identity_mor(coind_obj(y, cs)), unit_eta(x, cs)))
        assert pi.matrix == composite.matrix
        pi.require_valid()


def test_projection_strictness():
    group, h, cs = _s3_setup()
    n = random_rep(h, Q, seed=9, budget=2)
    strict = coind_obj(tensor_obj(unit_rep(h, Q), n), cs)
    plain = coind_obj(n, cs)
    for g in group.elements:
        assert strict.mat(g) == plain.mat(g)


def test_whole_group_subgroup_is_trivial():
    """H = G: coinduction is the identity functor and all maps are 1x1 blocks."""
    group, _ = load_preset("s3")
    h = subgroup_generated(group, group.gens)
    cs = right_cosets(group, h)
    assert cs.index == 1
    x = random_rep(group, Q, seed=0, budget=3)
    rx = restrict(x, h)
    cn = coind_obj(rx, cs)
    cn.require_valid()
    assert cn.dim == x.dim
    for g in group.elements:
        assert cn.mat(g) == x.mat(g)
    assert unit_eta(x, cs).matrix.is_identity()
    assert counit_eps(rx, cs).matrix.is_identity()


def test_trivial_subgroup_coind_has_full_index():
    group, _ = load_preset("c4")
    h = subgroup_generated(group, ())
    cs = right_cosets(group, h)
    assert cs.index == 4
    n = unit_rep(h, Q)
    a = coind_obj(n, cs)
    a.require_valid()
    assert a.dim == 4
    assert a.mat(0).is_identity()


@pytest.mark.parametrize("field", [Q, GF(2)], ids=["q", "fp2"])
@pytest.mark.parametrize("name", ["s3", "s4"])
def test_derived_reps_are_lazy_and_correct(name, field):
    group, default = load_preset(name)
    h = subgroup_generated(group, default)
    cs = right_cosets(group, h)
    m = random_rep(group, field, seed=4, budget=2)
    hx = random_rep(h, field, seed=5, budget=3)
    ux = coind_obj(hx, cs)
    uy = coind_obj(random_rep(h, field, seed=6, budget=1), cs)
    derived = [ux, uy, tensor_obj(ux, uy), restrict(m, h), coset_permutation_rep(cs, field),
               random_rep(group, field, seed=7, budget=3), random_rep(h, field, seed=8, budget=3)]
    for rep in derived:
        assert len(rep.mats) == 0
    mod = em_comparison(random_rep(h, field, seed=9, budget=2), cs, standard_ring(cs, field))
    img = em_inverse_split(mod, cs)[0]
    # p and m are validated on the generators, which reads the image there
    assert set(img.mats) <= set(h.gens)
    for rep in derived + [img]:
        g = next(g for g in reversed(rep.carrier.elements) if g not in rep.mats)
        before = len(rep.mats)
        rep.mat(g)
        rep.mat(g)
        assert len(rep.mats) == before + 1
    for rep in derived + [img]:
        rep.require_valid()
    checked = coind_obj(hx, cs)
    checked.require_valid()
    assert len(checked.mats) == group.order
    eta = unit_eta(m, cs)
    for g in group.elements:
        assert mat_mul(eta.matrix, m.mat(g)) == mat_mul(eta.target.mat(g), eta.matrix)
