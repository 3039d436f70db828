"""Ring objects in the representation category and the two monads they induce.

The central object is the function ring on the coset space: the permutation
representation on H\\G with basis idempotents {e_c}, multiplication
mu(e_c (x) e_c') = e_c when c = c' and 0 otherwise, unit 1 |-> sum of all
e_c, and the diagonal separability section sigma(e_c) = e_c (x) e_c.  The
axioms hold over any exact field, including characteristic dividing the
group order.  It is also Coind(1_H) with the lax structure of coinduction
as its ring structure; in representative coordinates the two rings have
the same matrices, so ``standard_ring`` certifies that identification as
equalities (``ring_iso_failures``) and only one ring object is ever built.

Two monads act on G-representations: tensoring with the ring, and the
coinduction-of-restriction composite whose multiplication collapses the
inner coinduction through the counit.  The projection pi identifies them;
``monad_morphism_failures`` reads its components straight off pi.  The
diagram checks live alongside the constructors.
"""

from functools import cached_property

from .exactlin import (
    IdentityError,
    Matrix,
    _need,
    _need_identity,
    inverse_failures,
    mat_kron,
    mat_mul,
)
from .repcat import (
    Morphism,
    Rep,
    _perm_action_on_cosets,
    _permute_rows,
    identity_mor,
    restrict,
    restrict_mor,
    symmetry,
    tensor_mor,
    tensor_obj,
    unit_rep,
)
from .adjunction import (
    coind_mor,
    coind_obj,
    counit_eps,
    lax_iota,
    lax_lambda,
    projection_pi,
    projection_pi_inverse,
    section_xi,
    unit_eta,
)


class RingAxiomError(IdentityError):
    """A ring object or ring isomorphism refused on its failed identities."""


class RingObject:
    """A representation with multiplication, unit, and separability section.

    The constructor checks only shapes.  ``failures``, its
    ``ring_axiom_failures``, is computed once, on first read;
    ``require_valid`` raises on it.
    """

    def __init__(self, carrier, mul, unit, section):
        da = carrier.dim
        if mul.matrix.rows != da or mul.matrix.cols != da * da:
            raise ValueError("multiplication must map carrier(x)carrier to carrier")
        if unit.matrix.rows != da or unit.matrix.cols != 1:
            raise ValueError("unit must map the tensor unit to the carrier")
        if section.matrix.rows != da * da or section.matrix.cols != da:
            raise ValueError("section must map the carrier to carrier(x)carrier")
        self.carrier = carrier
        self.mul = mul
        self.unit = unit
        self.section = section

    @cached_property
    def failures(self):
        return ring_axiom_failures(self)

    def require_valid(self, refusal):
        """Raise RingAxiomError, message ``refusal: <names>``, when an axiom fails."""
        RingAxiomError.refuse(refusal, self.failures)

    @property
    def dim(self):
        return self.carrier.dim

    @property
    def field(self):
        return self.carrier.field

    def __repr__(self):
        return f"<RingObject dim {self.dim} over {self.field}>"


def ring_axiom_failures(ring):
    """Every violated ring identity as (name, lhs, rhs) triples.

    Covers associativity, both unit laws, commutativity, equivariance of
    all structure maps, and the separability equations.  Empty list means
    the ring object is valid.
    """
    a = ring.carrier
    da = a.dim
    field = a.field
    eye = Matrix.identity(field, da)
    m = ring.mul.matrix
    u = ring.unit.matrix
    s = ring.section.matrix
    out = []
    _need(out, "associativity", mat_mul(m, mat_kron(m, eye)), mat_mul(m, mat_kron(eye, m)))
    _need_identity(out, "unit_left", mat_mul(m, mat_kron(u, eye)))
    _need_identity(out, "unit_right", mat_mul(m, mat_kron(eye, u)))
    tau = symmetry(a, a).matrix
    _need(out, "commutativity", mat_mul(m, tau), m)
    for g in a.carrier.gens:
        act = a.mat(g)
        act2 = mat_kron(act, act)
        _need(out, f"mul_equivariance@{g}", mat_mul(m, act2), mat_mul(act, m))
        _need(out, f"unit_equivariance@{g}", mat_mul(act, u), u)
        _need(out, f"section_equivariance@{g}", mat_mul(s, act), mat_mul(act2, s))
    sm = mat_mul(s, m)
    _need_identity(out, "separability_retract", mat_mul(m, s))
    _need(out, "separability_left", mat_mul(mat_kron(m, eye), mat_kron(eye, s)), sm)
    _need(out, "separability_right", mat_mul(mat_kron(eye, m), mat_kron(s, eye)), sm)
    return out


def coset_permutation_rep(cs, field):
    """The permutation representation on right cosets, basis {e_c}."""
    d, perm = _perm_action_on_cosets(cs.group, cs.subgroup.elements)
    eye = Matrix.identity(field, d)
    return Rep(cs.group, field, lambda g: _permute_rows(eye, perm(g)), tag="k(cosets)", dim=d)


def standard_ring(cs, field):
    """The function ring on the coset space with its diagonal section.

    mu(e_c (x) e_c') = delta e_c, unit = sum of basis idempotents,
    sigma(e_c) = e_c (x) e_c.  Valid over every exact field.  Raises
    RingAxiomError unless the ring axioms hold and the ring is Coind(1_H)
    with its lax structure (``ring_iso_failures``).  The canonical map
    sends e_c to the indicator function of the coset c, the identity in
    representative coordinates, so the adjunction ring is never built:
    its ring axioms and separability are this ring's, on the same matrices.
    """
    a = coset_permutation_rep(cs, field)
    d = cs.index
    mul_rows = [{c * d + c: 1} for c in range(d)]
    # row (c, c') of the section is e_c when c = c', else zero
    sec_rows = [{i // d: 1} if i // d == i % d else {} for i in range(d * d)]
    aa = tensor_obj(a, a)
    mul = Morphism(aa, a, Matrix(field, d, d * d, mul_rows, _normalized=True))
    unit = Morphism(
        unit_rep(cs.group, field),
        a,
        Matrix(field, d, 1, [{0: 1} for _ in range(d)], _normalized=True),
    )
    section = Morphism(a, aa, Matrix(field, d * d, d, sec_rows, _normalized=True))
    ring = RingObject(a, mul, unit, section)
    ring.require_valid("ring axioms fail")
    RingAxiomError.refuse("canonical map is not a ring isomorphism", ring_iso_failures(ring, cs))
    return ring


def ring_iso_failures(std, cs):
    """Violations of 'the standard ring is Coind(1_H) with its lax structure'.

    Each lhs is the standard ring's matrix: its carrier action on each
    generator against Coind(1_H)'s, its multiplication against the lax
    lambda at (1_H, 1_H), and its unit against the lax iota.
    """
    one_h = unit_rep(cs.subgroup, std.field)
    coind = coind_obj(one_h, cs)
    out = []
    for g in cs.group.gens:
        _need(out, f"carrier_action@{g}", std.carrier.mat(g), coind.mat(g))
    _need(out, "multiplication_transport", std.mul.matrix, lax_lambda(one_h, one_h, cs).matrix)
    _need(out, "unit_transport", std.unit.matrix, lax_iota(cs, std.field).matrix)
    return out


class Monad:
    """An operational monad: functor data plus unit and multiplication."""

    def __init__(self, name, on_obj, on_mor, eta_at, mu_at):
        self.name = name
        self.on_obj = on_obj
        self.on_mor = on_mor
        self.eta_at = eta_at
        self.mu_at = mu_at

    def __repr__(self):
        return f"<Monad {self.name}>"


def monad_from_adjunction(cs):
    """The composite monad Coind . Res with counit-collapsed multiplication."""
    h = cs.subgroup

    def on_obj(x):
        return coind_obj(restrict(x, h), cs)

    def on_mor(f):
        return coind_mor(restrict_mor(f, h), cs)

    def eta_at(x):
        return unit_eta(x, cs)

    def mu_at(x):
        return coind_mor(counit_eps(restrict(x, h), cs), cs)

    return Monad(f"CoindRes[{cs.index}]", on_obj, on_mor, eta_at, mu_at)


def monad_from_ring(ring):
    """The monad A (x) (-) of a valid ring object.

    Refuses construction when any ring axiom fails: Eilenberg-Moore
    statements downstream would be meaningless.
    """
    ring.require_valid("refusing monad on an invalid ring")
    a = ring.carrier
    ida = identity_mor(a)

    def on_obj(x):
        return tensor_obj(a, x)

    def on_mor(f):
        return tensor_mor(ida, f)

    def eta_at(x):
        eye = Matrix.identity(x.field, x.dim)
        return Morphism(x, on_obj(x), mat_kron(ring.unit.matrix, eye))

    def mu_at(x):
        eye = Matrix.identity(x.field, x.dim)
        src = on_obj(on_obj(x))
        return Morphism(src, on_obj(x), mat_kron(ring.mul.matrix, eye))

    return Monad(f"{a.tag or 'A'}(x)-", on_obj, on_mor, eta_at, mu_at)


def monad_law_failures(monad, x):
    """Associativity and both unit triangles of a monad at one object."""
    ax = monad.on_obj(x)
    mu_x = monad.mu_at(x)
    eta_x = monad.eta_at(x)
    out = []
    _need(
        out, "mu_associativity",
        mat_mul(mu_x.matrix, monad.on_mor(mu_x).matrix),
        mat_mul(mu_x.matrix, monad.mu_at(ax).matrix),
    )
    _need_identity(out, "mu_unit_left", mat_mul(mu_x.matrix, monad.on_mor(eta_x).matrix))
    _need_identity(out, "mu_unit_right", mat_mul(mu_x.matrix, monad.eta_at(ax).matrix))
    return out


def monad_section_at(cs, x):
    """The separability section Coind(xi at Res x) of the adjunction monad."""
    h = cs.subgroup
    return coind_mor(section_xi(restrict(x, h), cs), cs)


def monad_separability_failures(cs, x):
    """The section property and both bilinearity squares of Coind Res at one object."""
    monad = monad_from_adjunction(cs)
    ax = monad.on_obj(x)
    s_x = monad_section_at(cs, x)
    mu_x = monad.mu_at(x)
    smu = mat_mul(s_x.matrix, mu_x.matrix)
    out = []
    _need_identity(out, "section_retract", mat_mul(mu_x.matrix, s_x.matrix))
    _need(out, "section_left_linear",
          mat_mul(monad.mu_at(ax).matrix, monad.on_mor(s_x).matrix), smu)
    _need(
        out, "section_right_linear",
        mat_mul(monad.on_mor(mu_x).matrix, monad_section_at(cs, ax).matrix),
        smu,
    )
    return out


def monad_morphism_failures(ring, cs, x):
    """Violated monad-morphism diagrams for pi: A (x) (-) -> Coind Res at x.

    The component theta_x is pi at (1_H, x), read with source A (x) x,
    since ``standard_ring`` certified ``ring`` as Coind(1_H) with the same
    matrices.  Its candidate inverse is the closed-form
    ``projection_pi_inverse``, block diagonal like pi itself.  An invalid
    ``ring`` is refused with a RingAxiomError (``monad_from_ring``).

    Verifies the unit triangle, the multiplication square against the
    two-fold component, and that the inverse inverts the component on both
    sides: the left composite is formed, and the right one only when it
    does not follow (``exactlin.inverse_failures``).
    """
    src = monad_from_ring(ring)
    tgt = monad_from_adjunction(cs)
    one_h = unit_rep(cs.subgroup, ring.field)
    theta_x = projection_pi(one_h, x, cs).matrix
    ax = tgt.on_obj(x)
    eye_a = Matrix.identity(x.field, ring.dim)
    out = []
    _need(out, "unit_triangle", mat_mul(theta_x, src.eta_at(x).matrix), tgt.eta_at(x).matrix)
    theta2 = mat_mul(projection_pi(one_h, ax, cs).matrix, mat_kron(eye_a, theta_x))
    _need(
        out, "multiplication_square",
        mat_mul(theta_x, src.mu_at(x).matrix),
        mat_mul(tgt.mu_at(x).matrix, theta2),
    )
    out += inverse_failures(projection_pi_inverse(one_h, x, cs).matrix, theta_x,
                            "component_left_inverse", "component_right_inverse")
    return out
