"""Modules over the coset function ring and the Eilenberg-Moore equivalence.

An AModule is a G-representation x with an action A (x) x -> x satisfying
associativity and unitality.  The comparison functor E sends an H-rep n to
Coind(n), a module over A = Coind(1_H) through the lax multiplication
lambda at (1_H, n): coordinatewise truncation, keeping the block of the
acting basis idempotent.  A free module A (x) y is the free algebra
(A (x) y, mu_y) of the ring monad A (x) -.  The quasi-inverse of E splits
the idempotent given by acting with the identity-coset idempotent, viewed
H-equivariantly.

A is separable: its section sigma has mu . sigma = 1 and is a map of
A-bimodules.  So every module M is an A-linear retract of the free module
A (x) M, through s = (1_A (x) rho) . (sigma(1) (x) 1) and the action rho
(Balmer, Dell'Ambrogio and Sanders 2014).  ``separable_summand`` splits
M off A (x) M this way, in closed form; no search looks for a summand.

All round trips ship explicit invertible witnesses built from the
adjunction's structure maps; nothing is certified by a search when a
closed form exists.  This module is the one place each round trip is
built and checked: ``em_unit_iso``, ``em_counit_iso`` and
``extension_of_scalars_iso`` raise EMError, an ``exactlin.IdentityError``,
whose failures are the failed (name, composite, identity) triples of
``exactlin.inverse_failures``; the suite reports the first as its
witness.  The second composite of a square pair follows from the first
and is not formed.  Modules are certified by ``AModule.require_valid``:
``em_comparison`` and ``separable_summand`` certify the modules they
build, while a free module's axioms are its certified ring's laws and are
not checked again.  A module map is a bare matrix, certified equivariant
and A-linear by ``require_module_map``.  The inverse of a certified
isomorphism is not certified again either.
"""

from .exactlin import (
    IdentityError,
    Matrix,
    _need,
    _need_identity,
    column_factor,
    inverse_failures,
    mat_kron,
    mat_mul,
)
from .repcat import (
    Morphism,
    Rep,
    compose,
    restrict,
    tensor_obj,
    unit_rep,
)
from .adjunction import (
    coind_mor,
    coind_obj,
    counit_eps,
    lax_lambda,
    projection_pi,
    projection_pi_inverse,
    section_xi,
    unit_eta,
)
from .monadring import monad_from_ring

class ModuleAxiomError(IdentityError):
    """A module refused on its failed axioms."""


class EMError(IdentityError):
    """A module map, idempotent or round trip of the comparison refused."""


class AModule:
    """A carrier representation with a ring action.

    The constructor checks shapes only; ``require_valid`` certifies the
    module axioms.
    """

    def __init__(self, ring, carrier, action, tag=""):
        da = ring.dim
        dx = carrier.dim
        if action.matrix.rows != dx or action.matrix.cols != da * dx:
            raise ValueError("action must map ring(x)carrier to carrier")
        self.ring = ring
        self.carrier = carrier
        self.action = action
        self.tag = tag

    def require_valid(self):
        """Raise ModuleAxiomError unless associative, unital and equivariant."""
        ModuleAxiomError.refuse("module axioms fail", module_axiom_failures(self))

    @property
    def dim(self):
        return self.carrier.dim

    def __repr__(self):
        return f"<AModule dim {self.dim}{': ' + self.tag if self.tag else ''}>"


def module_axiom_failures(mod):
    """Violated module identities as (name, lhs, rhs) triples."""
    a = mod.ring.carrier
    x = mod.carrier
    rho = mod.action.matrix
    da, dx = a.dim, x.dim
    field = x.field
    eye_a = Matrix.identity(field, da)
    eye_x = Matrix.identity(field, dx)
    out = []
    _need(
        out, "action_associativity",
        mat_mul(rho, mat_kron(mod.ring.mul.matrix, eye_x)),
        mat_mul(rho, mat_kron(eye_a, rho)),
    )
    _need_identity(out, "action_unitality", mat_mul(rho, mat_kron(mod.ring.unit.matrix, eye_x)))
    for g in x.carrier.gens:
        _need(
            out, f"action_equivariance@{g}",
            mat_mul(rho, mat_kron(a.mat(g), x.mat(g))),
            mat_mul(x.mat(g), rho),
        )
    return out


def require_module_map(source, target, matrix):
    """Certify matrix as a map of modules source -> target.

    Raises EMError unless both modules live over one ring, RepError unless
    the matrix is an equivariant map of the carriers, and EMError unless it
    is A-linear.
    """
    if source.ring is not target.ring:
        raise EMError("modules live over different rings")
    Morphism(source.carrier, target.carrier, matrix).require_valid()
    eye_a = Matrix.identity(matrix.field, source.ring.dim)
    out = []
    _need(out, "A-linearity", mat_mul(matrix, source.action.matrix),
          mat_mul(target.action.matrix, mat_kron(eye_a, matrix)))
    EMError.refuse("map does not commute with the actions", out)


def free_module(ring, y, tag=""):
    """The free module A (x) y: the free algebra of the ring monad A (x) -.

    Its carrier and action are the monad's A (x) y and mu at y, which
    are associative, unital and equivariant exactly when the ring is, so
    certifying the ring certifies the module.
    """
    ring.require_valid("refusing free module over an invalid ring")
    monad = monad_from_ring(ring)
    return AModule(ring, monad.on_obj(y), monad.mu_at(y), tag=tag or f"free({y.tag})")


def em_comparison(n, cs, ring, tag=""):
    """The comparison module E(n) = Coind(n), acting through lambda at (1_H, n).

    A = Coind(1_H), and the lax multiplication Coind(1_H) (x) Coind(n) ->
    Coind(1_H (x) n) = Coind(n) multiplies pointwise: acting with the basis
    idempotent of a coset keeps that coset's coordinate block and kills
    the others.
    """
    carrier = coind_obj(n, cs)
    lam = lax_lambda(unit_rep(cs.subgroup, n.field), n, cs)
    action = Morphism(tensor_obj(ring.carrier, carrier), carrier, lam.matrix)
    mod = AModule(ring, carrier, action, tag=tag or f"E({n.tag})")
    mod.require_valid()
    return mod


def em_mor(f, cs, source, target):
    """Functoriality of the comparison: E(f) applies f per representative.

    ``source`` and ``target`` are the comparison modules E(f.source) and
    E(f.target); returns the matrix of Coind(f), certified by
    ``require_module_map``.
    """
    ef = coind_mor(f, cs).matrix
    require_module_map(source, target, ef)
    return ef


def split_idempotent(e, x):
    """Split an idempotent of x through its image representation.

    Returns (image, p, m) with m . p = e and p . m = id, read off one
    column factorization e = basis . coeffs: m = basis, the independent
    columns of e, and p = coeffs.  The caller certifies e (e . e = e and
    equivariance), and nothing is re-checked here.  Given that, m . p = e
    by construction, and p . m = id because e . m = m and m's columns are
    independent; so p and m are equivariant, and the image, which acts by
    g -> (p . x(g)) . m and is built lazily, satisfies the group law.  p
    is multiplied first: it has only rank-many rows, so the product reads
    just the rows of x(g) that p names, where x(g) . m would build every
    row of a large carrier such as a free module's Kronecker action.  The
    ``module_idempotent`` check certifies both splitting identities.
    """
    if e.source is not x or e.target is not x:
        raise EMError("idempotent must be an endomorphism of the given representation")
    basis, pmat = column_factor(e.matrix)
    img = Rep(x.carrier, x.field, lambda g: mat_mul(mat_mul(pmat, x.mat(g)), basis),
              tag=f"img({e.tag})" if e.tag else "img", dim=basis.cols)
    return img, Morphism(x, img, pmat, tag="retract"), Morphism(img, x, basis, tag="include")


def em_inverse_split(mod, cs):
    """The idempotent of a module and its splitting data.

    e acts by the identity-coset idempotent, read H-equivariantly through
    the projection transport; returns (image H-rep, p, m, e) with
    m . p = e, p . m = id.  This is where e is certified, for
    equivariance and e . e = e, before ``split_idempotent``, which does
    not re-check it; the module's axioms were certified where it was built.
    """
    h = cs.subgroup
    x = mod.carrier
    field = x.field
    rx = restrict(x, h)
    pinv = projection_pi_inverse(unit_rep(h, field), x, cs)
    xi = section_xi(rx, cs)
    e_mat = mat_mul(mod.action.matrix, mat_mul(pinv.matrix, xi.matrix))
    e = Morphism(rx, rx, e_mat, tag="e")
    e.require_valid()
    out = []
    _need(out, "e . e = e", mat_mul(e_mat, e_mat), e_mat)
    EMError.refuse("module idempotent law fails", out)
    img, p, m = split_idempotent(e, rx)
    return img, p, m, e


def em_unit_iso(n, cs, ring):
    """Mutually inverse H-morphisms between n and the round trip through E.

    Returns (mod, p, m, w1, w2): the comparison module mod = E(n), the
    splitting p, m of its idempotent, and w1 = p . xi, w2 = eps . m.
    w2 . w1 = I is checked exactly, and w1 . w2 = I too unless w2 is
    square, when it follows; the splitting data is returned for
    naturality squares over maps of n.
    """
    mod = em_comparison(n, cs, ring)
    _, p, m, _ = em_inverse_split(mod, cs)
    w1 = compose(p, section_xi(n, cs))
    w2 = compose(counit_eps(n, cs), m)
    EMError.refuse("unit round trip fails",
                   inverse_failures(w2.matrix, w1.matrix, "w2 . w1 = id_n", "w1 . w2 = id_image"))
    return mod, p, m, w1, w2


def em_counit_iso(mod, split, cs):
    """Mutually inverse A-linear maps between E(img) and mod, as matrices.

    ``split`` is ``em_inverse_split(mod, cs)``: the image H-rep img of
    the module's idempotent with its splitting p, m.  Returns (phi, psi)
    with phi = action . pi-inverse . Coind(m) and psi = Coind(p) . eta.
    phi . psi = I is verified, and psi . phi = I too unless phi is square,
    when it follows.  ``require_module_map`` certifies phi equivariant and
    A-linear; so is psi = phi^-1, which is not checked again.
    """
    img, p, m, _ = split
    x = mod.carrier
    en = em_comparison(img, cs, mod.ring)
    pinv = projection_pi_inverse(unit_rep(cs.subgroup, x.field), x, cs)
    cm = coind_mor(m, cs)
    phi_mat = mat_mul(mod.action.matrix, mat_mul(pinv.matrix, cm.matrix))
    eta = unit_eta(x, cs)
    cp = coind_mor(p, cs)
    psi_mat = mat_mul(cp.matrix, eta.matrix)
    EMError.refuse("counit round trip fails",
                   inverse_failures(phi_mat, psi_mat, "phi . psi = id_module",
                                    "psi . phi = id_comparison"))
    require_module_map(en, mod, phi_mat)
    return phi_mat, psi_mat


def extension_of_scalars_iso(y, cs, ring):
    """The projection as an A-linear isomorphism A (x) y -> E(Res y).

    Returns the matrices (phi, psi) = (pi, pi-inverse), checked to be
    mutually inverse like ``em_counit_iso``'s; only phi is certified, by
    ``require_module_map``.
    """
    h = cs.subgroup
    one_h = unit_rep(h, y.field)
    free = free_module(ring, y)
    en = em_comparison(restrict(y, h), cs, ring)
    pi = projection_pi(one_h, y, cs)
    pinv = projection_pi_inverse(one_h, y, cs)
    EMError.refuse("extension of scalars round trip fails",
                   inverse_failures(pi.matrix, pinv.matrix, "pi . pi_inv = id", "pi_inv . pi = id"))
    require_module_map(free, en, pi.matrix)
    return pi.matrix, pinv.matrix


def separable_summand(mod):
    """mod split off the free module A (x) mod by the separability section.

    s = (1_A (x) rho) . (sigma(1) (x) 1) is A-linear and rho . s = id
    (mu . sigma = 1), so e = s . rho is an A-linear idempotent of
    A (x) mod whose image is a module isomorphic to mod (Balmer,
    Dell'Ambrogio and Sanders 2014).  e is certified equivariant and
    A-linear, and e . e = e, before ``split_idempotent`` splits it; the
    image carries the action p . action . (1_A (x) m).
    """
    ring = mod.ring
    field = mod.carrier.field
    rho = mod.action.matrix
    eye_a = Matrix.identity(field, ring.dim)
    free = free_module(ring, mod.carrier)
    sigma_one = mat_mul(ring.section.matrix, ring.unit.matrix)
    s = mat_mul(mat_kron(eye_a, rho), mat_kron(sigma_one, Matrix.identity(field, mod.dim)))
    e_mat = mat_mul(s, rho)
    require_module_map(free, free, e_mat)
    out = []
    _need(out, "e . e = e", mat_mul(e_mat, e_mat), e_mat)
    EMError.refuse("separability idempotent fails", out)
    img, p, m = split_idempotent(Morphism(free.carrier, free.carrier, e_mat, tag="summand"),
                                 free.carrier)
    action = Morphism(tensor_obj(ring.carrier, img), img,
                      mat_mul(p.matrix, mat_mul(free.action.matrix, mat_kron(eye_a, m.matrix))))
    summand = AModule(ring, img, action, tag="summand")
    summand.require_valid()
    return summand
