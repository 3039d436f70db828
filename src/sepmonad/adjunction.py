"""Restriction and coinduction between G-representations and H-representations.

Coinduction realizes the space of H-equivariant functions f: G -> N,
f(hx) = h f(x), with G acting by right translation (g.f)(x) = f(xg).
Such a function is determined by its values on the coset representatives
R of H\\G, so the underlying space is N^[G:H] with coordinates ordered by
(coset index, basis vector of N) and the identity representative first.

With that ordering the structure maps of the adjunction Res -| Coind all
have closed forms:

  unit      eta(m)   = (r |-> r.m),            a stack of action matrices
  counit    eps(f)   = f(identity),            the first coordinate block
  section   xi(m)    = f supported on H,       the first-block inclusion
  lax unit  iota     = eta at the unit object, the all-ones column
  lax mult  lambda   = pointwise tensor per representative
  projection pi(f(x)m) = (r |-> f_r (x) r.m),  block diagonal in r

Every closed form is cross-checkable against its abstract composite
definition, built from the maps of this module: ``lax_lambda_composite``
for lambda, and lambda . (id (x) eta) from ``compose``, ``tensor_mor``,
``lax_lambda`` and ``unit_eta`` for pi.  The comparisons live in the
verification suite and the tests.

Coind(n) and the trivial rep are plain derived ``repcat.Rep``s.  The
action of Coind(n) is the module function ``_coind_action``, which places
the blocks n.mat(h) of each element's coset factorization.
Each structure map is a function of its mathematical arguments only and
builds its own lazy source and target.  A derived rep costs nothing until
one of its action matrices is read, so no caller shares endpoints with a
map.
"""

from .exactlin import Matrix, assemble, hstack, mat_kron, vstack
from .repcat import (
    Morphism,
    Rep,
    RepError,
    compose,
    restrict,
    tensor_mor,
    tensor_obj,
    unit_rep,
)


def _coind_action(n, cs, g):
    """The matrix of g on Coind(n), as placed blocks.

    Block column sigma(i) goes to block row i through n.mat(h_i), where
    r_i g = h_i r_sigma(i) is the coset factorization.
    """
    dn = n.dim
    d = cs.index * dn
    blocks = []
    for i, r in enumerate(cs.reps):
        x = cs.group.mul(r, g)
        blocks.append((i * dn, cs.coset_of[x] * dn, n.mat(cs.fact[x][0])))
    return assemble(n.field, d, d, blocks)


def coind_obj(n, cs):
    """Coinduce an H-representation to G along the coset space.

    A derived rep: the matrix of g is built by ``_coind_action`` when g is
    first read.  Correct by construction, so not validated here; a caller
    that wants the law certified calls ``require_valid()`` on the result.
    """
    if n.carrier is not cs.subgroup:
        raise RepError("representation must live over the coset space's subgroup")
    return Rep(cs.group, n.field, lambda g: _coind_action(n, cs, g), cs.index * n.dim)


def coind_mor(f, cs):
    """Apply an H-morphism in every representative coordinate: kron(I_[G:H], f)."""
    eye = Matrix.identity(f.matrix.field, cs.index)
    return Morphism(coind_obj(f.source, cs), coind_obj(f.target, cs), mat_kron(eye, f.matrix))


def unit_eta(m, cs):
    """The unit m -> Coind(Res m): a vector goes to the function g |-> g.v."""
    mat = vstack([m.mat(r) for r in cs.reps])
    return Morphism(m, coind_obj(restrict(m, cs.subgroup), cs), mat)


def counit_eps(n, cs):
    """The counit Res Coind n -> n: evaluate at the identity.

    Pure block projection because the trivial coset's representative is
    the identity.
    """
    dn = n.dim
    rows = [{a: 1} for a in range(dn)]
    mat = Matrix(n.field, dn, cs.index * dn, rows, _normalized=True)
    return Morphism(restrict(coind_obj(n, cs), cs.subgroup), n, mat)


def section_xi(n, cs):
    """The H-equivariant section n -> Res Coind n of the counit.

    Includes a vector as the function supported on the trivial coset;
    eps composed with xi is the identity on the nose.
    """
    dn = n.dim
    d = cs.index * dn
    rows = [{a: 1} for a in range(dn)] + [{} for _ in range(d - dn)]
    mat = Matrix(n.field, d, dn, rows, _normalized=True)
    return Morphism(n, restrict(coind_obj(n, cs), cs.subgroup), mat)


def lax_iota(cs, field):
    """The lax unit 1_G -> Coind(1_H): the all-ones column."""
    one_g = unit_rep(cs.group, field)
    tgt = coind_obj(unit_rep(cs.subgroup, field), cs)
    mat = Matrix(field, cs.index, 1, [{0: 1} for _ in range(cs.index)], _normalized=True)
    return Morphism(one_g, tgt, mat)


def _lambda_matrix(field, index, dx, dy):
    """Row (r, a, b) selects column ((r, a), (r, b)) of Coind(x) (x) Coind(y)."""
    rows = [{(r * dx + a) * index * dy + r * dy + b: 1}
            for r in range(index) for a in range(dx) for b in range(dy)]
    return Matrix(field, index * dx * dy, index * dx * index * dy, rows, _normalized=True)


def lax_lambda(x, y, cs):
    """The lax multiplication Coind(x) (x) Coind(y) -> Coind(x (x) y).

    Pointwise tensor: the (r, r') input block survives only when r = r',
    landing identically in the r block of the target.
    """
    src = tensor_obj(coind_obj(x, cs), coind_obj(y, cs))
    tgt = coind_obj(tensor_obj(x, y), cs)
    mat = _lambda_matrix(x.field, cs.index, x.dim, y.dim)
    return Morphism(src, tgt, mat)


def lax_lambda_composite(x, y, cs):
    """The defining composite Coind(eps_x (x) eps_y) after the unit.

    Equal to the closed form of lax_lambda; exercised as a cross-check.
    """
    eta = unit_eta(tensor_obj(coind_obj(x, cs), coind_obj(y, cs)), cs)
    ee = tensor_mor(counit_eps(x, cs), counit_eps(y, cs))
    return compose(coind_mor(ee, cs), eta)


def projection_pi(y, x, cs):
    """The projection Coind(y) (x) x -> Coind(y (x) Res x).

    On functions, (f (x) m) |-> (r |-> f_r (x) r.m).  Block diagonal with
    r-block kron(I_dy, x.mat(r)); the shared flat index (r, i, a) makes
    source and target coordinates line up entry for entry.
    """
    return _pi_blockdiag(y, x, cs, invert=False)


def projection_pi_inverse(y, x, cs):
    """The exact inverse of projection_pi: r-block kron(I_dy, x.mat(1/r))."""
    return _pi_blockdiag(y, x, cs, invert=True)


def _pi_blockdiag(y, x, cs, invert):
    # placed as dy copies of each x(r), so pi . pi_inv multiplies each pair once
    g = cs.group
    copies = [x.mat(g.inverse(r) if invert else r) for r in cs.reps for _ in range(y.dim)]
    n = len(copies) * x.dim
    mat = assemble(x.field, n, n, [(k * x.dim, k * x.dim, m) for k, m in enumerate(copies)])
    src = tensor_obj(coind_obj(y, cs), x)
    tgt = coind_obj(tensor_obj(y, restrict(x, cs.subgroup)), cs)
    if invert:
        src, tgt = tgt, src
    return Morphism(src, tgt, mat)


def ind_counit(x, cs):
    """The counit Coind(Res x) -> x of the induction-side adjunction.

    Sends f to the sum over representatives of r^{-1}.f(r); with xi as
    unit this exhibits coinduction as a left adjoint of restriction as
    well (induction and coinduction coincide at finite index).
    """
    g = cs.group
    mat = hstack([x.mat(g.inverse(r)) for r in cs.reps])
    return Morphism(coind_obj(restrict(x, cs.subgroup), cs), x, mat)
