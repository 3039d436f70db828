"""Finite-dimensional representations of a finite group over an exact field.

A Rep gives every element of its carrier group (a FiniteGroup or a
Subgroup) an invertible matrix, with mat(identity) = I and
mat(a*b) = mat(a)*mat(b).  The matrices live in one memo dict, ``mats``,
which ``Rep.mat`` fills from an element function on first read.

Every Rep is derived from an element function: its memo starts empty
and an element's matrix is built only when it is read, since the checks
read a few.  The trivial rep, a tensor product, a restriction, a
coinduced rep, the coset permutation rep, a seeded ``random_rep`` and the
image of a split idempotent are fixed by data whose law is already
known; the ``rep_action`` corruption changes one matrix of a seeded rep.
``random_rep``'s permutation blocks act on the cosets that
``groups.right_coset_partition`` enumerates.  Validation checks
mat(x*g) = mat(x)*mat(g) on every edge of ``groups.generator_walk`` over
the carrier's generators, which implies the law for all pairs once the
walk reaches every element.

A seeded ``random_rep`` also keeps its permutation form
``perm_form = (U, U^-1, pi)``, with mat(g) = U P(pi(g)) U^-1; other reps
have None.  ``hom_space_basis`` reads Hom(x, y) off the orbits on index
pairs when both reps carry a form, and otherwise eliminates the stacked
generator equations, the route kept for reps with no form, such as
the ``rep_action`` corruption's rep.  ``rep_hom_sanity`` certifies
every seeded rep and map against the matrices themselves, so a wrong
form cannot pass silently.

Constructors only build, with cheap structural checks.  A caller that
must certify a law calls ``require_valid()``: ``Rep.require_valid`` fills
the memo and checks the law on the walk (the ``rep_hom_sanity`` check
calls it on the seeded families), and ``Morphism.require_valid`` checks
equivariance on the generators.

The tensor product uses the fixed Kronecker convention of ``exactlin``,
which makes the monoidal structure strict: associators and unitors are
identity matrices, and (x (x) y) (x) z equals x (x) (y (x) z) entrywise.
"""

import random

from .exactlin import (
    Matrix,
    _combination,
    mat_kron,
    mat_mul,
    mat_sub,
    nullspace_basis,
    span_basis,
    vstack,
)
from .groups import generator_walk, right_coset_partition, subgroup_closure


class RepError(ValueError):
    pass


class Rep:
    """A representation: dimension plus a memo of action matrices.

    ``action`` is a function of the element; ``mat`` fills the memo
    ``mats`` from it on first read.  ``require_valid`` checks the law on
    every walk edge, and so builds every matrix first.  ``perm_form`` is
    None unless a constructor that knows one sets it (``random_rep``).
    """

    def __init__(self, carrier, field, action, dim, tag=""):
        self.carrier = carrier
        self.field = field
        self.tag = tag
        self.mats = {}
        self._action = action
        self.dim = dim
        self.perm_form = None

    def require_valid(self):
        """Raise RepError unless every matrix fits and the law holds on the walk."""
        for i in self.carrier.elements:
            m = self.mat(i)
            if m.rows != self.dim or m.cols != self.dim or m.field is not self.field:
                raise RepError(f"matrix at element {i} has wrong shape or field")
        if not self.mats[0].is_identity():
            raise RepError("identity element must act as the identity matrix")
        reached = {0}
        for x, g, y in generator_walk(self.carrier.mul, self.carrier.gens):
            if self.mats[y] != mat_mul(self.mats[x], self.mats[g]):
                raise RepError(f"homomorphism law fails at pair ({x}, {g})")
            reached.add(y)
        if len(reached) != self.carrier.order:
            raise RepError("generator set does not generate the carrier")

    def mat(self, i):
        m = self.mats.get(i)
        if m is None:
            m = self.mats[i] = self._action(i)
        return m

    def __repr__(self):
        kind = "G" if not hasattr(self.carrier, "parent") else "H"
        return f"<Rep dim {self.dim} over {self.field} ({kind}-side{': ' + self.tag if self.tag else ''})>"


class Morphism:
    """An equivariant matrix between the spaces of two representations."""

    def __init__(self, source, target, matrix):
        if source.carrier is not target.carrier:
            raise RepError("source and target live over different carriers")
        if source.field is not target.field or matrix.field is not source.field:
            raise RepError("field mismatch in morphism")
        if matrix.rows != target.dim or matrix.cols != source.dim:
            raise RepError(
                f"matrix is {matrix.rows}x{matrix.cols}, expected {target.dim}x{source.dim}"
            )
        self.source = source
        self.target = target
        self.matrix = matrix

    def require_valid(self):
        """Raise RepError unless the matrix is equivariant on the generators."""
        f = self.matrix
        for g in self.source.carrier.gens:
            if mat_mul(f, self.source.mat(g)) != mat_mul(self.target.mat(g), f):
                raise RepError(f"equivariance fails at generator {g}")

    def __repr__(self):
        return f"<Morphism {self.source.dim}->{self.target.dim}>"


def identity_mor(x):
    return Morphism(x, x, Matrix.identity(x.field, x.dim))


def zero_mor(x, y):
    return Morphism(x, y, Matrix.zeros(x.field, y.dim, x.dim))


def compose(f, g):
    """The composite f after g."""
    if g.target.carrier is not f.source.carrier or g.target.dim != f.source.dim:
        raise RepError("composition mismatch")
    return Morphism(g.source, f.target, mat_mul(f.matrix, g.matrix))


def unit_rep(carrier, field):
    """The one-dimensional trivial representation: every element acts as I_1."""
    one = Matrix.identity(field, 1)
    return Rep(carrier, field, lambda i: one, 1)


def tensor_obj(x, y):
    """Tensor product with diagonal action (Kronecker on each element)."""
    if x.carrier is not y.carrier:
        raise RepError("tensor factors live over different carriers")
    if x.field is not y.field:
        raise RepError("tensor factors over different fields")
    return Rep(x.carrier, x.field, lambda i: mat_kron(x.mat(i), y.mat(i)), x.dim * y.dim)


def tensor_mor(f, g):
    """Kronecker product of morphisms, between the tensor objects."""
    return Morphism(
        tensor_obj(f.source, g.source),
        tensor_obj(f.target, g.target),
        mat_kron(f.matrix, g.matrix),
    )


def symmetry(x, y):
    """The swap isomorphism x (x) y -> y (x) x permuting Kronecker factors."""
    dx, dy = x.dim, y.dim
    # row (j, i) picks column (i, j)
    rows = [{i * dy + j: 1} for j in range(dy) for i in range(dx)]
    mat = Matrix(x.field, dx * dy, dx * dy, rows, _normalized=True)
    return Morphism(tensor_obj(x, y), tensor_obj(y, x), mat)


def restrict(x, h):
    """View a representation of G as a representation of the subgroup h."""
    if hasattr(x.carrier, "parent"):
        raise RepError("restriction starts from a full-group representation")
    return Rep(h, x.field, x.mat, x.dim)


def restrict_mor(f, h):
    return Morphism(restrict(f.source, h), restrict(f.target, h), f.matrix)


def hom_space_basis(x, y):
    """A deterministic basis of the space of equivariant maps x -> y.

    The basis is the nullspace of the stacked constraints
    T * x.mat(g) - y.mat(g) * T = 0 over the carrier's generators, in the
    canonical form of ``exactlin.nullspace_basis``, with T flattened
    row-major; each basis column is read back row-major.  It is reached by
    one of two routes, chosen by the reps themselves:

    * when both reps carry a permutation form (seeded ``random_rep``s),
      by ``_orbit_span``: one spanning map per orbit on index pairs, put
      into that canonical form by ``exactlin.span_basis``;
    * otherwise by eliminating the stacked system: one block
      kron(I_y, x(g)^T) - kron(y(g), I_x) per generator.  Within the
      package only the ``rep_action`` corruption's rep comes this way;
      the tests read it as the reference for the orbit route.

    Both routes give the same matrices.  The basis maps are not
    revalidated: each lies in the solution space of the generator
    equations, which are all that ``require_valid`` checks.  A wrong
    permutation form cannot pass silently either: ``rep_hom_sanity``
    certifies every seeded rep and map against its action matrices.
    """
    if x.carrier is not y.carrier or x.field is not y.field:
        raise RepError("hom space needs a common carrier and field")
    field = x.field
    if not x.carrier.gens:
        cols = Matrix.identity(field, y.dim * x.dim)
    elif x.perm_form and y.perm_form:
        cols = span_basis(_orbit_span(x, y))
    else:
        eye_x = Matrix.identity(field, x.dim)
        eye_y = Matrix.identity(field, y.dim)
        cols = nullspace_basis(vstack(
            mat_sub(mat_kron(eye_y, x.mat(g).transpose()), mat_kron(y.mat(g), eye_x))
            for g in x.carrier.gens
        ))
    # entry i of column k is entry divmod(i, x.dim) of map k
    maps = [[{} for _ in range(y.dim)] for _ in range(cols.cols)]
    for i, row in enumerate(cols.nzrows):
        r, s = divmod(i, x.dim)
        for k, v in row.items():
            maps[k][r][s] = v
    return [Morphism(x, y, Matrix(field, y.dim, x.dim, rows, den=cols.den))
            for rows in maps]


def _orbit_span(x, y):
    """Flattened maps spanning Hom(x, y) for two reps with permutation forms.

    With x(g) = U_x P_x(g) U_x^-1 and y(g) = U_y P_y(g) U_y^-1, T is
    equivariant exactly when S = U_y^-1 T U_x has S P_x(g) = P_y(g) S, that
    is, when S is constant on the orbits of the index pairs
    (i, j) -> (pi_y(g) i, pi_x(g) j) over the generators: over every
    field, the orbit indicators S_k are a basis of those S (the
    Mackey basis of a hom space between permutation modules).  Returns
    the y.dim * x.dim x k matrix whose column k is U_y S_k U_x^-1
    flattened row-major, which is kron(U_y, (U_x^-1)^T) times the
    flattened S_k.
    """
    _, ux_inv, perm_x = x.perm_form
    uy, _, perm_y = y.perm_form
    dx = x.dim
    moves = [(perm_y(g), perm_x(g)) for g in x.carrier.gens]
    orbit = [None] * (y.dim * dx)
    k = 0
    for start in range(len(orbit)):
        if orbit[start] is not None:
            continue
        orbit[start] = k
        stack = [start]
        while stack:
            i, j = divmod(stack.pop(), dx)
            for py, px in moves:
                t = py[i] * dx + px[j]
                if orbit[t] is None:
                    orbit[t] = k
                    stack.append(t)
        k += 1
    indicators = Matrix(x.field, len(orbit), k, [{o: 1} for o in orbit], _normalized=True)
    return mat_mul(mat_kron(uy, ux_inv.transpose()), indicators)


def random_hom(x, y, seed):
    """A seeded element of the hom space (zero when the space is zero)."""
    basis = hom_space_basis(x, y)
    if not basis:
        return zero_mor(x, y)
    rng = random.Random(f"sepmonad|hom|{seed}")
    p = x.field.char
    while True:
        if p == 0:
            coeffs = [rng.randint(-3, 3) for _ in basis]
        else:
            coeffs = [rng.randrange(p) for _ in basis]
        if any(coeffs):
            break
    return Morphism(x, y, _combination(coeffs, [b.matrix for b in basis]))


def _perm_action_on_cosets(carrier, k_elems):
    """(d, g -> pi(g)) for the left action g . e_C = e_{C g^{-1}} on cosets of K.

    pi(g)[c] is the index of the coset that g moves coset c to, so the
    action matrix of g is ``_permute_rows`` of the identity by pi(g).
    """
    cosets, coset_of = right_coset_partition(carrier.mul, carrier.elements, k_elems)
    firsts = [members[0] for members in cosets]

    def perm(g):
        ginv = carrier.inverse(g)
        return [coset_of[carrier.mul(x, ginv)] for x in firsts]

    return len(cosets), perm


def _permute_rows(m, pi):
    """P m for the permutation matrix P with 1 at (pi[c], c): row pi[c] is row c of m."""
    rows = [None] * m.rows
    for c, r in enumerate(pi):
        rows[r] = m.nzrows[c]
    return Matrix(m.field, m.rows, m.cols, rows, den=m.den, _normalized=True)


def _sheared_identity(field, n, shears):
    """The n x n identity after the row operations (i, j, c), in order.

    Each operation adds c times row j to row i.
    """
    u = [{i: 1} for i in range(n)]
    for i, j, c in shears:
        row = dict(u[i])
        for k, v in u[j].items():
            row[k] = row.get(k, 0) + c * v
        u[i] = row
    return Matrix(field, n, n, u)


def random_rep(carrier, field, seed, budget):
    """A seeded representation of dimension exactly ``budget``.

    Direct sum of permutation representations on coset spaces of randomly
    generated subgroups, conjugated by a random unimodular integer matrix.
    The conjugator is built as rows, one integer shear at a time, and so
    never as a dense table.  Deterministic for a fixed (seed, budget,
    carrier, field).

    The rep keeps its permutation form ``perm_form = (U, U^-1, pi)``, with
    pi(g) the permutation of the summed coset bases: P(g) U^-1 is U^-1
    with its rows moved by pi(g), so one product builds the matrix of g.

    A derived rep: the matrix of g is built on first read and is not
    validated here.  Its law holds by construction, since U P(g) U^-1
    conjugates a permutation action on right cosets by an exact inverse;
    ``rep_hom_sanity`` validates the suite's seeded families on every edge
    of the generator walk.
    """
    if budget < 1:
        raise RepError("size budget must be at least 1")
    rng = random.Random(f"sepmonad|rep|{seed}|{budget}")
    elems = list(carrier.elements)
    blocks = []
    total = 0
    while total < budget:
        remaining = budget - total
        chosen = None
        for _ in range(4):
            k = rng.randint(0, min(2, len(elems) - 1))
            k_elems = sorted(subgroup_closure(carrier.mul, rng.sample(elems, k) if k else []))
            if carrier.order // len(k_elems) <= remaining:
                chosen = k_elems
                break
        if chosen is None:
            chosen = elems
        d, perm = _perm_action_on_cosets(carrier, chosen)
        blocks.append((total, d, perm))
        total += d
    # Conjugate by a product of integer shears (determinant 1, so the
    # conjugator stays invertible over every field).  Its inverse undoes
    # the shears in reverse order, so no elimination is needed.
    shears = []
    for _ in range(2 * total):
        i = rng.randrange(total)
        j = rng.randrange(total)
        if i != j:
            shears.append((i, j, rng.choice((-2, -1, 1, 2))))
    umat = _sheared_identity(field, total, shears)
    uinv = _sheared_identity(field, total, [(i, j, -c) for i, j, c in reversed(shears)])

    def perm(g):
        return [off + r for off, _, block in blocks for r in block(g)]

    dims = "+".join(str(d) for _, d, _ in blocks)
    rep = Rep(carrier, field, lambda g: mat_mul(umat, _permute_rows(uinv, perm(g))), total,
              tag=f"rand[{dims}|seed={seed}]")
    rep.perm_form = (umat, uinv, perm)
    return rep
