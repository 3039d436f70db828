"""Each candidate inverse pair is multiplied once when one product decides it.

Over a field a square a with a . b = I has b as its two-sided inverse, so
the five isomorphism checks form b . a only when a . b is not the identity
or a is not square.  A spy on ``mat_mul`` counts the products of each
pair; the inverse of a certified module isomorphism is not multiplied
again to re-certify it.
"""

import sys

import pytest

from sepmonad import eilenberg, exactlin, monadring, suite
from sepmonad.adjunction import projection_pi, projection_pi_inverse
from sepmonad.eilenberg import (
    EMError,
    em_counit_iso,
    em_inverse_split,
    em_unit_iso,
    extension_of_scalars_iso,
    free_module,
)
from sepmonad.exactlin import GF, Field, Matrix, assemble, hstack, vstack
from sepmonad.groups import right_cosets, subgroup_generated
from sepmonad.monadring import monad_morphism_failures, standard_ring
from sepmonad.presets import load_preset
from sepmonad.repcat import Morphism, Rep, random_rep
from sepmonad.suite import SuiteConfig, run_suite

Q = Field(0)
FIELDS = pytest.mark.parametrize("field", [Q, GF(3)], ids=["q", "fp3"])


def _setup(name, field):
    group, default = load_preset(name)
    cs = right_cosets(group, subgroup_generated(group, default))
    return cs, standard_ring(cs, field)


@pytest.fixture
def products(monkeypatch):
    """Every operand pair (a, b) of a product, read through each sepmonad namespace.

    The pairs keep their operands alive, so ``is`` tells matrices apart.
    """
    calls = []
    original = exactlin.mat_mul

    def spy(a, b):
        calls.append((a, b))
        return original(a, b)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "sepmonad" and getattr(mod, "mat_mul", None) is original:
            monkeypatch.setattr(mod, "mat_mul", spy)
    return calls


def _pair_products(calls, a, b):
    """How many products multiply a with b, in either order."""
    return sum((x is a and y is b) or (x is b and y is a) for x, y in calls)


def _uses(calls, a):
    """How many products have a as an operand."""
    return sum(x is a or y is a for x, y in calls)


def _recording(results, fn):
    def record(*args):
        out = fn(*args)
        results.append(out)
        return out
    return record


def test_projection_formula_multiplies_each_pi_pair_once(monkeypatch, products):
    pis, pinvs = [], []
    monkeypatch.setattr(suite, "projection_pi", _recording(pis, suite.projection_pi))
    monkeypatch.setattr(suite, "projection_pi_inverse",
                        _recording(pinvs, suite.projection_pi_inverse))
    report = run_suite(SuiteConfig(group="s4", family_size=2, checks=("projection_formula",)))
    assert report.passed
    assert len(pis) == len(pinvs) == 2
    assert [_pair_products(products, pi.matrix, pinv.matrix)
            for pi, pinv in zip(pis, pinvs)] == [1, 1]


def _record_components(monkeypatch):
    """The pi and pi_inv morphisms that ``monad_morphism_failures`` reads, in call order."""
    thetas, invs = [], []
    monkeypatch.setattr(monadring, "projection_pi", _recording(thetas, monadring.projection_pi))
    monkeypatch.setattr(monadring, "projection_pi_inverse",
                        _recording(invs, monadring.projection_pi_inverse))
    return thetas, invs


@FIELDS
def test_monad_morphism_multiplies_each_component_with_its_inverse_once(monkeypatch, field,
                                                                       products):
    cs, std = _setup("s3", field)
    thetas, invs = _record_components(monkeypatch)
    for seed in range(2):
        x = random_rep(cs.group, field, seed=seed, budget=2)
        assert monad_morphism_failures(std, cs, x) == []
        # pi at x comes first, then pi at Coind(Res x) for the multiplication square
        assert _pair_products(products, thetas[-2].matrix, invs[-1].matrix) == 1


@FIELDS
def test_em_unit_iso_multiplies_its_witnesses_once(field, products):
    cs, ring = _setup("s3", field)
    n = random_rep(cs.subgroup, field, seed=0, budget=2)
    *_, w1, w2 = em_unit_iso(n, cs, ring)
    assert _pair_products(products, w1.matrix, w2.matrix) == 1


@FIELDS
def test_em_counit_iso_multiplies_psi_once_and_certifies_phi_only(field, products):
    cs, ring = _setup("s3", field)
    free = free_module(ring, random_rep(cs.group, field, seed=1, budget=2))
    phi, psi = em_counit_iso(free, em_inverse_split(free, cs), cs)
    assert _pair_products(products, phi, psi) == 1
    # psi = phi^-1 enters no product but phi . psi: it is not re-certified
    assert _uses(products, psi) == 1
    assert _uses(products, phi) > 1


@FIELDS
def test_extension_of_scalars_multiplies_pi_pair_once_and_certifies_phi_only(field, products):
    cs, ring = _setup("s3", field)
    y = random_rep(cs.group, field, seed=2, budget=2)
    phi, psi = extension_of_scalars_iso(y, cs, ring)
    assert _pair_products(products, phi, psi) == 1
    assert _uses(products, psi) == 1
    assert _uses(products, phi) > 1


def _grown_by_a_trivial_summand(split):
    """The split with the image grown by one dimension: p gains a zero row, m a zero column.

    p . m is the identity padded by one zero entry, so the pair (p, m) is
    no longer a splitting, and w2 . w1 = I still holds while w1 . w2 != I.
    """
    img, p, m, e = split
    field, r = img.field, img.dim
    one = Matrix.identity(field, 1)
    grown = Rep(img.carrier, field,
                lambda g: assemble(field, r + 1, r + 1, [(0, 0, img.mat(g)), (r, r, one)]), r + 1)
    pmat = vstack([p.matrix, Matrix.zeros(field, 1, p.matrix.cols)])
    mmat = hstack([m.matrix, Matrix.zeros(field, m.matrix.rows, 1)])
    return grown, Morphism(p.source, grown, pmat), Morphism(grown, m.target, mmat), e


@FIELDS
def test_non_square_unit_round_trip_is_checked_on_both_sides(monkeypatch, field):
    cs, ring = _setup("s3", field)
    split = eilenberg.em_inverse_split
    monkeypatch.setattr(eilenberg, "em_inverse_split",
                        lambda mod, cs: _grown_by_a_trivial_summand(split(mod, cs)))
    n = random_rep(cs.subgroup, field, seed=0, budget=2)
    with pytest.raises(EMError, match=r"^unit round trip fails: w1 \. w2 = id_image$") as err:
        em_unit_iso(n, cs, ring)
    [(name, lhs, rhs)] = err.value.failures
    assert name == "w1 . w2 = id_image"
    r = n.dim
    assert rhs == Matrix.identity(field, r + 1)
    # w1 . w2 is the identity on the true image and zero on the added line
    assert lhs.nzrows == [{i: 1} for i in range(r)] + [{}]


def _spy_on_row_products(monkeypatch):
    """From now on, the row count of the left operand of each row-by-row product.

    Every product that no structure rule takes, a Kronecker operand on
    either side included, runs through ``_row_products``.
    """
    rows_multiplied = []
    original = exactlin._row_products

    def spy(arows, *rest):
        arows = list(arows)
        rows_multiplied.append(len(arows))
        return original(arows, *rest)

    monkeypatch.setattr(exactlin, "_row_products", spy)
    return rows_multiplied


def test_pi_pair_multiplies_each_block_pair_once(monkeypatch):
    """c6's (12, 12) pair: pi . pi_inv is six 12 x 12 products x(r) . x(1/r), one per
    representative, not one 864-row product nor dy = 12 copies of each."""
    ctx = suite.Ctx(SuiteConfig(group="c6", family_size=2))
    cs = ctx.cs
    y, x = ctx.pi_pairs[-1]
    pi, pinv = projection_pi(y, x, cs), projection_pi_inverse(y, x, cs)
    assert (cs.index, y.dim, x.dim, pi.matrix.rows) == (6, 12, 12, 864)
    rows_multiplied = _spy_on_row_products(monkeypatch)
    assert exactlin.inverse_failures(pi.matrix, pinv.matrix, "pi . pi_inv", "pi_inv . pi") == []
    assert rows_multiplied == [12] * 6


@FIELDS
def test_monad_morphism_component_pair_multiplies_block_by_block(monkeypatch, field):
    """theta_x^-1 . theta_x is one 3-row product x(1/r) . x(r) per representative of S4/S3,
    not one 12-row product."""
    cs, std = _setup("s4", field)
    thetas, invs = _record_components(monkeypatch)
    assert monad_morphism_failures(std, cs, random_rep(cs.group, field, seed=0, budget=3)) == []
    theta, inv = thetas[0].matrix, invs[0].matrix
    rows_multiplied = _spy_on_row_products(monkeypatch)
    assert exactlin.inverse_failures(inv, theta, "left", "right") == []
    assert rows_multiplied == [3] * cs.index
