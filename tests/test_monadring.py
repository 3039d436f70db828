"""Ring object axioms, separability, and the two monads."""

import sys

import pytest

from sepmonad import backend, monadring
from sepmonad.adjunction import coind_obj, lax_iota, lax_lambda
from sepmonad.exactlin import Field, GF, Matrix, mat_mul
from sepmonad.groups import right_cosets, subgroup_generated
from sepmonad.monadring import (
    RingAxiomError,
    RingObject,
    coset_permutation_rep,
    monad_from_adjunction,
    monad_from_ring,
    monad_law_failures,
    monad_morphism_failures,
    monad_section_at,
    monad_separability_failures,
    ring_axiom_failures,
    ring_iso_failures,
    standard_ring,
)
from sepmonad.presets import load_preset, preset_names
from sepmonad.repcat import random_rep, symmetry, unit_rep
from sepmonad.suite import SuiteConfig, run_suite

Q = Field(0)


def _space(name, field=Q):
    group, default = load_preset(name)
    h = subgroup_generated(group, default)
    return right_cosets(group, h), field


def test_standard_ring_axioms_all_presets_rational():
    for name in preset_names():
        cs, field = _space(name)
        ring = standard_ring(cs, field)
        assert ring_axiom_failures(ring) == []
        assert ring.dim == cs.index


@pytest.mark.parametrize("p", [2, 3, 5])
def test_standard_ring_axioms_modular(p):
    """Separability survives p dividing the group order."""
    for name in ("c4", "s3", "q8", "s4"):
        cs, _ = _space(name)
        ring = standard_ring(cs, GF(p))
        assert ring_axiom_failures(ring) == []


def test_mul_is_pointwise_delta(s3_cs, s3_ring):
    mul = s3_ring.mul.matrix
    d = s3_cs.index
    for i in range(d):
        for j in range(d):
            col = i * d + j
            for r in range(d):
                expect = 1 if (i == j == r) else 0
                assert mul.entry(r, col) == expect


def test_unit_is_all_ones(s3_ring):
    assert all(s3_ring.unit.matrix.entry(i, 0) == 1 for i in range(3))


def test_ring_is_commutative(s3_cs, s3_ring):
    a = s3_ring.carrier
    swap = symmetry(a, a)
    assert mat_mul(s3_ring.mul.matrix, swap.matrix) == s3_ring.mul.matrix


def test_section_is_diagonal(s3_ring):
    sigma = s3_ring.section.matrix
    assert mat_mul(s3_ring.mul.matrix, sigma).is_identity()


def test_carrier_is_coset_permutation_rep(s3_cs, s3_ring):
    perm = coset_permutation_rep(s3_cs, Q)
    for g in s3_cs.group.elements:
        assert s3_ring.carrier.mat(g) == perm.mat(g)


def test_invalid_ring_rejected(s3_cs, s3_ring):
    nums = list(s3_ring.mul.matrix.nums)
    nums[0] = 0
    bad_mul = type(s3_ring.mul)(
        s3_ring.mul.source,
        s3_ring.mul.target,
        Matrix.from_flat(Q, s3_ring.mul.matrix.rows, s3_ring.mul.matrix.cols, nums),
    )
    with pytest.raises(RingAxiomError) as err:
        RingObject(s3_ring.carrier, bad_mul, s3_ring.unit, s3_ring.section).require_valid(
            "ring axioms fail")
    assert err.value.failures


def test_adjunction_ring_matches_standard(s3_cs):
    std = standard_ring(s3_cs, Q)  # refuses unless the equalities below hold
    assert ring_iso_failures(std, s3_cs) == []
    # what the equalities stand for: Coind(1_H) with its lax structure and
    # the standard section is a valid ring
    one_h = unit_rep(s3_cs.subgroup, Q)
    adj = RingObject(coind_obj(one_h, s3_cs), lax_lambda(one_h, one_h, s3_cs),
                     lax_iota(s3_cs, Q), std.section)
    assert ring_axiom_failures(adj) == []


def test_one_suite_evaluates_the_ring_axioms_once(monkeypatch):
    """A = Coind(1_H) is certified as equalities, so only the standard ring is validated."""
    rings = []
    real = monadring.ring_axiom_failures

    def spy(ring):
        rings.append(ring)
        return real(ring)

    monkeypatch.setattr(monadring, "ring_axiom_failures", spy)
    assert run_suite(SuiteConfig(group="s4", family_size=2)).passed
    assert len(rings) == 1


def test_the_ring_layer_inverts_no_matrix(monkeypatch):
    """The canonical isomorphism is the identity: nothing in monadring eliminates."""
    stacks = []  # the modules on the stack at each elimination

    def spy(real):
        def kernel(*args):
            frame, mods = sys._getframe(1), set()
            while frame is not None:
                mods.add(frame.f_globals.get("__name__"))
                frame = frame.f_back
            stacks.append(mods)
            return real(*args)
        return kernel

    for name in ("rrefj_int", "rref_mod"):
        monkeypatch.setattr(backend, name, spy(getattr(backend, name)))
    assert run_suite(SuiteConfig(group="s4", family_size=2)).passed
    assert stacks  # the suite eliminates, outside the ring layer
    assert not any("sepmonad.monadring" in mods for mods in stacks)


def test_adjunction_ring_modular():
    cs, _ = _space("c4")
    std = standard_ring(cs, GF(2))
    assert ring_iso_failures(std, cs) == []


def test_monad_laws_both_monads(s3_cs, s3_ring):
    mon_adj = monad_from_adjunction(s3_cs)
    mon_ring = monad_from_ring(s3_ring)
    for seed in range(3):
        x = random_rep(s3_cs.group, Q, seed=seed, budget=2)
        assert monad_law_failures(mon_adj, x) == []
        assert monad_law_failures(mon_ring, x) == []


def test_monad_separability(s3_cs):
    mon_adj = monad_from_adjunction(s3_cs)
    for seed in range(3):
        x = random_rep(s3_cs.group, Q, seed=seed, budget=2)
        s = monad_section_at(s3_cs, x)
        mu = mon_adj.mu_at(x)
        assert mat_mul(mu.matrix, s.matrix).is_identity()
        assert monad_separability_failures(s3_cs, x) == []


def test_monad_from_invalid_ring_refused(s3_cs, s3_ring):
    nums = list(s3_ring.mul.matrix.nums)
    nums[0] = 0
    bad_mul = type(s3_ring.mul)(
        s3_ring.mul.source,
        s3_ring.mul.target,
        Matrix.from_flat(Q, s3_ring.mul.matrix.rows, s3_ring.mul.matrix.cols, nums),
    )
    bad = RingObject(s3_ring.carrier, bad_mul, s3_ring.unit, s3_ring.section)
    with pytest.raises(RingAxiomError):
        monad_from_ring(bad)


def test_monad_morphism_diagrams(s3_cs, s3_ring):
    for seed in range(3):
        x = random_rep(s3_cs.group, Q, seed=seed, budget=2)
        assert monad_morphism_failures(s3_ring, s3_cs, x) == []


def test_monad_morphism_modular():
    cs, _ = _space("c4")
    std = standard_ring(cs, GF(2))
    x = random_rep(cs.group, GF(2), seed=1, budget=2)
    assert monad_morphism_failures(std, cs, x) == []


def test_monads_agree_on_objects(s3_cs, s3_ring):
    """Coind(Res x) and A (x) x have equal dimension and matching unit maps."""
    mon_adj = monad_from_adjunction(s3_cs)
    mon_ring = monad_from_ring(s3_ring)
    x = random_rep(s3_cs.group, Q, seed=5, budget=2)
    assert mon_adj.on_obj(x).dim == mon_ring.on_obj(x).dim == s3_cs.index * x.dim
