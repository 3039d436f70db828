"""Every refused construction raises one error type with named failure records.

A failed identity is a (name, lhs, rhs) triple.  Each refusal site raises
a subclass of ``exactlin.IdentityError`` whose ``failures`` hold those
triples and whose message is ``<refusal>: <names>``.  The suite reports
the first record as its witness; ``test_corpus`` pins the mutation-smoke
reports by digest, so a change of the witness format is a deliberate one.
"""

import json

import pytest

from sepmonad import cli, eilenberg, monadring
from sepmonad.eilenberg import (
    AModule,
    EMError,
    ModuleAxiomError,
    em_comparison,
    em_inverse_split,
    free_module,
    require_module_map,
    separable_summand,
)
from sepmonad.exactlin import Field, IdentityError, Matrix, _combination
from sepmonad.groups import right_cosets, subgroup_generated
from sepmonad.monadring import RingAxiomError, standard_ring
from sepmonad.presets import load_preset
from sepmonad.repcat import Morphism, Rep, random_rep, unit_rep, zero_mor
from sepmonad.suite import SuiteConfig, _corrupt_ring, _with_first_entry, run_suite

Q = Field(0)


def _setup(name):
    group, default = load_preset(name)
    cs = right_cosets(group, subgroup_generated(group, default))
    return cs, standard_ring(cs, Q)


def _zero(monkeypatch, name):
    """Replace the structure map ``eilenberg.<name>`` by the zero map between its reps."""
    real = getattr(eilenberg, name)

    def zeroed(*args):
        f = real(*args)
        return zero_mor(f.source, f.target)

    monkeypatch.setattr(eilenberg, name, zeroed)


def _ring_object(monkeypatch):
    _, ring = _setup("s3")
    _corrupt_ring(ring).require_valid("ring axioms fail")


def _standard_ring(monkeypatch):
    # standard_ring refuses the ring it builds when that ring's axioms fail
    real = monadring.RingObject
    monkeypatch.setattr(monadring, "RingObject", lambda *parts: _corrupt_ring(real(*parts)))
    _setup("s3")


# One targeted corruption per equality of A = Coind(1_H), installed in
# ``monadring``'s namespace; each returns the failure it must lead with,
# and ``standard_ring`` refuses its ring on it.

def _wrong_lax_iota(monkeypatch):
    real = monadring.lax_iota

    def wrong(cs, field):
        iota = real(cs, field)
        return Morphism(iota.source, iota.target, _with_first_entry(iota.matrix, 0))

    monkeypatch.setattr(monadring, "lax_iota", wrong)
    return "unit_transport"


def _wrong_lax_lambda(monkeypatch):
    real = monadring.lax_lambda

    def wrong(x, y, cs):
        lam = real(x, y, cs)
        if x.dim != 1 or y.dim != 1:
            return lam
        return Morphism(lam.source, lam.target, _with_first_entry(lam.matrix, 0))

    monkeypatch.setattr(monadring, "lax_lambda", wrong)
    return "multiplication_transport"


def _wrong_carrier_action(monkeypatch):
    real = monadring.coind_obj

    def wrong(n, cs):
        c = real(n, cs)
        g = cs.group.gens[0]
        m = c.mat(g)
        bad = _with_first_entry(m, m.nzrows[0].get(0, 0) + m.den)
        return Rep(cs.group, c.field, lambda e: bad if e == g else c.mat(e),
                   tag="wrong", dim=c.dim)

    monkeypatch.setattr(monadring, "coind_obj", wrong)
    return f"carrier_action@{load_preset('s3')[0].gens[0]}"


def _refused_iso(corrupt):
    def refuse(monkeypatch):
        corrupt(monkeypatch)
        _setup("s3")

    return refuse


def _module_action(monkeypatch):
    cs, ring = _setup("s3")
    free = free_module(ring, random_rep(cs.group, Q, seed=3, budget=2))
    rho = free.action.matrix
    rows = list(rho.nzrows)
    rows[0] = {**rows[0], 0: rows[0].get(0, 0) + rho.den}
    bad = Morphism(free.action.source, free.action.target,
                   Matrix(Q, rho.rows, rho.cols, den=rho.den, nzrows=rows))
    AModule(ring, free.carrier, bad).require_valid()


def _module_map(monkeypatch):
    # the all-ones map of A = k(G/H) is equivariant but not A-linear
    cs, ring = _setup("s3")
    free = free_module(ring, unit_rep(cs.group, Q))
    d = free.dim
    require_module_map(free, free, Matrix.from_rows(Q, [[1] * d] * d))


def _idempotent(monkeypatch):
    # the identity of H acting by 2 makes the module's e equal to 2 e_0
    cs, ring = _setup("c2")
    n = Rep(cs.subgroup, Q, {0: Matrix.from_rows(Q, [[2]])}, tag="doubled")
    em_inverse_split(em_comparison(n, cs, ring), cs)


def _separability_idempotent(monkeypatch):
    # a section of 2 sigma keeps e = s . rho equivariant and A-linear, but e . e = 2 e
    cs, ring = _setup("s3")
    assert ring.failures == []
    sec = ring.section
    ring.section = Morphism(sec.source, sec.target, _combination((2,), (sec.matrix,)))
    separable_summand(em_comparison(unit_rep(cs.subgroup, Q), cs, ring))


def _unit_round_trip(monkeypatch):
    cs, ring = _setup("s3")
    _zero(monkeypatch, "counit_eps")
    eilenberg.em_unit_iso(random_rep(cs.subgroup, Q, seed=0, budget=2), cs, ring)


def _counit_round_trip(monkeypatch):
    cs, ring = _setup("s3")
    free = free_module(ring, random_rep(cs.group, Q, seed=1, budget=2))
    split = em_inverse_split(free, cs)
    _zero(monkeypatch, "unit_eta")
    eilenberg.em_counit_iso(free, split, cs)


def _extension_round_trip(monkeypatch):
    cs, ring = _setup("s3")
    _zero(monkeypatch, "projection_pi_inverse")
    eilenberg.extension_of_scalars_iso(random_rep(cs.group, Q, seed=1, budget=2), cs, ring)


@pytest.mark.parametrize("refuse,error,refusal", [
    pytest.param(_ring_object, RingAxiomError, "ring axioms fail", id="ring_object"),
    pytest.param(_standard_ring, RingAxiomError, "ring axioms fail", id="standard_ring"),
    pytest.param(_refused_iso(_wrong_lax_iota), RingAxiomError,
                 "canonical map is not a ring isomorphism", id="unit_transport"),
    pytest.param(_refused_iso(_wrong_lax_lambda), RingAxiomError,
                 "canonical map is not a ring isomorphism", id="multiplication_transport"),
    pytest.param(_refused_iso(_wrong_carrier_action), RingAxiomError,
                 "canonical map is not a ring isomorphism", id="carrier_action"),
    pytest.param(_module_action, ModuleAxiomError, "module axioms fail", id="module_action"),
    pytest.param(_module_map, EMError, "map does not commute with the actions", id="module_map"),
    pytest.param(_idempotent, EMError, "module idempotent law fails", id="idempotent"),
    pytest.param(_separability_idempotent, EMError, "separability idempotent fails",
                 id="separability_idempotent"),
    pytest.param(_unit_round_trip, EMError, "unit round trip fails", id="unit_round_trip"),
    pytest.param(_counit_round_trip, EMError, "counit round trip fails",
                 id="counit_round_trip"),
    pytest.param(_extension_round_trip, EMError, "extension of scalars round trip fails",
                 id="extension_round_trip"),
])
def test_a_refusal_names_every_failed_identity_in_its_message(monkeypatch, refuse, error,
                                                              refusal):
    with pytest.raises(error) as err:
        refuse(monkeypatch)
    exc = err.value
    assert isinstance(exc, IdentityError)
    assert exc.failures
    for name, lhs, rhs in exc.failures:
        assert isinstance(name, str) and isinstance(lhs, Matrix) and isinstance(rhs, Matrix)
        assert lhs != rhs
    assert str(exc) == f"{refusal}: {', '.join(name for name, _, _ in exc.failures)}"


@pytest.mark.parametrize("corrupt", [_wrong_lax_iota, _wrong_lax_lambda, _wrong_carrier_action],
                         ids=["unit_transport", "multiplication_transport", "carrier_action"])
def test_each_equality_of_the_coset_ring_is_needed(monkeypatch, corrupt):
    """A corrupted side of A = Coind(1_H) makes standard_ring refuse by name, and the
    suite fails on it."""
    first = corrupt(monkeypatch)
    with pytest.raises(RingAxiomError) as err:
        _setup("s3")
    assert err.value.failures[0][0] == first
    report = run_suite(SuiteConfig(group="s3", family_size=2,
                                   checks=("ring_axioms", "monad_morphism")))
    witnesses = {c.id: c.witness["context"] for c in report.checks if c.status == "fail"}
    refusal = f"while preparing the check: canonical map is not a ring isomorphism: {first}"
    assert witnesses == {"ring_axioms": refusal, "monad_morphism": refusal}


def test_ring_mul_corruption_is_led_by_the_ring_axiom_it_breaks(capsys):
    """Zeroing mu(e_0 (x) e_0) breaks unit_left, which ring_axioms, the first check that
    reads the ring, reports; every later check that reads the ring fails too."""
    assert cli.main(["--group", "s3", "--family-size", "2", "--mutation-smoke",
                     "--report", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["mutation_smoke"]
    [row] = [r for r in rows if r["corruption"] == "ring_mul"]
    assert row["failed_checks"][:2] == ["ring_axioms", "monad_morphism"]
    assert (row["witness"]["kind"], row["witness"]["context"]) == (
        "ring_axioms", "standard ring: unit_left")
