"""Acceptance gate: the eight primary criteria with their runtime budgets.

Each test prints one ACCEPTANCE line (visible with pytest -s) and asserts
exact identities plus the stated wall-clock budgets.
"""

import json
import time

from sepmonad.groups import right_cosets, subgroup_generated
from sepmonad.monadring import ring_axiom_failures, standard_ring
from sepmonad.presets import load_preset
from sepmonad.exactlin import Field, parse_field
from sepmonad.suite import (
    CORRUPTIONS,
    DEFAULT_FIELDS,
    DEFAULT_PAIRS,
    SuiteConfig,
    mutation_smoke,
    run_matrix,
    run_suite,
)

Q = Field(0)
PRESET_PAIRS = [name for name, _ in DEFAULT_PAIRS]


def _line(n, ok, detail):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")


def _space(name, gens=None):
    group, default = load_preset(name)
    h = subgroup_generated(group, default if gens is None else gens)
    return group, h, right_cosets(group, h)


def _brute_force_coset_count(group, h):
    seen = set()
    count = 0
    for x in group.elements:
        coset = frozenset(group.mul(hh, x) for hh in h.elements)
        if coset not in seen:
            seen.add(coset)
            count += 1
    return count


def test_criterion_1_structure_constants():
    """mul is the pointwise delta rule and dim A equals the coset count."""
    worst = 0.0
    ok = True
    for name in PRESET_PAIRS:
        t0 = time.perf_counter()
        group, h, cs = _space(name)
        ring = standard_ring(cs, Q)
        expected_dim = _brute_force_coset_count(group, h)
        ok &= ring.dim == cs.index == expected_dim
        mul = ring.mul
        d = ring.dim
        for i in range(d):
            for j in range(d):
                for r in range(d):
                    want = 1 if (i == j == r) else 0
                    ok &= mul.entry(r, i * d + j) == want
        worst = max(worst, time.perf_counter() - t0)
    # named index oracles, frozen independently of the library
    s3, _ = load_preset("s3")
    frozen = [
        ("s3", (s3.index_of_perm((1, 2, 0)),), 2),  # alternating subgroup
        ("s3", None, 3),  # transposition subgroup
        ("s4", None, 4),  # point-stabilizer copy of s3
        ("a4", None, 3),  # klein four subgroup
        ("q8", None, 2),  # <i>
    ]
    s4, _ = load_preset("s4")
    a4_in_s4 = (s4.index_of_perm((1, 2, 0, 3)), s4.index_of_perm((0, 2, 3, 1)))
    frozen.append(("s4", a4_in_s4, 2))  # alternating subgroup
    for name, gens, want in frozen:
        _, _, cs = _space(name, gens)
        ok &= standard_ring(cs, Q).dim == want
    ok &= worst < 1.0
    _line(1, ok, f"structure constants on {len(PRESET_PAIRS)} pairs, worst pair {worst:.3f}s")
    assert ok


def test_criterion_2_separability_all_fields():
    """Ring axioms with the separability section over q, fp:2, fp:3, fp:5."""
    worst = 0.0
    ok = True
    cases = 0
    for name in PRESET_PAIRS:
        _, _, cs = _space(name)
        for spec in DEFAULT_FIELDS:
            t0 = time.perf_counter()
            ring = standard_ring(cs, parse_field(spec))
            ok &= ring_axiom_failures(ring) == []
            worst = max(worst, time.perf_counter() - t0)
            cases += 1
    ok &= worst < 1.0
    _line(2, ok, f"separability on {cases} cases, worst case {worst:.3f}s")
    assert ok


def _suite_criterion(checks, budget):
    worst = 0.0
    ok = True
    for name in PRESET_PAIRS:
        cfg = SuiteConfig(group=name, field="q", seed=0, family_size=10, checks=checks)
        t0 = time.perf_counter()
        report = run_suite(cfg)
        worst = max(worst, time.perf_counter() - t0)
        ok &= report.passed
    if budget is not None:
        ok &= worst < budget
    return ok, worst


def test_criterion_3_counit_section_and_triangles():
    ok, worst = _suite_criterion(("triangle_identities", "counit_section"), 5.0)
    _line(3, ok, f"section and triangles on 10 pairs, worst pair {worst:.3f}s")
    assert ok


def test_criterion_4_projection_formula():
    ok, worst = _suite_criterion(("projection_formula",), 10.0)
    _line(4, ok, f"projection formula on 10 pairs, worst pair {worst:.3f}s")
    assert ok


def test_criterion_5_monad_morphism():
    ok, worst = _suite_criterion(("monad_morphism",), None)
    _line(5, ok, f"monad morphism diagrams on 10 pairs, worst pair {worst:.3f}s")
    assert ok


def test_criterion_6_equivalence_and_full_matrix():
    checks = (
        "module_idempotent",
        "em_unit_roundtrip",
        "em_counit_roundtrip",
        "extension_of_scalars",
    )
    ok, worst = _suite_criterion(checks, 60.0)
    t0 = time.perf_counter()
    rows = run_matrix(DEFAULT_PAIRS, DEFAULT_FIELDS, seed=0, family_size=10)
    matrix_seconds = time.perf_counter() - t0
    ok &= all(row["passed"] for row in rows)
    ok &= len(rows) == len(DEFAULT_PAIRS) * len(DEFAULT_FIELDS)
    ok &= matrix_seconds < 900.0
    _line(6, ok,
          f"equivalence checks worst pair {worst:.3f}s, "
          f"full {len(rows)}-case matrix {matrix_seconds:.1f}s")
    assert ok


def test_criterion_7_mutation_smoke():
    cfg = SuiteConfig(group="s3", field="q", seed=0, family_size=10)
    ok = True
    details = []
    for corruption in CORRUPTIONS:
        report = mutation_smoke(cfg, corruption)
        failed = [c for c in report.checks if c.status != "pass"]
        detected = bool(failed) and failed[0].witness is not None
        if detected:
            witness = failed[0].witness
            detected &= bool(witness["kind"]) and bool(witness["context"])
            json.dumps(witness)  # witness must be serializable for replay
            replay = report.to_dict()["env"]
            detected &= replay["seed"] == 0 and replay["group"] == "s3"
        ok &= detected
        details.append(f"{corruption}:{'hit' if detected else 'MISS'}")
    _line(7, ok, "corruptions " + ", ".join(details))
    assert ok


def test_criterion_8_determinism():
    cfg = SuiteConfig(group="s3", field="fp:3", seed=5, family_size=10)
    a = run_suite(cfg).to_dict()
    b = run_suite(cfg).to_dict()
    for rep in (a, b):
        for check in rep["checks"]:
            check.pop("ms")
    ok = json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    _line(8, ok, "two identical runs agree modulo timing")
    assert ok
