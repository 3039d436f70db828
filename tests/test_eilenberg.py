"""Modules over the coset ring and the comparison equivalence."""

import hashlib

import pytest

from sepmonad.eilenberg import (
    AModule,
    EMError,
    em_comparison,
    em_counit_iso,
    em_inverse_split,
    em_mor,
    em_unit_iso,
    extension_of_scalars_iso,
    free_module,
    module_axiom_failures,
    require_module_map,
    separable_summand,
    split_idempotent,
)
from sepmonad import eilenberg, exactlin
from sepmonad.exactlin import (
    Field,
    GF,
    Matrix,
    column_factor,
    hstack,
    mat_kron,
    mat_mul,
    mat_sub,
    nullspace_basis,
    parse_field,
    vstack,
)
from sepmonad.groups import right_cosets, subgroup_generated
from sepmonad.monadring import standard_ring
from sepmonad.presets import load_preset, preset_names
from sepmonad.repcat import (
    Morphism,
    Rep,
    RepError,
    identity_mor,
    random_hom,
    random_rep,
    unit_rep,
    zero_mor,
)
from sepmonad.suite import SuiteConfig, run_suite

Q = Field(0)


def _setup(name, field=Q, gens=None):
    group, default = load_preset(name)
    h = subgroup_generated(group, default if gens is None else gens)
    cs = right_cosets(group, h)
    return cs, standard_ring(cs, field)


def test_comparison_of_trivial_is_ring_as_module():
    cs, ring = _setup("s3")
    one_h = unit_rep(cs.subgroup, Q)
    e1 = em_comparison(one_h, cs, ring)
    assert e1.dim == cs.index
    assert e1.action == ring.mul


def test_free_module_on_trivial_recovers_unit_dim():
    cs, ring = _setup("s3")
    free = free_module(ring, unit_rep(cs.group, Q))
    assert free.dim == cs.index
    img = em_inverse_split(free, cs)[0]
    assert img.dim == 1


def test_module_axioms_of_comparison_and_free():
    cs, ring = _setup("s3")
    n = random_rep(cs.subgroup, Q, seed=1, budget=2)
    assert module_axiom_failures(em_comparison(n, cs, ring)) == []
    y = random_rep(cs.group, Q, seed=2, budget=2)
    assert module_axiom_failures(free_module(ring, y)) == []


def test_invalid_action_rejected():
    cs, ring = _setup("s3")
    y = random_rep(cs.group, Q, seed=3, budget=2)
    free = free_module(ring, y)
    rho = free.action
    nums = list(rho.nums)
    nums[0] += rho.den
    bad = Matrix.from_flat(Q, rho.rows, rho.cols, nums, rho.den)
    with pytest.raises(Exception):
        AModule(ring, free.carrier, bad).require_valid()


def test_split_idempotent_identity_and_zero():
    cs, _ = _setup("s3")
    x = random_rep(cs.subgroup, Q, seed=4, budget=3)
    img, p, m = split_idempotent(identity_mor(x))
    assert img.dim == x.dim
    assert mat_mul(p.matrix, m.matrix).is_identity()
    img0, p0, m0 = split_idempotent(zero_mor(x, x))
    assert img0.dim == 0
    assert p0.matrix.rows == 0 and m0.matrix.cols == 0


def test_split_idempotent_refuses_a_map_between_two_reps():
    cs, _ = _setup("s3")
    x = random_rep(cs.subgroup, Q, seed=4, budget=3)
    # the same matrices, but a second rep object as target
    y = Rep(x.carrier, x.field, x.mat, x.dim)
    with pytest.raises(EMError, match="^idempotent must be an endomorphism of one representation$"):
        split_idempotent(Morphism(x, y, Matrix.identity(Q, x.dim)))


def test_module_tags_name_their_source_rep():
    cs, ring = _setup("s3")
    y = random_rep(cs.group, Q, seed=2, budget=2)
    n = random_rep(cs.subgroup, Q, seed=1, budget=2)
    assert free_module(ring, y).tag == f"free[{y.tag}]"
    assert em_comparison(n, cs, ring).tag == f"E[{n.tag}]"


def test_em_unit_iso_refuses_a_module_whose_idempotent_is_not_one():
    # split_idempotent trusts e; em_inverse_split is where e . e = e is checked
    cs, ring = _setup("c2")
    n = Rep(cs.subgroup, Q, lambda h: Matrix.from_rows(Q, [[2]]), 1)
    with pytest.raises(EMError, match=r"^module idempotent law fails: e \. e = e$") as info:
        em_unit_iso(n, cs, ring)
    [(name, e2, e)] = info.value.failures
    assert name == "e . e = e"
    assert e == Matrix.from_rows(Q, [[2, 0], [0, 0]])
    assert e2 == mat_mul(e, e) == Matrix.from_rows(Q, [[4, 0], [0, 0]])


def test_em_inverse_split_runs_one_elimination(monkeypatch):
    cs, ring = _setup("s3")
    mod = em_comparison(random_rep(cs.subgroup, Q, seed=0, budget=2), cs, ring)
    calls = []
    real = exactlin._rref
    monkeypatch.setattr(exactlin, "_rref", lambda *a: calls.append(a) or real(*a))
    em_inverse_split(mod, cs)
    assert len(calls) == 1


def test_em_inverse_split_does_not_rerun_the_module_axioms(monkeypatch):
    # the module was certified where it was built; splitting it checks only e
    cs, ring = _setup("s3")
    mod = em_comparison(random_rep(cs.subgroup, Q, seed=0, budget=2), cs, ring)
    calls = []
    real = eilenberg.module_axiom_failures
    monkeypatch.setattr(eilenberg, "module_axiom_failures", lambda m: calls.append(m) or real(m))
    em_inverse_split(mod, cs)
    assert calls == []


@pytest.mark.parametrize("spec", ["q", "fp:2"])
def test_free_modules_are_not_checked_again(monkeypatch, spec):
    # a free module's axioms are its certified ring's laws; the modules
    # that em_comparison and separable_summand build are still checked
    cs, ring = _setup("s3", parse_field(spec))
    checked, free = [], []
    real_axioms, real_free = eilenberg.module_axiom_failures, eilenberg.free_module
    monkeypatch.setattr(eilenberg, "module_axiom_failures",
                        lambda m: checked.append(m) or real_axioms(m))
    monkeypatch.setattr(eilenberg, "free_module",
                        lambda *args: free.append(real_free(*args)) or free[-1])
    y = random_rep(cs.group, ring.field, seed=2, budget=2)
    eilenberg.free_module(ring, y)
    extension_of_scalars_iso(y, cs, ring)
    mod = em_comparison(random_rep(cs.subgroup, ring.field, seed=1, budget=2), cs, ring)
    summand = separable_summand(mod)
    assert len(free) == 3 and len(checked) == 3
    # the comparison module of Res y, then mod and its summand
    assert checked[0].tag.startswith("E[")
    assert checked[1] is mod and checked[2] is summand
    assert not any(m is f for m in checked for f in free)


def test_module_idempotent_splits():
    cs, ring = _setup("s3")
    for seed in range(3):
        n = random_rep(cs.subgroup, Q, seed=seed, budget=2)
        mod = em_comparison(n, cs, ring)
        img, p, m, e = em_inverse_split(mod, cs)
        assert mat_mul(p.matrix, m.matrix).is_identity()
        assert mat_mul(m.matrix, p.matrix) == e.matrix
        assert mat_mul(e.matrix, e.matrix) == e.matrix


def test_em_unit_roundtrip():
    cs, ring = _setup("s3")
    for seed in range(3):
        n = random_rep(cs.subgroup, Q, seed=seed, budget=2)
        mod, p, m, w1, w2 = em_unit_iso(n, cs, ring)
        assert mod.dim == cs.index * n.dim
        assert mat_mul(p.matrix, m.matrix).is_identity()
        assert mat_mul(w2.matrix, w1.matrix).is_identity()
        assert mat_mul(w1.matrix, w2.matrix).is_identity()


def test_em_counit_roundtrip_on_free_and_comparison():
    cs, ring = _setup("s3")
    y = random_rep(cs.group, Q, seed=6, budget=2)
    free = free_module(ring, y)
    phi, psi = em_counit_iso(free, em_inverse_split(free, cs), cs)
    assert mat_mul(phi, psi).is_identity()
    n = random_rep(cs.subgroup, Q, seed=7, budget=2)
    comparison = em_comparison(n, cs, ring)
    phi2, psi2 = em_counit_iso(comparison, em_inverse_split(comparison, cs), cs)
    assert mat_mul(psi2, phi2).is_identity()


def test_extension_of_scalars():
    cs, ring = _setup("s3")
    for seed in range(3):
        y = random_rep(cs.group, Q, seed=seed, budget=2)
        phi, psi = extension_of_scalars_iso(y, cs, ring)
        assert mat_mul(phi, psi).is_identity()
        assert mat_mul(psi, phi).is_identity()


def _zeroed(fn):
    """fn with its morphism replaced by the zero map between the same reps."""
    def zero(*args, **kwargs):
        f = fn(*args, **kwargs)
        return zero_mor(f.source, f.target)
    return zero


@pytest.mark.parametrize("field", [Q, GF(2)], ids=["q", "fp2"])
@pytest.mark.parametrize("iso,corrupt,message", [
    pytest.param("em_unit_iso", "counit_eps",
                 r"^unit round trip fails: w2 \. w1 = id_n, w1 \. w2 = id_image$", id="unit"),
    pytest.param("em_counit_iso", "unit_eta",
                 r"^counit round trip fails: phi \. psi = id_module, psi \. phi = id_comparison$",
                 id="counit"),
    pytest.param("extension_of_scalars_iso", "projection_pi_inverse",
                 r"^extension of scalars round trip fails: pi \. pi_inv = id, pi_inv \. pi = id$",
                 id="extension"),
])
def test_round_trip_witness_is_the_composite_against_identity(monkeypatch, field, iso, corrupt,
                                                              message):
    cs, ring = _setup("s3", field)
    free = free_module(ring, random_rep(cs.group, field, seed=1, budget=2))
    args = {
        "em_unit_iso": (random_rep(cs.subgroup, field, seed=0, budget=2), cs, ring),
        "em_counit_iso": (free, em_inverse_split(free, cs), cs),
        "extension_of_scalars_iso": (random_rep(cs.group, field, seed=1, budget=2), cs, ring),
    }[iso]
    monkeypatch.setattr(eilenberg, corrupt, _zeroed(getattr(eilenberg, corrupt)))
    with pytest.raises(EMError, match=message) as err:
        getattr(eilenberg, iso)(*args)
    # a zero map fails both composites, each recorded against the identity
    assert len(err.value.failures) == 2
    for _, lhs, rhs in err.value.failures:
        assert (lhs.rows, lhs.cols) == (rhs.rows, rhs.cols)
        assert not any(lhs.nzrows) and rhs.is_identity()


@pytest.mark.parametrize("field", ["q", "fp:2"])
def test_suite_reports_the_library_round_trip_witness(monkeypatch, field):
    """Each EM check fails under its own kind with the library's (0, I) pair."""
    for corrupt, cid, context in (
        ("counit_eps", "em_unit_roundtrip",
         "rep rand[1|seed=0|h0]: unit round trip fails: w2 . w1 = id_n, w1 . w2 = id_image"),
        ("unit_eta", "em_counit_roundtrip",
         "module free[rand[1|seed=0|mf0]]: counit round trip fails: "
         "phi . psi = id_module, psi . phi = id_comparison"),
        ("projection_pi_inverse", "extension_of_scalars",
         "rep rand[1|seed=0|e0]: extension of scalars round trip fails: "
         "pi . pi_inv = id, pi_inv . pi = id"),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(eilenberg, corrupt, _zeroed(getattr(eilenberg, corrupt)))
            cfg = SuiteConfig(group="s3", field=field, family_size=3, checks=(cid,))
            [check] = run_suite(cfg).checks
        witness = check.witness
        assert (check.status, witness["kind"]) == ("fail", cid)
        assert witness["context"] == context
        lhs, rhs = witness["lhs"], witness["rhs"]
        d = rhs["rows"]
        assert (lhs["rows"], lhs["cols"], rhs["cols"]) == (d, d, d)
        assert not any(lhs["nums"])
        assert (rhs["den"], rhs["nums"]) == (1, [int(i == j) for i in range(d) for j in range(d)])


@pytest.mark.parametrize("name,p", [("c4", 2), ("s3", 3), ("q8", 2)])
def test_modular_em_equivalence(name, p):
    """The equivalence survives characteristic dividing the group order."""
    cs, ring = _setup(name, GF(p))
    n = random_rep(cs.subgroup, GF(p), seed=0, budget=2)
    *_, w1, w2 = em_unit_iso(n, cs, ring)
    assert mat_mul(w2.matrix, w1.matrix).is_identity()
    y = random_rep(cs.group, GF(p), seed=1, budget=2)
    free = free_module(ring, y)
    phi, psi = em_counit_iso(free, em_inverse_split(free, cs), cs)
    assert mat_mul(phi, psi).is_identity()
    phi2, psi2 = extension_of_scalars_iso(y, cs, ring)
    assert mat_mul(phi2, psi2).is_identity()


def test_em_mor_functoriality():
    cs, ring = _setup("s3")
    n1 = random_rep(cs.subgroup, Q, seed=8, budget=2)
    n2 = random_rep(cs.subgroup, Q, seed=9, budget=2)
    e1, e2 = em_comparison(n1, cs, ring), em_comparison(n2, cs, ring)
    f = random_hom(n1, n2, seed=10)
    ef = em_mor(f, cs, e1, e2)
    assert ef.rows == cs.index * n2.dim
    g = random_hom(n2, n1, seed=11)
    eg = em_mor(g, cs, e2, e1)
    comp = em_mor(Morphism(n1, n1, mat_mul(g.matrix, f.matrix)), cs, e1, e1)
    assert mat_mul(eg, ef) == comp


def test_module_map_between_modules_over_different_rings_is_refused():
    # the identity is a module map of either free module to itself, but two
    # RingObjects are two rings even when built alike
    cs, ring = _setup("s3")
    one = unit_rep(cs.group, Q)
    source, target = free_module(ring, one), free_module(standard_ring(cs, Q), one)
    eye = Matrix.identity(Q, source.dim)
    require_module_map(source, source, eye)
    with pytest.raises(EMError, match="^modules live over different rings$"):
        require_module_map(source, target, eye)


def test_non_equivariant_module_map_is_refused():
    # multiplying by (2, 1, 1) in A = k(G/H) is A-linear, but G moves the cosets
    cs, ring = _setup("s3")
    free = free_module(ring, unit_rep(cs.group, Q))
    d = free.dim
    scale = Matrix.from_rows(Q, [[(1 + (i == 0)) * (i == j) for j in range(d)] for i in range(d)])
    with pytest.raises(RepError, match="^equivariance fails at generator "):
        require_module_map(free, free, scale)


def _flat_column(m):
    """m read row-major as one column."""
    return Matrix.from_flat(m.field, m.rows * m.cols, 1, m.nums, m.den)


def _module_map_oracle(m1, m2):
    """Basis columns (T flattened row-major) of the A-linear G-maps m1 -> m2.

    Built independently of the hom-space solvers: the constraint matrix is
    the image of T |-> (T rho1 - rho2 (I_A (x) T), T x1(g) - x2(g) T) on each
    elementary matrix T, one column per T.
    """
    field = m1.carrier.field
    d1, d2 = m1.dim, m2.dim
    eye_a = Matrix.identity(field, m1.ring.dim)
    rho1, rho2 = m1.action, m2.action
    gens = m1.carrier.carrier.gens
    cols = []
    for i in range(d2):
        for j in range(d1):
            t = Matrix.from_flat(field, d2, d1, [int(k == i * d1 + j) for k in range(d2 * d1)])
            parts = [mat_sub(mat_mul(t, rho1), mat_mul(rho2, mat_kron(eye_a, t)))]
            parts += [mat_sub(mat_mul(t, m1.carrier.mat(g)), mat_mul(m2.carrier.mat(g), t))
                      for g in gens]
            cols.append(vstack(_flat_column(m) for m in parts))
    return nullspace_basis(hstack(cols))


def _rank(m):
    return column_factor(m)[0].cols


def _summand_with_split(monkeypatch, mod):
    """separable_summand(mod) with the idempotent e and the splitting p, m it used."""
    seen = []
    real = eilenberg.split_idempotent

    def spy(e):
        seen.append((e, real(e)))
        return seen[-1][1]

    with monkeypatch.context() as patch:
        patch.setattr(eilenberg, "split_idempotent", spy)
        summand = separable_summand(mod)
    [(e, (img, p, m))] = seen
    assert summand.carrier is img
    return summand, e.matrix, p.matrix, m.matrix


def _seed_zero_comparison(name, field):
    cs, ring = _setup(name, field)
    return cs, em_comparison(random_rep(cs.subgroup, field, seed=0, budget=2), cs, ring)


@pytest.mark.parametrize("field", [Q, GF(2)], ids=["q", "fp2"])
@pytest.mark.parametrize("name", ["s3", "c4", "a4"])
def test_separability_idempotent_is_a_module_map(monkeypatch, name, field):
    """e lies in the brute-force span of the A-linear G-maps A (x) M -> A (x) M."""
    _, mod = _seed_zero_comparison(name, field)
    _, e, _, _ = _summand_with_split(monkeypatch, mod)
    free = free_module(mod.ring, mod.carrier)
    oracle = _module_map_oracle(free, free)
    assert _rank(hstack([oracle, _flat_column(e)])) == oracle.cols


@pytest.mark.parametrize("spec", ["q", "fp:2"])
@pytest.mark.parametrize("name", preset_names())
def test_separable_summand_splits_off_the_module(monkeypatch, name, spec):
    """The summand has M's dimension, and p . m = I, m . p = e split it off A (x) M."""
    _, mod = _seed_zero_comparison(name, parse_field(spec))
    summand, e, p, m = _summand_with_split(monkeypatch, mod)
    assert summand.dim == mod.dim
    assert (e.rows, e.cols) == (mod.ring.dim * mod.dim,) * 2
    assert mat_mul(p, m).is_identity()
    assert mat_mul(m, p) == e
    assert module_axiom_failures(summand) == []


@pytest.mark.parametrize("field", [Q, GF(2), GF(3)], ids=["q", "fp2", "fp3"])
def test_separability_idempotent_of_the_ring_is_sigma_mu(monkeypatch, field):
    """On M = E(1_H), whose action is mu, e is the separability idempotent sigma . mu."""
    cs, ring = _setup("s4", field)
    _, e, _, _ = _summand_with_split(monkeypatch, em_comparison(unit_rep(cs.subgroup, field),
                                                                 cs, ring))
    assert e == mat_mul(ring.section, ring.mul)


# sha256 of separable_summand(E(n)) for the seed-0 rep n of H (its action
# matrix and the matrix of every group element on its carrier): the summand
# must not change from one version to the next.
_SUMMAND_DIGESTS = {
    ("a4", "q"): "00c2bb9578df93fc3a4829d5b9bd83fbd49371c1eab83dc55d2f64120d7a9f78",
    ("a4", "fp:2"): "668795923751636a9d0bf9a4d6e49c21cf9a08ea9930e7e5154a105af7b6649c",
    ("a4", "fp:3"): "e8f9559e9e86c2213f72e499bd408b75ae7230bf8034edadfc7de4ffca991d66",
    ("c2", "q"): "e2c449d9771fdb7053e7d656241a6c5efe649db77d825a911d7ac50cb421b8b9",
    ("c2", "fp:2"): "e2c449d9771fdb7053e7d656241a6c5efe649db77d825a911d7ac50cb421b8b9",
    ("c2", "fp:3"): "e2c449d9771fdb7053e7d656241a6c5efe649db77d825a911d7ac50cb421b8b9",
    ("c3", "q"): "a3d817e84f56081eb7e28dde76b19a044211d5c5c40d081c59609cfa96618b92",
    ("c3", "fp:2"): "a3d817e84f56081eb7e28dde76b19a044211d5c5c40d081c59609cfa96618b92",
    ("c3", "fp:3"): "a3d817e84f56081eb7e28dde76b19a044211d5c5c40d081c59609cfa96618b92",
    ("c4", "q"): "a8e3911663e97189b97fad1244578830314939fb4e1918345ec4e514a87c793e",
    ("c4", "fp:2"): "a8e3911663e97189b97fad1244578830314939fb4e1918345ec4e514a87c793e",
    ("c4", "fp:3"): "a8e3911663e97189b97fad1244578830314939fb4e1918345ec4e514a87c793e",
    ("c6", "q"): "3c1d77c0ed797b5e5c54902214d685774bde7514ab256aaf0fa293301fab0e48",
    ("c6", "fp:2"): "3c1d77c0ed797b5e5c54902214d685774bde7514ab256aaf0fa293301fab0e48",
    ("c6", "fp:3"): "3c1d77c0ed797b5e5c54902214d685774bde7514ab256aaf0fa293301fab0e48",
    ("d4", "q"): "6e392fbf79cb693b08126d4e8cb331f56372084172e65750b621537381351a72",
    ("d4", "fp:2"): "6e392fbf79cb693b08126d4e8cb331f56372084172e65750b621537381351a72",
    ("d4", "fp:3"): "6e392fbf79cb693b08126d4e8cb331f56372084172e65750b621537381351a72",
    ("q8", "q"): "16313d2bae11c230ee0b026e1db05cdcc73f5c896d1c1beeee01e9b8678259a7",
    ("q8", "fp:2"): "16313d2bae11c230ee0b026e1db05cdcc73f5c896d1c1beeee01e9b8678259a7",
    ("q8", "fp:3"): "16313d2bae11c230ee0b026e1db05cdcc73f5c896d1c1beeee01e9b8678259a7",
    ("s3", "q"): "0e91304360a65f1286015e8f83ec69cba8816e6fea943cdf393ae25fa4a9cc11",
    ("s3", "fp:2"): "0e91304360a65f1286015e8f83ec69cba8816e6fea943cdf393ae25fa4a9cc11",
    ("s3", "fp:3"): "0e91304360a65f1286015e8f83ec69cba8816e6fea943cdf393ae25fa4a9cc11",
    ("s4", "q"): "6861d88a5f82769b9ce861f404ff139944e1697aed25599065fee196b53e1ff5",
    ("s4", "fp:2"): "6861d88a5f82769b9ce861f404ff139944e1697aed25599065fee196b53e1ff5",
    ("s4", "fp:3"): "6861d88a5f82769b9ce861f404ff139944e1697aed25599065fee196b53e1ff5",
    ("v4", "q"): "0a7935b1d6c9e3e3ac2f1912e081b040769161d96306626bf25ee41f7eec9e55",
    ("v4", "fp:2"): "0a7935b1d6c9e3e3ac2f1912e081b040769161d96306626bf25ee41f7eec9e55",
    ("v4", "fp:3"): "0a7935b1d6c9e3e3ac2f1912e081b040769161d96306626bf25ee41f7eec9e55",
}


@pytest.mark.parametrize("name, spec", sorted(_SUMMAND_DIGESTS))
def test_separable_summands_are_frozen(name, spec):
    cs, mod = _seed_zero_comparison(name, parse_field(spec))
    found = separable_summand(mod)
    digest = hashlib.sha256()
    for m in [found.action] + [found.carrier.mat(g) for g in cs.group.elements]:
        digest.update(repr((m.rows, m.cols, m.den, m.nums)).encode())
    assert digest.hexdigest() == _SUMMAND_DIGESTS[name, spec]
