"""The full verification suite for one (group, subgroup, field) case.

Builds seeded families of representations, morphisms, modules, and monads
and machine-checks every structural identity as exact matrix equality, in
dependency order: group axioms first, the module equivalence last.  A check
stops at its first failed identity and carries it as a serialized witness.
Reports are deterministic for a fixed configuration and tool version; only
the timing fields vary.
"""

import json
import os
import time
from collections import namedtuple
from contextlib import contextmanager
from functools import cached_property

from ._version import __version__
from .backend import backend_name
from .exactlin import IdentityError, Matrix, inverse_failures, mat_kron, mat_mul, parse_field
from .groups import (
    GroupError,
    group_from_cayley_table,
    load_group_json,
    right_cosets,
    subgroup_closure,
    subgroup_generated,
)
from .repcat import (
    Morphism,
    Rep,
    RepError,
    compose,
    identity_mor,
    random_hom,
    random_rep,
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
    ind_counit,
    lax_iota,
    lax_lambda,
    lax_lambda_composite,
    projection_pi,
    projection_pi_inverse,
    section_xi,
    unit_eta,
)
from .monadring import (
    RingObject,
    monad_from_adjunction,
    monad_from_ring,
    monad_law_failures,
    monad_morphism_failures,
    monad_separability_failures,
    standard_ring,
)
from .eilenberg import (
    em_comparison,
    em_counit_iso,
    em_inverse_split,
    em_mor,
    em_unit_iso,
    extension_of_scalars_iso,
    free_module,
    separable_summand,
)
from .presets import load_preset, preset_names

REPORT_VERSION = 3

CORRUPTIONS = ("ring_mul", "xi_block", "rep_action")

_DOMAIN_ERRORS = (GroupError, RepError, IdentityError)

# Matrices above this entry count are reported by digest, not by value, and
# a digested pair of one shape by the first row where it differs, its
# nonzeros cut at _WITNESS_ROW_CAP.
_WITNESS_ENTRY_CAP = 4096
_WITNESS_ROW_CAP = 16


class ConfigError(ValueError):
    """The requested configuration cannot be built."""


class InternalError(RuntimeError):
    """A check crashed in a way that is a bug, not a failed identity."""


class _Failed(Exception):
    """The first failed identity of a check, carrying its witness."""

    def __init__(self, witness):
        super().__init__(witness["context"])
        self.witness = witness


# Named tuples, not dataclasses: a verdict then never imports ``dataclasses``
# and ``inspect``.  Derive a changed config with ``cfg._replace(...)``.
SuiteConfig = namedtuple(
    "SuiteConfig", "group subgroup field seed family_size checks corruption",
    defaults=("s3", None, "q", 0, 10, (), None),
)

CheckResult = namedtuple("CheckResult", "id status witness ms")


class SuiteReport:
    def __init__(self, env, checks):
        self.env = env
        self.checks = checks

    @property
    def passed(self):
        return all(c.status == "pass" for c in self.checks)

    def to_dict(self):
        return {
            "version": REPORT_VERSION,
            "env": self.env,
            "checks": [
                {"id": c.id, "status": c.status, "witness": c.witness, "ms": c.ms}
                for c in self.checks
            ],
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2)

    def header(self):
        """The first line of the text report: the case that was verified."""
        e = self.env
        return (f"verify group={e['group']} |G|={e['group_order']} |H|={e['subgroup_order']} "
                f"index={e['index']} field={e['field']} seed={e['seed']} "
                f"family={e['family_size']} backend={e['backend']}")

    def to_text(self):
        lines = [self.header()]
        for c in self.checks:
            lines.append(f"  [{'PASS' if c.status == 'pass' else 'FAIL'}] {c.id:<24} {c.ms:9.1f} ms")
            if c.witness is not None:
                lines.append(f"         witness: {c.witness.get('kind')}: {c.witness.get('context')}")
        done = sum(1 for c in self.checks if c.status == "pass")
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'} ({done}/{len(self.checks)} checks)")
        return "\n".join(lines)


def _mat_payload(m):
    """A witness matrix: its entries up to the cap, above it a digest of its rows.

    The digest reads the canonical sparse rows, so it costs one pass over
    the nonzeros, and equal matrices share it.
    """
    if m is None:
        return None
    if m.rows * m.cols <= _WITNESS_ENTRY_CAP:
        return {"rows": m.rows, "cols": m.cols, "den": m.den, "nums": list(m.nums)}
    import hashlib

    rows = [sorted(row.items()) for row in m.nzrows]
    digest = hashlib.sha256(repr((m.rows, m.cols, m.den, rows)).encode()).hexdigest()
    return {"rows": m.rows, "cols": m.cols, "den": m.den, "sha256": digest}


def _row_diff(lhs, rhs):
    """Where a digested pair of one shape differs, or None.

    The number of differing rows, the first one, and both sides' nonzeros
    in it as [column, numerator] pairs over each side's den, capped.  None
    for a pair below the entry cap, of two shapes, or with no differing row.
    """
    if (lhs is None or rhs is None or (lhs.rows, lhs.cols) != (rhs.rows, rhs.cols)
            or lhs.rows * lhs.cols <= _WITNESS_ENTRY_CAP):
        return None
    # x / a = y / b entrywise, for rows x and y over the dens a and b
    a, b = lhs.den, rhs.den
    differ = [i for i, (x, y) in enumerate(zip(lhs.nzrows, rhs.nzrows))
              if x.keys() != y.keys() or any(v * b != y[j] * a for j, v in x.items())]
    if not differ:
        return None
    i = differ[0]
    lhs_row, rhs_row = ([[j, v] for j, v in sorted(m.nzrows[i].items())[:_WITNESS_ROW_CAP]]
                        for m in (lhs, rhs))
    return {"rows_differing": len(differ), "first_row": i, "lhs_row": lhs_row, "rhs_row": rhs_row}


def _witness(kind, context, lhs=None, rhs=None, **extra):
    w = {"kind": kind, "context": context}
    if lhs is not None or rhs is not None:
        w["lhs"] = _mat_payload(lhs)
        w["rhs"] = _mat_payload(rhs)
        diff = _row_diff(lhs, rhs)
        if diff is not None:
            w["diff"] = diff
    for k, v in extra.items():
        w[k] = v
    return w


def _witness_from_error(kind, context, exc):
    if isinstance(exc, GroupError):
        return _witness(kind, f"{context}: {exc}", violations=exc.violations[:8])
    # the message names every failed identity; the first one is the witness
    _, lhs, rhs = (getattr(exc, "failures", None) or [(None, None, None)])[0]
    return _witness(kind, f"{context}: {exc}", lhs, rhs)


# The seeded families.  A rep family is name -> (side, seed key, budget cycle,
# count rule on the family size): rep i has seed f"{seed}|{key}{i}" and budget
# cycle[i % len(cycle)].  A map family is name -> (rep family, seed key): map i
# goes rep i -> rep i + 1, the last back to rep 0, with seed f"{seed}|{key}{i}".
_REP_FAMILIES = {
    "hreps": ("H", "h", (1, 2, 3, 4, 6, 8, 12), lambda n: n),
    "greps": ("G", "g", (1, 2, 3, 4, 6, 8), lambda n: max(3, n // 2)),
    "lam_reps": ("H", "l", (1, 2, 3, 4), lambda n: max(3, min(6, n))),
    "mm_objs": ("G", "mm", (1, 2, 3, 4, 6, 8, 12), lambda n: n),
    "monad_objs": ("G", "mo", (1, 2, 3, 4, 6, 8), lambda n: max(3, n // 2)),
    "ext_reps": ("G", "e", (1, 2, 3, 4), lambda n: max(3, n // 2)),
}
_MAP_FAMILIES = {
    "hmors": ("hreps", "hm"),
    "gmors": ("greps", "gm"),
    "lam_homs": ("lam_reps", "lm"),
    "ext_homs": ("ext_reps", "em"),
}


class Ctx:
    """Shared case state: the group data, field, and seeded families.

    Families are cached lazily, so a restricted check selection pays only for
    what it reads; the seeded reps and maps are declared in ``_REP_FAMILIES``
    and ``_MAP_FAMILIES``.  All randomness is derived from the seed, so two
    runs of the same configuration build identical objects.
    """

    def __init__(self, cfg):
        if cfg.family_size < 1:
            raise ConfigError("family size must be at least 1")
        if cfg.corruption is not None and cfg.corruption not in CORRUPTIONS:
            raise ConfigError(f"unknown corruption {cfg.corruption!r}; pick from {CORRUPTIONS}")
        for cid in cfg.checks:
            if cid not in CHECK_IDS:
                raise ConfigError(f"unknown check id {cid!r}; pick from {', '.join(CHECK_IDS)}")
        try:
            self.field = parse_field(cfg.field)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        try:
            if cfg.group in preset_names():
                group, default_sub = load_preset(cfg.group)
            elif os.path.exists(cfg.group):
                try:
                    group, default_sub = load_group_json(cfg.group), None
                except (OSError, ValueError) as exc:
                    raise ConfigError(f"cannot read group file {cfg.group!r}: {exc}") from exc
            else:
                raise ConfigError(
                    f"group {cfg.group!r} is neither a preset ({', '.join(preset_names())}) "
                    "nor an existing file"
                )
            sub_gens = cfg.subgroup if cfg.subgroup is not None else default_sub
            if sub_gens is None:
                sub_gens = group.gens
            self.group = group
            self.h = subgroup_generated(group, tuple(sub_gens))
            self.cs = right_cosets(group, self.h)
        except GroupError as exc:
            raise ConfigError(f"cannot build the requested case: {exc}") from exc
        self.cfg = cfg
        self.seed = cfg.seed
        self.corruption = cfg.corruption

    def enabled(self, cid):
        return not self.cfg.checks or cid in self.cfg.checks

    def env(self):
        return {
            "group": self.cfg.group,
            "group_order": self.group.order,
            "subgroup": list(self.h.gens),
            "subgroup_order": self.h.order,
            "index": self.cs.index,
            "field": self.field.spec(),
            "seed": self.seed,
            "family_size": self.cfg.family_size,
            "tool_version": __version__,
            "backend": backend_name(),
        }

    # ---- seeded families ----

    def _reps(self, carrier, key, budgets, count):
        """``count`` seeded reps of ``carrier``, rep i of budget ``budgets[i % len(budgets)]``."""
        return [
            random_rep(carrier, self.field, f"{self.seed}|{key}{i}", budgets[i % len(budgets)])
            for i in range(count)
        ]

    def _rep_family(self, name):
        side, key, budgets, count = _REP_FAMILIES[name]
        carrier = self.group if side == "G" else self.h
        return self._reps(carrier, key, budgets, count(self.cfg.family_size))

    def _map_family(self, name):
        reps_name, key = _MAP_FAMILIES[name]
        reps = getattr(self, reps_name)
        return [random_hom(x, reps[(i + 1) % len(reps)], f"{self.seed}|{key}{i}")
                for i, x in enumerate(reps)]

    @cached_property
    def hreps(self):
        out = self._rep_family("hreps")
        if self.corruption == "rep_action":
            out[0] = _corrupt_rep(out[0])
        return out

    hmors = cached_property(lambda self: self._map_family("hmors"))
    greps = cached_property(lambda self: self._rep_family("greps"))
    gmors = cached_property(lambda self: self._map_family("gmors"))
    lam_reps = cached_property(lambda self: self._rep_family("lam_reps"))
    lam_homs = cached_property(lambda self: self._map_family("lam_homs"))
    mm_objs = cached_property(lambda self: self._rep_family("mm_objs"))
    monad_objs = cached_property(lambda self: self._rep_family("monad_objs"))
    ext_reps = cached_property(lambda self: self._rep_family("ext_reps"))
    ext_homs = cached_property(lambda self: self._map_family("ext_homs"))

    @cached_property
    def pi_pairs(self):
        cyc = ((1, 2), (2, 1), (2, 3), (3, 2), (2, 2), (4, 3), (3, 4), (6, 2), (4, 4))
        budgets = [cyc[i % len(cyc)] for i in range(self.cfg.family_size - 1)]
        budgets.append((12, 12))
        ys = self._reps(self.h, "py", [by for by, _ in budgets], len(budgets))
        xs = self._reps(self.group, "px", [bx for _, bx in budgets], len(budgets))
        return list(zip(ys, xs))

    @cached_property
    def ring(self):
        ring = standard_ring(self.cs, self.field)
        if self.corruption == "ring_mul":
            ring = _corrupt_ring(ring)
        return ring

    @cached_property
    def modules(self):
        half = (self.cfg.family_size + 1) // 2
        cyc = (1, 2, 3, 4)
        out = [free_module(self.ring, y) for y in self._reps(self.group, "mf", cyc, half)]
        out += [em_comparison(n, self.cs, self.ring) for n in self._reps(self.h, "mc", cyc, half)]
        out.append(separable_summand(out[-1]))
        return out

    @cached_property
    def splits(self):
        """``em_inverse_split`` of each module, or the domain error it raised.

        Split once per case: ``module_idempotent`` and
        ``em_counit_roundtrip`` both read it.
        """
        out = []
        for mod in self.modules:
            try:
                out.append(em_inverse_split(mod, self.cs))
            except _DOMAIN_ERRORS as exc:
                out.append(exc)
        return out


def _with_first_entry(m, num):
    """m with the numerator of entry (0, 0) set to num, over the same den."""
    rows = list(m.nzrows)
    rows[0] = {**rows[0], 0: num}
    return Matrix(m.field, m.rows, m.cols, rows, den=m.den)


def _corrupt_rep(rep):
    """Flip one entry of the identity's action matrix; every other element keeps its own."""
    m = rep.mat(0)
    bad = _with_first_entry(m, m.nzrows[0].get(0, 0) + m.den)
    return Rep(rep.carrier, rep.field, lambda g: bad if g == 0 else rep.mat(g), rep.dim,
               tag=f"{rep.tag}|corrupted")


def _corrupt_ring(ring):
    """Zero the structure constant mu(e_0 (x) e_0)."""
    return RingObject(ring.carrier, _with_first_entry(ring.mul, 0), ring.unit, ring.section)


def _need(kind, context, lhs, rhs):
    if lhs != rhs:
        raise _Failed(_witness(kind, context, lhs, rhs))


def _need_identity(kind, context, mat):
    if not mat.is_identity():
        raise _Failed(_witness(kind, context, mat, Matrix.identity(mat.field, mat.rows)))


def _need_none(kind, before, failures, after=""):
    """Fail on the first (name, lhs, rhs) of a library failure list.

    Its witness context is ``before + name + after``.
    """
    if failures:
        name, lhs, rhs = failures[0]
        raise _Failed(_witness(kind, f"{before}{name}{after}", lhs, rhs))


@contextmanager
def _as_failure(kind, context):
    """A domain error raised in the block is the check's failed identity."""
    try:
        yield
    except _DOMAIN_ERRORS as exc:
        raise _Failed(_witness_from_error(kind, context, exc)) from exc


# ---- the thirteen checks ----
# Each returns when every identity holds and raises _Failed at the first
# one that does not.


def _check_group_axioms(ctx):
    g, h, cs = ctx.group, ctx.h, ctx.cs
    with _as_failure("group_axioms", "multiplication table"):
        group_from_cayley_table(g.table)
    for a in h.elements:
        if h.inverse(a) not in h:
            raise _Failed(_witness("group_axioms", f"subgroup not closed under inverse at {a}"))
        for b in h.elements:
            if h.mul(a, b) not in h:
                raise _Failed(_witness("group_axioms", f"subgroup not closed at ({a},{b})"))
    # CosetSpace already refuses a bad partition; recount |H| independently.
    if cs.index * len(subgroup_closure(g.mul, h.gens)) != g.order:
        raise _Failed(_witness("group_axioms", "index * |H| != |G|"))


def _check_rep_hom_sanity(ctx):
    for rep in ctx.hreps + ctx.greps:
        with _as_failure("rep_hom_sanity", f"rep {rep.tag}"):
            rep.require_valid()
    for i, f in enumerate(ctx.hmors + ctx.gmors):
        with _as_failure("rep_hom_sanity", f"morphism {i}"):
            f.require_valid()


def _check_triangle_identities(ctx):
    cs, h = ctx.cs, ctx.h
    etas = []
    for x in ctx.greps:
        rx = restrict(x, h)
        eta = unit_eta(x, cs)
        eps = counit_eps(rx, cs)
        _need_identity("triangle_counit_unit", f"eps . Res(eta) at {x.tag}",
                       mat_mul(eps.matrix, eta.matrix))
        c = ind_counit(x, cs)
        xi = section_xi(rx, cs)
        _need_identity("triangle_ind", f"Res(c) . xi at {x.tag}", mat_mul(c.matrix, xi.matrix))
        etas.append(eta)
    for n in ctx.hreps:
        cn = coind_obj(n, cs)
        ceps = coind_mor(counit_eps(n, cs), cs)
        eta_cn = unit_eta(cn, cs)
        _need_identity("triangle_unit_counit", f"Coind(eps) . eta at {n.tag}",
                       mat_mul(ceps.matrix, eta_cn.matrix))
        c_cn = ind_counit(cn, cs)
        cxi = coind_mor(section_xi(n, cs), cs)
        _need_identity("triangle_ind", f"c . Coind(xi) at {n.tag}",
                       mat_mul(c_cn.matrix, cxi.matrix))
    for i, f in enumerate(ctx.gmors):
        lhs = mat_mul(coind_mor(restrict_mor(f, h), cs).matrix, etas[i].matrix)
        rhs = mat_mul(etas[(i + 1) % len(etas)].matrix, f.matrix)
        _need("unit_naturality", f"gmor {i}", lhs, rhs)
    for i, f in enumerate(ctx.hmors):
        m, n = f.source, f.target
        lhs = mat_mul(counit_eps(n, cs).matrix, coind_mor(f, cs).matrix)
        rhs = mat_mul(f.matrix, counit_eps(m, cs).matrix)
        _need("counit_naturality", f"hmor {i}", lhs, rhs)


def _check_counit_section(ctx):
    cs = ctx.cs
    xis = []
    for i, n in enumerate(ctx.hreps):
        xi = section_xi(n, cs)
        if ctx.corruption == "xi_block" and i == 0:
            xi = Morphism(xi.source, xi.target, _with_first_entry(xi.matrix, 0))
        eps = counit_eps(n, cs)
        _need_identity("counit_section", f"eps . xi at {n.tag}", mat_mul(eps.matrix, xi.matrix))
        xis.append(xi)
    for i, f in enumerate(ctx.hmors):
        lhs = mat_mul(coind_mor(f, cs).matrix, xis[i].matrix)
        rhs = mat_mul(xis[(i + 1) % len(xis)].matrix, f.matrix)
        _need("section_naturality", f"hmor {i}", lhs, rhs)


def _check_lambda_laws(ctx):
    cs = ctx.cs
    field = ctx.field
    reps = ctx.lam_reps
    n = len(reps)
    one_h = unit_rep(ctx.h, field)
    iota = lax_iota(cs, field)
    for i, x in enumerate(reps):
        y = reps[(i + 1) % n]
        lam = lax_lambda(x, y, cs)
        comp = lax_lambda_composite(x, y, cs)
        _need("lambda_closed_form", f"pair ({x.tag},{y.tag})", lam.matrix, comp.matrix)
        cx = coind_obj(x, cs)
        eye_cx = Matrix.identity(field, cx.dim)
        left_unit = mat_mul(lax_lambda(one_h, x, cs).matrix, mat_kron(iota.matrix, eye_cx))
        _need_identity("lambda_left_unit", f"at {x.tag}", left_unit)
        right_unit = mat_mul(lax_lambda(x, one_h, cs).matrix, mat_kron(eye_cx, iota.matrix))
        _need_identity("lambda_right_unit", f"at {x.tag}", right_unit)
        # symmetry square: Coind(swap) . lambda = lambda' . swap
        lam_yx = lax_lambda(y, x, cs)
        cy = coind_obj(y, cs)
        tau_top = symmetry(cx, cy)
        tau_low = symmetry(x, y)
        lhs = mat_mul(coind_mor(tau_low, cs).matrix, lam.matrix)
        rhs = mat_mul(lam_yx.matrix, tau_top.matrix)
        _need("lambda_symmetry", f"pair ({x.tag},{y.tag})", lhs, rhs)
    x, y, z = reps[0], reps[1 % n], reps[2 % n]
    lam_xy = lax_lambda(x, y, cs)
    lam_yz = lax_lambda(y, z, cs)
    cxd = cs.index * x.dim
    czd = cs.index * z.dim
    lhs = mat_mul(
        lax_lambda(tensor_obj(x, y), z, cs).matrix,
        mat_kron(lam_xy.matrix, Matrix.identity(field, czd)),
    )
    rhs = mat_mul(
        lax_lambda(x, tensor_obj(y, z), cs).matrix,
        mat_kron(Matrix.identity(field, cxd), lam_yz.matrix),
    )
    _need("lambda_associativity", f"triple ({x.tag},{y.tag},{z.tag})", lhs, rhs)
    for i, f in enumerate(ctx.lam_homs):
        g = ctx.lam_homs[(i + 1) % n]
        # f: reps[i] -> reps[i+1], g: reps[i+1] -> reps[i+2]
        lam_src = lax_lambda(f.source, g.source, cs)
        lam_tgt = lax_lambda(f.target, g.target, cs)
        lhs = mat_mul(lam_tgt.matrix, tensor_mor(coind_mor(f, cs), coind_mor(g, cs)).matrix)
        rhs = mat_mul(coind_mor(tensor_mor(f, g), cs).matrix, lam_src.matrix)
        _need("lambda_naturality", f"homs ({i},{(i + 1) % n})", lhs, rhs)


def _check_projection_formula(ctx):
    cs, h = ctx.cs, ctx.h
    field = ctx.field
    for k, (y, x) in enumerate(ctx.pi_pairs):
        pi = projection_pi(y, x, cs)
        pinv = projection_pi_inverse(y, x, cs)
        _need_none("projection_invertible", "",
                   inverse_failures(pi.matrix, pinv.matrix, "pi . pi_inv", "pi_inv . pi"),
                   f" at pair {k}")
        # the defining composite lambda . (id (x) eta), from the library's maps
        composite = compose(lax_lambda(y, restrict(x, h), cs),
                            tensor_mor(identity_mor(coind_obj(y, cs)), unit_eta(x, cs)))
        _need("projection_closed_form", f"pair {k}", pi.matrix, composite.matrix)
        if y.dim * x.dim <= 6:
            with _as_failure("projection_equivariance", f"pair {k}"):
                pi.require_valid()
    for n in ctx.lam_reps[:2]:
        strict = coind_obj(tensor_obj(unit_rep(h, field), n), cs)
        plain = coind_obj(n, cs)
        for g in ctx.group.gens:
            _need("projection_strictness", f"Coind(1 (x) n) = Coind(n) at {n.tag}, g={g}",
                  strict.mat(g), plain.mat(g))


def _check_ring_axioms(ctx):
    cs = ctx.cs
    std = ctx.ring
    _need_none("ring_axioms", "standard ring: ", std.failures)
    if std.dim != cs.index:
        raise _Failed(_witness("ring_axioms", f"ring dimension {std.dim} != index {cs.index}"))


def _check_monad_morphism(ctx):
    for x in ctx.mm_objs:
        _need_none("monad_morphism", f"at {x.tag}: ", monad_morphism_failures(ctx.ring, ctx.cs, x))


def _check_monad_laws(ctx):
    cs = ctx.cs
    mon_adj = monad_from_adjunction(cs)
    with _as_failure("monad_laws", "tensor monad"):
        mon_ring = monad_from_ring(ctx.ring)
    for x in ctx.monad_objs:
        _need_none("monad_laws", f"coinduction monad at {x.tag}: ",
                   monad_law_failures(mon_adj, x))
        _need_none("monad_laws", f"tensor monad at {x.tag}: ", monad_law_failures(mon_ring, x))
        _need_none("monad_separability", f"at {x.tag}: ",
                   monad_separability_failures(cs, x))


def _check_module_idempotent(ctx):
    for mod, split in zip(ctx.modules, ctx.splits):
        if isinstance(split, Exception):
            with _as_failure("module_idempotent", f"module {mod.tag}"):
                raise split
        _, p, m, e = split
        _need_identity("module_idempotent", f"p . m at {mod.tag}", mat_mul(p.matrix, m.matrix))
        _need("module_idempotent", f"m . p = e at {mod.tag}",
              mat_mul(m.matrix, p.matrix), e.matrix)


def _check_em_unit_roundtrip(ctx):
    cs = ctx.cs
    data = []
    for n in ctx.hreps:
        with _as_failure("em_unit_roundtrip", f"rep {n.tag}"):
            data.append(em_unit_iso(n, cs, ctx.ring))
    for i, f in enumerate(ctx.hmors):
        mod_i, _, m_i, w1_i, _ = data[i]
        mod_j, p_j, _, w1_j, _ = data[(i + 1) % len(data)]
        with _as_failure("em_unit_roundtrip", f"E on hmor {i}"):
            ef = em_mor(f, cs, mod_i, mod_j)
        through = mat_mul(p_j.matrix, mat_mul(ef, m_i.matrix))
        _need("em_unit_naturality", f"hmor {i}",
              mat_mul(w1_j.matrix, f.matrix), mat_mul(through, w1_i.matrix))


def _check_em_counit_roundtrip(ctx):
    for mod, split in zip(ctx.modules, ctx.splits):
        with _as_failure("em_counit_roundtrip", f"module {mod.tag}"):
            if isinstance(split, Exception):
                raise split
            em_counit_iso(mod, split, ctx.cs)


def _check_extension_of_scalars(ctx):
    cs, h = ctx.cs, ctx.h
    eye_a = Matrix.identity(ctx.field, ctx.ring.dim)
    phis = []
    for y in ctx.ext_reps:
        with _as_failure("extension_of_scalars", f"rep {y.tag}"):
            phis.append(extension_of_scalars_iso(y, cs, ctx.ring)[0])
    for i, f in enumerate(ctx.ext_homs):
        lhs = mat_mul(coind_mor(restrict_mor(f, h), cs).matrix, phis[i])
        rhs = mat_mul(phis[(i + 1) % len(phis)], mat_kron(eye_a, f.matrix))
        _need("extension_naturality", f"gmor {i}", lhs, rhs)


# In dependency order; later checks assume the structures the earlier ones
# certify.
_CHECKS = (
    ("group_axioms", _check_group_axioms),
    ("rep_hom_sanity", _check_rep_hom_sanity),
    ("triangle_identities", _check_triangle_identities),
    ("counit_section", _check_counit_section),
    ("lambda_laws", _check_lambda_laws),
    ("projection_formula", _check_projection_formula),
    ("ring_axioms", _check_ring_axioms),
    ("monad_morphism", _check_monad_morphism),
    ("monad_laws", _check_monad_laws),
    ("module_idempotent", _check_module_idempotent),
    ("em_unit_roundtrip", _check_em_unit_roundtrip),
    ("em_counit_roundtrip", _check_em_counit_roundtrip),
    ("extension_of_scalars", _check_extension_of_scalars),
)

CHECK_IDS = tuple(cid for cid, _ in _CHECKS)


def run_suite(cfg):
    """Run the selected checks and return a SuiteReport."""
    ctx = Ctx(cfg)
    results = []
    for cid, fn in _CHECKS:
        if not ctx.enabled(cid):
            continue
        t0 = time.perf_counter()
        witness = None
        try:
            fn(ctx)
        except _Failed as failed:
            witness = failed.witness
        except _DOMAIN_ERRORS as exc:
            witness = _witness_from_error(cid, "while preparing the check", exc)
        except (ConfigError, InternalError):
            raise
        except Exception as exc:
            raise InternalError(f"check {cid} crashed: {exc!r}") from exc
        ms = round((time.perf_counter() - t0) * 1000.0, 3)
        results.append(CheckResult(cid, "pass" if witness is None else "fail", witness, ms))
    return SuiteReport(ctx.env(), results)


def mutation_smoke(cfg, corruption):
    """Re-run the suite with one deliberate corruption injected; ``Ctx`` refuses an unknown one."""
    return run_suite(cfg._replace(corruption=corruption))


DEFAULT_FIELDS = ("q", "fp:2", "fp:3", "fp:5")
DEFAULT_PAIRS = tuple((name, None) for name in
                      ("c2", "c3", "c4", "c6", "v4", "s3", "d4", "q8", "a4", "s4"))


def _matrix_case(case):
    group, subgroup, field, seed, family_size = case
    cfg = SuiteConfig(group=group, subgroup=subgroup, field=field,
                      seed=seed, family_size=family_size)
    t0 = time.perf_counter()
    report = run_suite(cfg)
    return {
        "group": group,
        "subgroup": list(subgroup) if subgroup is not None else None,
        "field": field,
        "passed": report.passed,
        "failed": [c.id for c in report.checks if c.status != "pass"],
        "seconds": round(time.perf_counter() - t0, 3),
    }


def run_matrix(pairs=DEFAULT_PAIRS, fields=DEFAULT_FIELDS, seed=0, family_size=10,
               workers=None):
    """Run the suite over a grid of cases, optionally in parallel.

    ``workers`` defaults to min(4, cpu count) and is capped at the number
    of cases; a count below 1 is refused.  Returns one summary dict per
    case, in grid order.
    """
    cases = [
        (group, subgroup, field, seed, family_size)
        for group, subgroup in pairs
        for field in fields
    ]
    if workers is None:
        workers = min(4, os.cpu_count() or 1)
    if workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")
    workers = min(workers, len(cases))
    if workers <= 1:
        return [_matrix_case(c) for c in cases]
    # imported here: the pool pulls in multiprocessing, which a single verdict never needs
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_matrix_case, cases))
