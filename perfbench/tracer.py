"""Per-layer spans for sepmonad, installed from outside the package.

``Tracer.install()`` wraps every public function of the sepmonad modules
and rebinds the wrapper under each name that refers to the original in
any ``sepmonad.*`` namespace, so calls made through ``from .x import f``
are traced too.  It also wraps ``Matrix.__init__``/``__eq__``/
``is_identity``, ``Rep.__init__``/``mat``, ``Ctx.__init__``, the lazy
``Ctx`` family properties and the suite's check table.  No file of the
package is changed.

Per name the tracer keeps calls, busy time (outermost calls only, so
recursion is not counted twice) and self time (span time minus the time
of the spans it directly contains).  Span records of the coarse layers
stay in memory and are written by the caller when the run ends; the hot
names (matrix construction and comparison, kernel calls, element reads)
are only aggregated.
"""

import inspect
import sys
import time
from collections import defaultdict
from functools import cached_property, wraps

_clock = time.perf_counter

MODULES = ("backend", "exactlin", "groups", "presets", "repcat", "adjunction",
           "monadring", "eilenberg", "suite")

# Called too often to keep one record per call; aggregated only.
HOT = frozenset((
    "exactlin.matrix_init", "exactlin.compare", "repcat.rep_mat", "groups.factorize",
    "backend.mul_int", "backend.mul_mod", "backend.rrefj_int", "backend.rref_mod",
))

# Span records beyond this many are counted, not kept.
SPAN_CAP = 400_000


class Tracer:
    def __init__(self):
        self.stack = []  # open frames: [start, child_time, span_id]
        self.stats = {}  # name -> [calls, busy_s, self_s]
        self.spans = []  # [parent_id, case, name, start, end]
        self.dropped_spans = 0
        self.counts = defaultdict(int)
        self.check_compares = defaultdict(int)
        self.check_family_s = defaultdict(float)
        self.family_s = defaultdict(float)
        self.family_stack = []  # per open family: time of families nested in it
        self.case = None
        self.check = None
        self.reports = []  # (case id, SuiteReport) for every run_suite call
        self.max_coind_dim = 0
        self.pi_pairs = 0
        self.summands_found = 0

    # ---- spans ----

    def wrap(self, name, fn, before=None, after=None):
        """Return fn wrapped in a span called ``name``.

        ``before(args, kwargs)`` runs ahead of the call and
        ``after(args, kwargs, result)`` after it, both outside the span.
        """
        stack = self.stack
        spans = self.spans
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        active = [0]
        keep = name not in HOT

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            sid = -1
            if keep:
                if len(spans) < SPAN_CAP:
                    sid = len(spans)
                    spans.append([stack[-1][2] if stack else -1, self.case, name, 0.0, 0.0])
                else:
                    self.dropped_spans += 1
            frame = [_clock(), 0.0, sid]
            stack.append(frame)
            active[0] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                active[0] -= 1
                stack.pop()
                dur = end - frame[0]
                st[0] += 1
                st[2] += dur - frame[1]
                if not active[0]:
                    st[1] += dur
                if stack:
                    stack[-1][1] += dur
                if sid >= 0:
                    spans[sid][3] = frame[0]
                    spans[sid][4] = end
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # ---- installation ----

    def install(self):
        import sepmonad  # noqa: F401  (loads every submodule)

        mods = {m: sys.modules[f"sepmonad.{m}"] for m in MODULES}
        namespaces = [mod for key, mod in sys.modules.items()
                      if mod is not None and (key == "sepmonad" or key.startswith("sepmonad."))]
        hooks = self._hooks()
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                before, after = hooks.get(f"{short}.{attr}", (None, None))
                wrapped = self.wrap(f"{short}.{attr}", obj, before, after)
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is obj:
                            setattr(ns, key, wrapped)
        self._install_classes()
        self._install_suite(mods["suite"])
        self._install_fallback_counter(mods["backend"])

    def _hooks(self):
        counts = self.counts

        def mul_in(kind):
            def before(args, kwargs):
                a, am, an, b, bn = args[:5]
                counts[f"{kind}.entries_in"] += am * an + an * bn
                counts[f"{kind}.nnz_in"] += len(a) - a.count(0) + len(b) - b.count(0)
            return before

        def rref_in(kind):
            def before(args, kwargs):
                counts[f"{kind}.entries_in"] += args[1] * args[2]
            return before

        def coind_after(args, kwargs, result):
            self.max_coind_dim = max(self.max_coind_dim, result.dim)

        def summand_after(args, kwargs, result):
            if result is not None:
                self.summands_found += 1

        def run_suite_before(args, kwargs):
            cfg = args[0] if args else kwargs["cfg"]
            self.case = f"{cfg.group}|{cfg.field}"

        def run_suite_after(args, kwargs, result):
            self.reports.append((self.case, result))
            self.case = None

        return {
            "backend.mul_int": (mul_in("backend.mul_int"), None),
            "backend.mul_mod": (mul_in("backend.mul_mod"), None),
            "backend.rrefj_int": (rref_in("backend.rrefj_int"), None),
            "backend.rref_mod": (rref_in("backend.rref_mod"), None),
            "adjunction.coind_obj": (None, coind_after),
            "eilenberg.find_idempotent_summand": (None, summand_after),
            "suite.run_suite": (run_suite_before, run_suite_after),
        }

    def _install_classes(self):
        from sepmonad.exactlin import Matrix
        from sepmonad.repcat import Rep

        counts = self.counts
        check_compares = self.check_compares

        def init_before(args, kwargs):
            counts["exactlin.matrix_init.entries"] += args[2] * args[3]

        def compare_before(args, kwargs):
            check_compares[self.check] += 1

        Matrix.__init__ = self.wrap("exactlin.matrix_init", Matrix.__init__, init_before)
        Matrix.__eq__ = self.wrap("exactlin.compare", Matrix.__eq__, compare_before)
        Matrix.is_identity = self.wrap("exactlin.compare", Matrix.is_identity, compare_before)

        def rep_init_after(args, kwargs, result):
            counts["repcat.action_mats_built"] += len(args[0].mats)

        def rep_mat_before(args, kwargs):
            rep, elem = args[0], args[1]
            seen = rep.__dict__.get("_perfbench_read")
            if seen is None:
                seen = rep._perfbench_read = set()
            if elem not in seen:
                seen.add(elem)
                counts["repcat.action_mats_read"] += 1

        Rep.__init__ = self.wrap("repcat.rep_init", Rep.__init__, None, rep_init_after)
        Rep.mat = self.wrap("repcat.rep_mat", Rep.mat, rep_mat_before)

    def _install_suite(self, suite):
        ctx_cls = suite.Ctx
        ctx_cls.__init__ = self.wrap("suite.ctx_init", ctx_cls.__init__)
        for attr, prop in list(vars(ctx_cls).items()):
            if isinstance(prop, cached_property):
                new = cached_property(self._family(attr, prop.func))
                new.__set_name__(ctx_cls, attr)
                setattr(ctx_cls, attr, new)
        suite._CHECKS = tuple((cid, self._check(cid, fn)) for cid, fn in suite._CHECKS)

    def _family(self, attr, fn):
        inner = self.wrap(f"suite.family.{attr}", fn)

        @wraps(fn)
        def build(ctx):
            self.family_stack.append(0.0)
            start = _clock()
            try:
                value = inner(ctx)
            finally:
                dur = _clock() - start
                nested = self.family_stack.pop()
                self.family_s[attr] += dur - nested
                if self.family_stack:
                    self.family_stack[-1] += dur
                else:
                    self.check_family_s[self.check] += dur
            if attr == "pi_pairs":
                self.pi_pairs += len(value)
            return value

        return build

    def _check(self, cid, fn):
        inner = self.wrap(f"suite.check.{cid}", fn)

        @wraps(fn)
        def check(ctx):
            outer, self.check = self.check, cid
            try:
                return inner(ctx)
            finally:
                self.check = outer

        return check

    def _install_fallback_counter(self, backend):
        """Count OverflowError fallbacks of the compiled kernels, when active."""
        if backend._speed is None or backend._ACTIVE is not backend._speed:
            return
        counts = self.counts
        for attr in ("mul_int", "mul_mod", "rrefj_int", "rref_mod"):
            kernel = getattr(backend._speed, attr)

            def counted(*args, _kernel=kernel):
                try:
                    return _kernel(*args)
                except OverflowError:
                    counts["backend.overflow_fallbacks"] += 1
                    raise

            setattr(backend._speed, attr, counted)

    # ---- results ----

    def calls(self, name):
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def busy(self, name):
        return self.stats.get(name, [0, 0.0, 0.0])[1]

    def self_time(self, name):
        return self.stats.get(name, [0, 0.0, 0.0])[2]
