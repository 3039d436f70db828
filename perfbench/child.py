"""One measured process of the benchmark; run.py starts it.

Usage: python3 perfbench/child.py '<json spec>'

The spec's "mode" selects the work:
  setup   import sepmonad and build every case's group, subgroup and
          cosets (``suite.Ctx``), then exit;
  matrix  call ``run_matrix`` and print its rows;
  traced  time a reference case untraced, install the tracer, run the
          workload in this process (the ``verify`` CLI path for a single
          case, ``run_matrix`` with one worker for a grid), then print the
          per-layer metrics and write the spans to the given file.
The last line of standard output is one JSON object.
"""

import contextlib
import io
import json
import os
import sys
import time

FAMILIES = ("hreps", "hmors", "greps", "gmors", "lam_reps", "lam_homs", "pi_pairs",
            "mm_objs", "monad_objs", "ext_reps", "ext_homs", "ring", "ring_adj", "iso",
            "modules")


def _setup(spec):
    from sepmonad.suite import Ctx, SuiteConfig

    for group, subgroup, field in spec["cases"]:
        Ctx(SuiteConfig(group=group, subgroup=subgroup, field=field,
                        seed=spec["seed"], family_size=spec["family"]))
    return {}


def _matrix(spec):
    from sepmonad.suite import run_matrix

    rows = run_matrix(seed=spec["seed"], family_size=spec["family"], workers=spec["workers"])
    return {"rows": rows}


def cli_argv(case, seed, family):
    """The ``verify`` arguments for one (group, subgroup, field) case."""
    group, subgroup, field = case
    argv = ["--group", group, "--field", field, "--seed", str(seed),
            "--family-size", str(family), "--report", "json"]
    if subgroup is not None:
        argv += ["--subgroup", ",".join(map(str, subgroup))]
    return argv


def _cli_case_s(argv):
    """Run the verify CLI in this process; return the summed check seconds."""
    from sepmonad.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(argv)
    report = json.loads(out.getvalue())
    return sum(c["ms"] for c in report["checks"]) / 1000.0


def _traced(spec):
    """Time a reference case untraced, then the whole workload traced.

    The reference case (a grid's last case) runs untraced twice and then
    traced, all in this process; the ratio of the traced time to the
    second untraced time is the tracing overhead.  The first untraced run
    only warms the allocator, so that neither side pays for first use.
    """
    from sepmonad.suite import SuiteConfig, run_matrix, run_suite
    from tracer import Tracer

    if spec["kind"] == "cli":
        argv = cli_argv(spec["cases"][0], spec["seed"], spec["family"])
        for _ in range(2):
            plain_s = _cli_case_s(argv)
    else:
        group, subgroup, field = spec["cases"][-1]
        cfg = SuiteConfig(group=group, subgroup=subgroup, field=field,
                          seed=spec["seed"], family_size=spec["family"])
        for _ in range(2):
            start = time.perf_counter()
            run_suite(cfg)
            plain_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    start = time.perf_counter()
    if spec["kind"] == "cli":
        traced_s = _cli_case_s(argv)
    else:
        rows = run_matrix(seed=spec["seed"], family_size=spec["family"], workers=1)
        traced_s = rows[-1]["seconds"]
    wall = time.perf_counter() - start
    with open(spec["spans_path"], "w", encoding="utf-8") as fh:
        json.dump({"fields": ["parent", "case", "name", "start", "end"],
                   "dropped": tracer.dropped_spans, "spans": tracer.spans}, fh)
    metrics = layer_metrics(tracer)
    metrics["trace.overhead_frac"] = {"value": traced_s / plain_s - 1.0, "unit": "ratio"}
    metrics["trace.traced_wall_s"] = {"value": wall, "unit": "s"}
    return {
        "cases": [
            {"case": case, "checks": [[c.id, c.status] for c in report.checks]}
            for case, report in tracer.reports
        ],
        "metrics": metrics,
    }


def layer_metrics(tr):
    """The per-layer metrics of one traced run, named <module>.<fn>.<stat>.

    The comments name the end-to-end metric and workload that each group
    is expected to move.
    """
    from sepmonad.suite import CHECK_IDS

    out = {}
    counts = tr.counts

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    def calls_busy(name):
        put(f"{name}.calls", tr.calls(name), "count")
        put(f"{name}.busy_s", tr.busy(name), "s")

    def calls_self(name):
        put(f"{name}.calls", tr.calls(name), "count")
        put(f"{name}.self_s", tr.self_time(name), "s")

    # mul_int: wall_s on s4-q and s5-index5; mul_mod and rref_mod: wall_s on
    # matrix40; rrefj_int: case_max_s on matrix40 (c6)
    for kernel in ("mul_int", "mul_mod", "rrefj_int", "rref_mod"):
        name = f"backend.{kernel}"
        calls_busy(name)
        entries = counts[f"{name}.entries_in"]
        put(f"{name}.entries_in", entries, "count")
        if kernel.startswith("mul"):
            put(f"{name}.nnz_frac", counts[f"{name}.nnz_in"] / entries if entries else 0.0, "ratio")
    put("backend.overflow_fallbacks", counts["backend.overflow_fallbacks"], "count")

    # matrix_init: wall_s on matrix40 (fp) and peak_rss_mb on s5-index5;
    # kron, mul, assemble, compare: wall_s on s4-q and s5-index5; the
    # eliminations: case_max_s on matrix40
    calls_busy("exactlin.matrix_init")
    put("exactlin.matrix_init.entries", counts["exactlin.matrix_init.entries"], "count")
    for fn in ("mat_kron", "mat_mul", "assemble"):
        calls_self(f"exactlin.{fn}")
    calls_busy("exactlin.compare")
    for fn in ("nullspace_basis", "solve_linear", "mat_inverse"):
        calls_busy(f"exactlin.{fn}")

    # setup_s on s5-index5
    put("groups.build_s", tr.busy("suite.ctx_init"), "s")
    put("groups.factorize.calls", tr.calls("groups.factorize"), "count")

    # the constructors: case_p50_s on matrix40; the action matrices: wall_s
    # and peak_rss_mb on s4-q and s5-index5
    for fn in ("random_rep", "hom_space_basis", "tensor_obj", "restrict", "symmetry"):
        calls_busy(f"repcat.{fn}")
    built = counts["repcat.action_mats_built"]
    read = counts["repcat.action_mats_read"]
    put("repcat.action_mats_built", built, "count")
    put("repcat.action_mats_read", read, "count")
    put("repcat.action_read_frac", read / built if built else 0.0, "ratio")

    # coind_obj: wall_s on s4-q and s5-index5; lambda and pi: wall_s on s5-index5
    calls_busy("adjunction.coind_obj")
    put("adjunction.coind_obj.max_dim", tr.max_coind_dim, "count")
    for fn in ("lax_lambda", "lax_lambda_composite", "projection_pi", "projection_pi_inverse",
               "projection_pi_composite_matrix"):
        calls_busy(f"adjunction.{fn}")

    # wall_s on s4-q
    put("monadring.ring_build_s", sum(tr.busy(f"monadring.{fn}") for fn in
        ("standard_ring", "ring_from_adjunction", "canonical_ring_iso")), "s")
    for fn in ("monad_law_failures", "monad_morphism_failures", "monad_separability_failures"):
        put(f"monadring.{fn}.busy_s", tr.busy(f"monadring.{fn}"), "s")

    # case_max_s on matrix40
    for fn in ("em_comparison", "free_module", "em_inverse_split", "em_counit_iso",
               "extension_of_scalars_iso", "find_idempotent_summand", "module_hom_space"):
        put(f"eilenberg.{fn}.busy_s", tr.busy(f"eilenberg.{fn}"), "s")
    put("eilenberg.summand_found", tr.summands_found, "count")

    for cid in CHECK_IDS:
        # verifying only: the families a check builds first are timed apart
        verify = tr.busy(f"suite.check.{cid}") - tr.check_family_s[cid]
        put(f"suite.check.{cid}.busy_s", verify, "s")
        put(f"suite.check.{cid}.compares", tr.check_compares[cid], "count")
    for fam in FAMILIES:
        put(f"suite.family.{fam}.build_s", tr.family_s[fam], "s")
    put("suite.pi_pairs.count", tr.pi_pairs, "count")
    return out


def main():
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    run = {"setup": _setup, "matrix": _matrix, "traced": _traced}[spec["mode"]]
    print(json.dumps(run(spec)))


if __name__ == "__main__":
    main()
