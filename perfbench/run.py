"""The sepmonad benchmark: end-to-end verdict time and memory, per-layer spans.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --compare RESULT_A.json RESULT_B.json

Run from the root of a source checkout; the program is imported from
``src/``, nothing is installed.  Workloads (the seed is ``SuiteConfig.seed``):

  s4-q       ``verify --group s4`` over Q, family 10: the single-verdict
             latency of the headline case.  No mod-p work, so a mod-p change
             should not move it.
  matrix40   ``run_matrix`` over the default 10 presets x {q, fp:2, fp:3,
             fp:5} with 2 workers, family 2: sweep throughput, the mod-p
             kernels and normalization, c6's eliminations, and the pool.
  s5-index5  S5 (order 120, ``perfbench/s5.json``) with H the stabilizer of
             point 4 (S4, index 5), over Q, family 2: the scale and memory
             case, where per-element dense ``Rep`` storage sets peak RSS.

matrix40 and s5-index5 run family 2, not 10 and 4: at 10 the grid takes
about 70 s with 2 workers and S5 at family 4 about 35 s at 2.4 GB, too long
and too large to repeat dozens of times within an hour on a 2-core, 8 GB
machine.  S5 at index 10 (H = S3 x S2) is not a workload: ``Ctx.pi_pairs``
always adds a (12, 12) pair, which at index 10 coinduces 1440-dimensional
tensor products stored as one dense matrix per group element, and the
process is killed for memory at 8 GB.

With ``--trace 0`` a run repeats the workload, each time in a fresh
process, for about ``--seconds`` and reports medians of the end-to-end
metrics.  With ``--trace 1`` it runs the workload once untraced (for the
pool metric) and once under the tracer (``tracer.py``; grid cases serially
in one process) and reports the per-layer metrics and the tracing
overhead, which is the traced over the untraced time of one case run both
ways in the traced process.  Every run gates the verdicts: every case must
report exactly ``CHECK_IDS`` and pass, and ``--mutation-smoke`` on s3 must
detect all three corruptions.  Failed, crashed, killed or timed-out
operations count in ``failed``.  A traced run also checks that its
deterministic work counts equal those of an earlier traced run with the
same workload, seed and backend.

The last line of standard output is the JSON result; the full record is
written to ``perfbench/results/``.
"""

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import cli_argv

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
CHILD = HERE / "child.py"

# H of s5-index5: generated by (0 1) and (0 1 2 3), the stabilizer of point 4.
S5_H_PERMS = ((1, 0, 2, 3, 4), (1, 2, 3, 0, 4))

WORKLOADS = {
    "s4-q": {"kind": "cli", "group": "s4", "field": "q", "family": 10},
    "matrix40": {"kind": "matrix", "family": 2, "workers": 2},
    "s5-index5": {"kind": "cli", "group": "perfbench/s5.json", "field": "q", "family": 2},
}

SETUP_REPEATS = 9
# Children still running this long after the run started are killed, so a
# run ends within three minutes.
RUN_DEADLINE_S = 170.0

# Per-layer metrics in seconds and these ratios of timings vary from run to
# run; every other per-layer metric is a work count that must repeat exactly.
TIMING_RATIOS = ("pool.idle_frac", "trace.overhead_frac")


class Gate:
    """Operations attempted and failed in one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def fail(self, count, note):
        self.failed += count
        self.notes.append(note)


def _load_program():
    """Import sepmonad from this checkout's src/, or exit with status 1."""
    if not (SRC / "sepmonad" / "__init__.py").is_file():
        sys.exit(f"perfbench: no sepmonad sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import sepmonad

    if Path(sepmonad.__file__).resolve().parent != SRC / "sepmonad":
        sys.exit(f"perfbench: imported sepmonad from {sepmonad.__file__}, not {SRC}")
    return sepmonad


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Runner:
    def __init__(self, workload, seed, deadline):
        from sepmonad.groups import load_group_json, right_cosets, subgroup_generated
        from sepmonad.suite import CHECK_IDS, DEFAULT_FIELDS, DEFAULT_PAIRS

        self.name = workload
        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.deadline = deadline
        self.check_ids = list(CHECK_IDS)
        self.gate = Gate()
        self.env = _env()
        if self.wl["kind"] == "matrix":
            self.cases = [(g, s, f) for g, s in DEFAULT_PAIRS for f in DEFAULT_FIELDS]
            self.workers = self.wl["workers"]
        else:
            subgroup = None
            if self.wl["group"].endswith(".json"):
                group = load_group_json(str(ROOT / self.wl["group"]))
                subgroup = [group.index_of_perm(p) for p in S5_H_PERMS]
                cs = right_cosets(group, subgroup_generated(group, tuple(subgroup)))
                if (group.order, cs.index) != (120, 5):
                    sys.exit(f"perfbench: {self.wl['group']} gives |G|={group.order}, "
                             f"index {cs.index}; expected 120 and 5")
            self.cases = [(self.wl["group"], subgroup, self.wl["field"])]
            self.workers = 1

    # ---- child processes ----

    def _spawn(self, argv):
        """Run one child; return (exit code or None on timeout, stdout, wall seconds)."""
        timeout = max(1.0, self.deadline - time.monotonic())
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=timeout)
            code = proc.returncode
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            out, err = proc.communicate()
            code = None
        wall = time.perf_counter() - start
        if code != 0 and err:
            sys.stderr.write(err[-2000:])
        return code, out, wall

    def _spec(self, mode, **extra):
        spec = {"mode": mode, "kind": self.wl["kind"], "cases": self.cases,
                "seed": self.seed, "family": self.wl["family"], "workers": self.workers}
        spec.update(extra)
        return [sys.executable, str(CHILD), json.dumps(spec)]

    # ---- verdict gate ----

    def gate_cases(self, found, where):
        """Gate (case id, [(check id, status)]) pairs against every expected case."""
        by_case = dict(found)
        for group, _, field in self.cases:
            case = f"{group}|{field}"
            self.gate.attempted += len(self.check_ids)
            checks = by_case.get(case)
            if checks is None:
                self.gate.fail(len(self.check_ids), f"{where}: no verdict for {case}")
                continue
            status = dict(checks)
            bad = [cid for cid in self.check_ids if status.get(cid) != "pass"]
            if [cid for cid, _ in checks] != self.check_ids:
                bad = self.check_ids
            if bad:
                self.gate.fail(len(bad), f"{where}: {case} failed or missing {bad}")

    def mutation_smoke(self):
        # named here, not read from the program, so that dropping one shows
        corruptions = ("ring_mul", "xi_block", "rep_action")
        self.gate.attempted += len(corruptions)
        code, out, _ = self._spawn([sys.executable, "-m", "sepmonad", "--group", "s3",
                                    "--seed", str(self.seed), "--mutation-smoke",
                                    "--report", "json"])
        try:
            rows = json.loads(out)["mutation_smoke"]
            detected = {r["corruption"] for r in rows if r["detected"]}
        except (ValueError, KeyError, TypeError):
            detected = set()
        missed = [c for c in corruptions if c not in detected]
        if code != 0 or missed:
            self.gate.fail(len(missed) or len(corruptions),
                           f"mutation smoke: exit {code}, missed {missed}")

    # ---- one untraced operation ----

    def op(self):
        """Run the workload once untraced; return (wall_s, case seconds).

        Returns None when the run gave no report (crash, kill or timeout);
        a report with failed checks is still timed, and gated.
        """
        if self.wl["kind"] == "cli":
            code, out, wall = self._spawn([sys.executable, "-m", "sepmonad"]
                                          + cli_argv(self.cases[0], self.seed, self.wl["family"]))
            try:
                report = json.loads(out)
                checks = [(c["id"], c["status"]) for c in report["checks"]]
                case_s = [sum(c["ms"] for c in report["checks"]) / 1000.0]
            except (ValueError, KeyError, TypeError):
                checks, case_s = None, []
            (group, _, field), = self.cases
            found = [(f"{group}|{field}", checks)] if checks is not None else []
        else:
            code, out, wall = self._spawn(self._spec("matrix"))
            try:
                rows = json.loads(out.splitlines()[-1])["rows"]
            except (ValueError, KeyError, IndexError):
                rows = []
            # run_matrix rows name only the failing checks of a case
            found = [(f"{r['group']}|{r['field']}",
                      [(cid, "fail" if cid in r["failed"] else "pass") for cid in self.check_ids])
                     for r in rows]
            case_s = [r["seconds"] for r in rows]
        self.gate_cases(found, f"untraced run (exit {code})")
        if not case_s:
            return None
        return wall, case_s

    # ---- the two kinds of run ----

    def setup_times(self):
        # -S leaves out the environment's site-packages start-up hooks: they
        # are not the program's work and dominate the run-to-run variation
        argv = self._spec("setup")
        argv.insert(1, "-S")
        times = []
        for _ in range(SETUP_REPEATS):
            code, _, wall = self._spawn(argv)
            if code == 0:
                times.append(wall)
        return times

    def end_to_end(self, seconds):
        setup = self.setup_times()
        ops = []
        start = time.perf_counter()
        while True:
            result = self.op()
            if result is not None:
                ops.append(result)
            elapsed = time.perf_counter() - start
            last = result[0] if result is not None else elapsed
            # leave time for the mutation smoke before the deadline
            if elapsed + last > seconds or time.monotonic() + last > self.deadline - 20:
                break
        self.mutation_smoke()
        if not ops or not setup:
            return None, {"ops": ops, "setup_s": setup}
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        metrics = {
            "wall_s": (statistics.median(w for w, _ in ops), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "case_p50_s": (statistics.median(statistics.median(c) for _, c in ops), "s"),
            "case_max_s": (statistics.median(max(c) for _, c in ops), "s"),
            "peak_rss_mb": (rss, "MB"),
        }
        return metrics, {"ops": ops, "setup_s": setup}

    def per_layer(self):
        untraced = self.op()
        spans = RESULTS / f"spans-{self.name}-seed{self.seed}.json"
        code, out, wall = self._spawn(self._spec("traced", spans_path=str(spans)))
        try:
            traced = json.loads(out.splitlines()[-1])
        except (ValueError, IndexError):
            traced = None
        self.gate_cases([(c["case"], c["checks"]) for c in traced["cases"]] if traced else [],
                        f"traced run (exit {code})")
        self.mutation_smoke()
        if untraced is None or traced is None:
            return None, {"untraced": untraced, "traced": traced}
        metrics = {k: (v["value"], v["unit"]) for k, v in traced["metrics"].items()}
        u_wall, u_cases = untraced
        metrics["pool.idle_frac"] = (1.0 - sum(u_cases) / (self.workers * u_wall), "ratio")
        metrics["trace.untraced_wall_s"] = (u_wall, "s")
        return metrics, {"untraced": untraced, "traced_child_wall_s": wall, "spans": spans.name}


def deterministic_counts(metrics):
    return {k: v for k, (v, unit) in metrics.items() if unit != "s" and k not in TIMING_RATIOS}


def check_ledger(path, counts, gate):
    """Compare work counts with an earlier traced run of the same key, or record them."""
    if not path.exists():
        path.write_text(json.dumps(counts, indent=1, sort_keys=True))
        return
    earlier = json.loads(path.read_text())
    diff = sorted(k for k in set(earlier) | set(counts) if earlier.get(k) != counts.get(k))
    if diff:
        gate.notes.append(f"work counts differ from {path.name}: {diff[:8]}")


def environment(sepmonad, seed):
    from sepmonad.backend import backend_name, has_speed

    mem_kb = None
    with open("/proc/meminfo", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": mem_kb // 1024 if mem_kb else None,
        "backend": backend_name(),
        "speed_importable": has_speed(),
        "tool_version": sepmonad.__version__,
        "seed": seed,
    }


def compare(path_a, path_b):
    """Print two results side by side; refuse when their backends differ."""
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    if a["env"]["backend"] != b["env"]["backend"]:
        print(f"refusing to compare: backend {a['env']['backend']} vs {b['env']['backend']}")
        return 2
    print(f"{'metric':<52} {'A':>14} {'B':>14} {'B/A':>8}")
    for name in sorted(set(a["metrics"]) & set(b["metrics"])):
        va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
        ratio = f"{vb / va:8.3f}" if va else f"{'-':>8}"
        print(f"{name:<52} {va:>14.6g} {vb:>14.6g} {ratio}")
    same_case = (a["workload"], a["env"]["seed"]) == (b["workload"], b["env"]["seed"])
    if same_case and a.get("counts") is not None and b.get("counts") is not None:
        diff = sorted(k for k in set(a["counts"]) | set(b["counts"])
                      if a["counts"].get(k) != b["counts"].get(k))
        print(f"work counts: {'identical' if not diff else 'DIFFER: ' + ', '.join(diff)}")
        return 1 if diff else 0
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar="RESULT")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    deadline = time.monotonic() + RUN_DEADLINE_S
    sepmonad = _load_program()
    RESULTS.mkdir(exist_ok=True)
    runner = Runner(args.workload, args.seed, deadline)
    env = environment(sepmonad, args.seed)
    counts = None
    if args.trace:
        metrics, detail = runner.per_layer()
        if metrics is not None:
            counts = deterministic_counts(metrics)
            ledger = RESULTS / f"counts-{args.workload}-seed{args.seed}-{env['backend']}.json"
            check_ledger(ledger, counts, runner.gate)
    else:
        metrics, detail = runner.end_to_end(args.seconds)
    gate = runner.gate
    correct = metrics is not None and gate.failed == 0 and not gate.notes
    result = {
        "workload": args.workload,
        "trace": args.trace,
        "env": env,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "fail_frac": gate.failed / gate.attempted if gate.attempted else 1.0,
        "notes": gate.notes,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in (metrics or {}).items()},
        "counts": counts,
        "detail": detail,
    }
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1))
    print(f"env: {json.dumps(env)}")
    for note in gate.notes:
        print(f"gate: {note}")
    print(f"{'fail_frac':<48} {result['fail_frac']:.6g} ({gate.failed}/{gate.attempted} operations)")
    for name, m in result["metrics"].items():
        print(f"{name:<48} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": max(1, gate.attempted),
                      "failed": gate.failed, "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
