"""Suite orchestration: determinism, corruption detection, CLI contract."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from sepmonad import adjunction, eilenberg, monadring, suite
from sepmonad.cli import main
from sepmonad.eilenberg import EMError
from sepmonad.exactlin import GF, QQ, Matrix
from sepmonad.repcat import Morphism, RepError
from sepmonad.suite import (
    CHECK_IDS,
    CORRUPTIONS,
    ConfigError,
    SuiteConfig,
    _mat_payload,
    mutation_smoke,
    run_matrix,
    run_suite,
)


def _strip_ms(report_dict):
    return {
        "version": report_dict["version"],
        "env": report_dict["env"],
        "checks": [
            {k: v for k, v in c.items() if k != "ms"} for c in report_dict["checks"]
        ],
    }


def small_cfg(**kw):
    base = dict(group="s3", field="q", seed=0, family_size=3)
    base.update(kw)
    return SuiteConfig(**base)


def test_all_checks_pass_small_family():
    report = run_suite(small_cfg())
    assert report.passed
    assert [c.id for c in report.checks] == list(CHECK_IDS)
    assert all(c.status == "pass" for c in report.checks)


def test_reports_are_deterministic():
    a = run_suite(small_cfg(field="fp:3", seed=11))
    b = run_suite(small_cfg(field="fp:3", seed=11))
    assert _strip_ms(a.to_dict()) == _strip_ms(b.to_dict())
    assert a.to_text().splitlines()[0] == b.to_text().splitlines()[0]


def test_different_seeds_change_witness_data():
    a = run_suite(small_cfg(checks=("rep_hom_sanity",), seed=1))
    b = run_suite(small_cfg(checks=("rep_hom_sanity",), seed=2))
    assert a.passed and b.passed
    assert a.to_dict()["env"]["seed"] != b.to_dict()["env"]["seed"]


def test_check_subset_runs_only_requested():
    report = run_suite(small_cfg(checks=("ring_axioms", "group_axioms")))
    assert [c.id for c in report.checks] == ["group_axioms", "ring_axioms"]


def test_env_block_describes_run():
    report = run_suite(small_cfg(field="fp:5"))
    env = report.to_dict()["env"]
    assert env["group"] == "s3"
    assert env["field"] == "fp:5"
    assert env["index"] == 3
    assert env["group_order"] == 6
    assert env["subgroup_order"] == 2
    assert env["backend"] == "pure"


def test_json_schema_fields():
    report = run_suite(small_cfg(checks=("ring_axioms",)))
    data = json.loads(report.to_json())
    assert data["version"] == 3
    assert set(data) == {"version", "env", "checks"}
    for c in data["checks"]:
        assert set(c) == {"id", "status", "witness", "ms"}
        assert c["status"] in ("pass", "fail")


@pytest.mark.parametrize("corruption", CORRUPTIONS)
def test_mutation_smoke_detects_each_corruption(corruption):
    report = mutation_smoke(small_cfg(), corruption)
    failed = [c for c in report.checks if c.status != "pass"]
    assert failed, f"corruption {corruption} slipped through"
    witness = failed[0].witness
    assert witness is not None
    assert witness["kind"] and witness["context"]


def test_each_module_is_split_once_per_case(monkeypatch):
    """module_idempotent and em_counit_roundtrip read one split per module."""
    calls = []
    real = eilenberg.em_inverse_split

    def spy(mod, cs):
        calls.append(mod)
        return real(mod, cs)

    monkeypatch.setattr(eilenberg, "em_inverse_split", spy)
    monkeypatch.setattr(suite, "em_inverse_split", spy)
    assert run_suite(SuiteConfig(group="s4", family_size=10)).passed
    # 11 modules (5 free, 5 comparison, the summand) once each, and the
    # comparison module of each of the 10 H-reps in em_unit_roundtrip
    assert len(calls) == 21


def test_a_failed_split_is_reported_by_both_module_checks(monkeypatch):
    real = eilenberg.em_inverse_split

    def split(mod, cs):
        if mod.tag == "summand":
            raise EMError("module idempotent law fails: e . e = e")
        return real(mod, cs)

    monkeypatch.setattr(suite, "em_inverse_split", split)
    cfg = small_cfg(checks=("module_idempotent", "em_counit_roundtrip"))
    idem, counit = run_suite(cfg).checks
    assert (idem.status, idem.witness["kind"]) == ("fail", "module_idempotent")
    assert (counit.status, counit.witness["kind"]) == ("fail", "em_counit_roundtrip")
    assert idem.witness["context"] == counit.witness["context"] == (
        "module summand: module idempotent law fails: e . e = e")


@pytest.mark.parametrize("group,subgroup,index", [
    ("c6", None, 6),
    (str(Path(__file__).resolve().parents[1] / "perfbench" / "s5.json"), (2, 63), 20),
])
def test_monad_families_keep_their_budget_cycles_at_every_index(group, subgroup, index):
    ctx = suite.Ctx(SuiteConfig(group=group, subgroup=subgroup, family_size=2))
    assert ctx.cs.index == index
    assert [x.dim for x in ctx.mm_objs] == [1, 2]
    assert [x.dim for x in ctx.monad_objs] == [1, 2, 3]


def test_unknown_group_is_config_error():
    with pytest.raises(ConfigError):
        run_suite(SuiteConfig(group="monster", field="q"))


def test_unknown_corruption_is_config_error():
    named = re.escape(f"unknown corruption 'bogus'; pick from {CORRUPTIONS}")
    with pytest.raises(ConfigError, match=f"^{named}$"):
        run_suite(small_cfg(corruption="bogus"))
    with pytest.raises(ConfigError, match=f"^{named}$"):
        mutation_smoke(small_cfg(), "bogus")


@pytest.mark.parametrize("field", ["q", "fp:2"])
@pytest.mark.parametrize("group", ["s3", "s4"])
def test_rep_action_corruption_changes_only_the_identity_and_builds_nothing(group, field):
    cfg = SuiteConfig(group=group, field=field, family_size=2)
    source = suite.Ctx(cfg).hreps[0]
    bad = suite.Ctx(cfg._replace(corruption="rep_action")).hreps[0]
    # a derived rep: no action matrix is built before one is read
    assert len(bad.mats) == 0
    assert (bad.dim, bad.tag) == (source.dim, f"{source.tag}|corrupted")
    assert [g for g in bad.carrier.elements if bad.mat(g) != source.mat(g)] == [0]


def test_unknown_check_is_config_error():
    with pytest.raises(ConfigError):
        run_suite(small_cfg(checks=("not_a_check",)))


@pytest.mark.parametrize("field", ["fp:9", "fp:0"])
def test_bad_field_is_config_error(field):
    with pytest.raises(ConfigError):
        run_suite(small_cfg(field=field))


def test_bad_family_size_is_config_error():
    with pytest.raises(ConfigError):
        run_suite(small_cfg(family_size=0))


def test_subgroup_override():
    report = run_suite(
        SuiteConfig(group="s3", subgroup=(2,), field="q", seed=0, family_size=3,
                    checks=("group_axioms", "ring_axioms"))
    )
    assert report.passed
    assert report.to_dict()["env"]["index"] == 2


def test_run_matrix_serial_and_shape():
    rows = run_matrix(
        [("s3", None), ("c2", None)], ("q", "fp:2"), seed=0, family_size=2, workers=1
    )
    assert len(rows) == 4
    for row in rows:
        assert row["passed"] is True
        assert row["failed"] == []
        assert set(row) >= {"group", "field", "passed", "failed", "seconds"}


def test_cli_pass_exit_code(capsys):
    code = main(["--group", "s3", "--family-size", "2", "--checks", "ring_axioms"])
    out = capsys.readouterr().out
    assert code == 0
    assert "result: PASS" in out
    assert "[PASS] ring_axioms" in out


def test_cli_json_report(capsys):
    code = main([
        "--group", "c2", "--family-size", "2", "--checks", "ring_axioms",
        "--report", "json",
    ])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["checks"][0]["id"] == "ring_axioms"


def test_cli_config_error_exit_code(capsys):
    code = main(["--group", "nope"])
    err = capsys.readouterr().err
    assert code == 2
    assert "configuration error" in err


def test_cli_bad_subgroup_text(capsys):
    code = main(["--group", "s3", "--subgroup", "1,x"])
    assert code == 2


def test_cli_reports_the_field_it_runs_over(capsys):
    reports = []
    for spec in (" FP:3 ", "fp:3"):
        assert main(["--group", "c2", "--family-size", "1", "--field", spec,
                     "--report", "json"]) == 0
        reports.append(_strip_ms(json.loads(capsys.readouterr().out)))
    assert reports[0] == reports[1]
    assert reports[0]["env"]["field"] == "fp:3"
    assert main(["--group", "c2", "--family-size", "1", "--field", " FP:3 "]) == 0
    assert " field=fp:3 " in capsys.readouterr().out


@pytest.mark.parametrize("buffering", ["buffered", "unbuffered"])
@pytest.mark.parametrize("args", [["--report", "text"], ["--report", "json"], ["--mutation-smoke"]],
                         ids=["text", "json", "mutation_smoke"])
def test_cli_keeps_the_verdict_when_stdout_is_closed(args, buffering):
    src = str(Path(suite.__file__).resolve().parents[1])
    env = {"PATH": os.environ.get("PATH", "/usr/bin:/bin"), "PYTHONPATH": src,
           "PYTHONDEVMODE": "1", "PYTHONWARNINGS": "error"}
    if buffering == "unbuffered":
        env["PYTHONUNBUFFERED"] = "1"
    # -B: no bytecode in the source tree
    proc = subprocess.Popen(
        [sys.executable, "-B", "-m", "sepmonad", "--group", "c2", "--family-size", "1", *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()  # the reader goes away before anything is written
    try:
        _, err = proc.communicate(timeout=300)
    finally:
        proc.kill()
    assert proc.returncode == 0
    assert err == b""


@pytest.mark.parametrize("text", ["", ",,"])
def test_cli_empty_check_list_exit_code(capsys, text):
    code = main(["--group", "c2", "--checks", text])
    assert code == 2
    assert "--checks selects no check" in capsys.readouterr().err


def test_run_matrix_rejects_a_worker_count_below_one_as_argument():
    with pytest.raises(ConfigError, match="^workers must be at least 1, got 0$"):
        run_matrix([("c2", None)], ("q",), family_size=1, workers=0)


def test_run_matrix_starts_no_more_workers_than_cases(monkeypatch):
    recorded = []

    class SerialPool:
        def __init__(self, max_workers):
            recorded.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    # run_matrix imports the pool only when it starts one
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
    rows = run_matrix([("c2", None)], ("q", "fp:2"), family_size=1, workers=64)
    assert recorded == [2]
    assert [row["passed"] for row in rows] == [True, True]


def test_run_matrix_rows_do_not_depend_on_worker_count():
    def rows(workers):
        out = run_matrix([("c2", None), ("s3", None)], ("q", "fp:2"), family_size=2,
                         workers=workers)
        return [{k: v for k, v in row.items() if k != "seconds"} for row in out]

    assert rows(1) == rows(2)


def test_cli_mutation_smoke(capsys):
    assert main(["--group", "s3", "--family-size", "2"]) == 0
    clean_header = capsys.readouterr().out.splitlines()[0]
    code = main(["--group", "s3", "--family-size", "2", "--mutation-smoke"])
    out = capsys.readouterr().out
    assert code == 0
    # the smoke names its case by the clean report's header line
    assert out.splitlines()[0] == clean_header
    assert clean_header.startswith("verify group=s3 |G|=6 ") and "family=2" in clean_header
    assert "mutation smoke: PASS" in out
    for corruption in CORRUPTIONS:
        assert corruption in out


def test_cli_mutation_smoke_report_names_its_case(capsys):
    argv = ["--group", "c6", "--field", "fp:3", "--family-size", "2", "--report", "json"]
    assert main(argv) == 0
    clean = json.loads(capsys.readouterr().out)
    assert main(argv + ["--mutation-smoke"]) == 0
    smoke = json.loads(capsys.readouterr().out)
    assert set(smoke) == {"version", "env", "mutation_smoke"}
    assert smoke["env"] == clean["env"]


def test_cli_mutation_smoke_exits_1_when_the_selection_misses_a_corruption(capsys):
    # ring_axioms sees the corrupted ring, but not the corrupted section or rep
    code = main(["--group", "s3", "--family-size", "2", "--checks", "ring_axioms",
                 "--mutation-smoke", "--report", "json"])
    rows = json.loads(capsys.readouterr().out)["mutation_smoke"]
    assert code == 1
    assert {r["corruption"]: r["detected"] for r in rows} == {
        "ring_mul": True, "xi_block": False, "rep_action": False}


def test_cli_file_group(tmp_path, capsys):
    path = tmp_path / "c2.json"
    path.write_text(json.dumps({"permutations": [[1, 0]]}))
    code = main([
        "--group", str(path), "--subgroup", "", "--family-size", "2",
        "--checks", "group_axioms,ring_axioms",
    ])
    assert code == 0
    env = run_suite(
        SuiteConfig(group=str(path), subgroup=(), field="q", family_size=2,
                    checks=("group_axioms",))
    ).to_dict()["env"]
    assert env["index"] == 2


@pytest.mark.parametrize("labels", [["e", "(0 1 2)", "(0 2 1)"], 3])
def test_group_file_labels_key_is_ignored(tmp_path, labels):
    """Element names are read by no output: a file's "labels" key is ignored."""
    path = tmp_path / "c3.json"
    cfg = SuiteConfig(group=str(path), subgroup=(), family_size=2)
    reports = []
    for data in ({"permutations": [[1, 2, 0]]}, {"permutations": [[1, 2, 0]], "labels": labels}):
        path.write_text(json.dumps(data))
        reports.append(_strip_ms(run_suite(cfg).to_dict()))
    assert reports[0] == reports[1]
    assert all(c["status"] == "pass" for c in reports[1]["checks"])


@pytest.mark.parametrize("content", [
    None, "{not json", "5", "[[1, 0]]",
    '{"permutations": 5}', '{"cayley": 7}',
    '{"cayley": []}', '{"permutations": [[1, 0]], "cayley": [[0, 1], [1, 0]]}',
    # json.load gives up on this nesting with a RecursionError
    pytest.param('{"cayley": ' + "[" * 100_000 + "]" * 100_000 + "}", id="nested-100000"),
])
def test_cli_unreadable_group_file_exit_code(tmp_path, capsys, content):
    path = tmp_path / "g.json"
    if content is None:
        path.mkdir()
    else:
        path.write_text(content)
    code = main(["--group", str(path), "--family-size", "2", "--checks", "group_axioms"])
    err = capsys.readouterr().err
    assert code == 2
    assert "configuration error" in err and str(path) in err


def test_cli_field_beyond_proven_primality_exit_code(capsys):
    code = main(["--group", "s3", "--field", f"fp:{2**89 - 1}", "--family-size", "2",
                 "--checks", "ring_axioms"])
    err = capsys.readouterr().err
    assert code == 2
    assert "configuration error" in err and "not below" in err


# -- targeted corruptions of row-built structure maps --------------------
# Test-only: the CLI's CORRUPTIONS stay as they are.


@pytest.mark.parametrize("field", ["q", "fp:2"])
def test_moved_lambda_entry_is_caught_by_lambda_laws(monkeypatch, field):
    real = adjunction._lambda_matrix
    made = []

    def moved(fld, index, dx, dy):
        m = real(fld, index, dx, dy)
        rows = list(m.nzrows)
        ((j, v),) = rows[0].items()
        rows[0] = {(j + 1) % m.cols: v}
        bad = Matrix(fld, m.rows, m.cols, nzrows=rows)
        nums = list(m.nums)
        nums[j], nums[(j + 1) % m.cols] = 0, v
        made.append((bad, Matrix.from_flat(fld, m.rows, m.cols, nums)))
        return bad

    monkeypatch.setattr(adjunction, "_lambda_matrix", moved)
    [check] = run_suite(small_cfg(field=field, checks=("lambda_laws",))).checks
    assert check.status == "fail"
    assert check.witness["kind"] == "lambda_closed_form"
    assert check.witness["context"] == "pair (rand[1|seed=0|l0],rand[2|seed=0|l1])"
    # the witness serializes the row-built matrix exactly as its dense twin
    assert all(_mat_payload(bad) == _mat_payload(dense) for bad, dense in made)
    assert check.witness["lhs"] in [_mat_payload(dense) for _, dense in made]


def _changed_first_entry(m):
    """m with 1 added to its entry (0, 0)."""
    rows = list(m.nzrows)
    rows[0] = dict(rows[0])
    rows[0][0] = rows[0].get(0, 0) + m.den
    return Matrix(m.field, m.rows, m.cols, den=m.den, nzrows=rows)


@pytest.mark.parametrize("field", ["q", "fp:3"])
def test_changed_pi_block_entry_is_caught_by_projection_formula(monkeypatch, field):
    real = adjunction._pi_blockdiag

    def changed(y, x, cs, invert):
        mor = real(y, x, cs, invert)
        if invert:
            return mor
        bad = _changed_first_entry(mor.matrix)  # entry (0, 0) of the first block
        return Morphism(mor.source, mor.target, bad)

    monkeypatch.setattr(adjunction, "_pi_blockdiag", changed)
    [check] = run_suite(small_cfg(field=field, checks=("projection_formula",))).checks
    assert check.status == "fail"
    assert check.witness["kind"] == "projection_invertible"
    # the identity's name leads; "<name> at pair k", not "pair k: <name>"
    assert check.witness["context"] == "pi . pi_inv at pair 0"


@pytest.mark.parametrize("field", ["q", "fp:2"])
def test_changed_pi_component_is_caught_by_monad_morphism(monkeypatch, field):
    real = monadring.projection_pi

    def changed(y, x, cs):
        mor = real(y, x, cs)
        return Morphism(mor.source, mor.target, _changed_first_entry(mor.matrix))

    # every component the monad morphism reads off pi, and no pi of projection_formula
    monkeypatch.setattr(monadring, "projection_pi", changed)
    [check] = run_suite(small_cfg(field=field, checks=("monad_morphism",))).checks
    assert check.status == "fail"
    assert check.witness["kind"] == "monad_morphism"
    assert check.witness["context"] == "at rand[1|seed=0|mm0]: unit_triangle"


# One targeted corruption per remaining structure map: entry (0, 0) of every
# matrix the map returns changes, in each module that imported the map, and
# each corruption is caught by the check that owns the map, with its witness.
_STRUCTURE_MAP_KILLS = {
    "unit_eta": [("triangle_identities", "triangle_counit_unit",
                  "eps . Res(eta) at rand[1|seed=0|g0]")],
    "counit_eps": [("triangle_identities", "triangle_counit_unit",
                    "eps . Res(eta) at rand[1|seed=0|g0]"),
                   ("counit_section", "counit_section", "eps . xi at rand[1|seed=0|h0]")],
    "lax_iota": [("lambda_laws", "lambda_left_unit", "at rand[1|seed=0|l0]")],
    "projection_pi_inverse": [("projection_formula", "projection_invertible",
                               "pi . pi_inv at pair 0"),
                              ("monad_morphism", "monad_morphism",
                               "at rand[1|seed=0|mm0]: component_left_inverse")],
    "ind_counit": [("triangle_identities", "triangle_ind", "Res(c) . xi at rand[1|seed=0|g0]")],
}


@pytest.mark.parametrize("field", ["q", "fp:2"])
@pytest.mark.parametrize("name", list(_STRUCTURE_MAP_KILLS))
def test_changed_structure_map_is_caught_by_its_check(monkeypatch, name, field):
    real = getattr(adjunction, name)

    def changed(*args):
        mor = real(*args)
        return Morphism(mor.source, mor.target, _changed_first_entry(mor.matrix))

    patched = [mod for mod in (suite, eilenberg, monadring) if vars(mod).get(name) is real]
    assert suite in patched
    for mod in patched:
        monkeypatch.setattr(mod, name, changed)
    kills = _STRUCTURE_MAP_KILLS[name]
    cfg = small_cfg(field=field, family_size=2, checks=tuple(cid for cid, _, _ in kills))
    got = [(c.id, c.status, c.witness["kind"], c.witness["context"])
           for c in run_suite(cfg).checks]
    assert got == [(cid, "fail", kind, context) for cid, kind, context in kills]


# -- a check ends at its first failed identity ----------------------------


def test_a_check_stops_at_its_first_failed_identity(monkeypatch):
    real = suite.coind_mor
    calls = []
    monkeypatch.setattr(suite, "coind_mor", lambda *args: calls.append(args) or real(*args))
    [check] = run_suite(small_cfg(checks=("counit_section",), corruption="xi_block")).checks
    assert (check.status, check.witness["kind"]) == ("fail", "counit_section")
    assert check.witness["context"] == "eps . xi at rand[1|seed=0|h0]"
    # the naturality squares after the failed section are never formed
    assert calls == []


def test_a_later_domain_error_does_not_replace_the_first_failure(monkeypatch):
    real = suite.unit_eta

    def wrong_eta(x, cs):
        eta = real(x, cs)
        return Morphism(eta.source, eta.target, _changed_first_entry(eta.matrix))

    def refused(x, cs):
        raise RepError("ind_counit refused")

    monkeypatch.setattr(suite, "unit_eta", wrong_eta)
    monkeypatch.setattr(suite, "ind_counit", refused)
    [check] = run_suite(small_cfg(checks=("triangle_identities",))).checks
    assert (check.status, check.witness["kind"]) == ("fail", "triangle_counit_unit")
    assert check.witness["context"] == "eps . Res(eta) at rand[1|seed=0|g0]"


def test_row_built_witness_payload_matches_dense_twin():
    for field in (QQ, GF(5)):
        nums = [0, 3, 0, 0, 0, 0, 4, 0]
        dense = Matrix.from_flat(field, 2, 4, nums, 2 if field is QQ else 1)
        rows = Matrix(field, 2, 4, den=dense.den, nzrows=[{1: 3}, {2: 4}])
        assert _mat_payload(rows) == _mat_payload(dense)
        big = Matrix.identity(field, 80)  # above the entry cap: a digest
        assert _mat_payload(big) == _mat_payload(Matrix.from_flat(field, 80, 80, big.nums))
        assert "sha256" in _mat_payload(big)


def test_witness_digest_above_the_entry_cap_is_frozen():
    # 80 x 80 = 6400 entries > _WITNESS_ENTRY_CAP: the payload is a sha256 of
    # (rows, cols, den, each row's sorted nonzeros), pinned so that the lazily
    # imported digest cannot drift
    assert _mat_payload(Matrix.identity(QQ, 80)) == {
        "rows": 80, "cols": 80, "den": 1,
        "sha256": "2d5131a895aa1eaa5a2c3d478625b6004e2f5b1ea8ba053fa3c1f301888a7826",
    }
    nums = [(i * 7 + 3) % 5 for i in range(4900)]
    assert _mat_payload(Matrix.from_flat(GF(5), 70, 70, nums)) == {
        "rows": 70, "cols": 70, "den": 1,
        "sha256": "93ffac4911776a07b54be59f4a5b103950151153a5f3506c0f4af8ba02f461a0",
    }


def test_a_digested_pair_names_its_first_differing_row():
    eye = Matrix.identity(QQ, 80)
    rows = [{i: 1} for i in range(80)]
    rows[5] = {}
    rows[9] = {j: j + 1 for j in range(40)}  # 40 nonzeros, cut at 16
    w = suite._witness("k", "c", Matrix(QQ, 80, 80, nzrows=rows), eye)
    assert w["diff"] == {
        "rows_differing": 2, "first_row": 5, "lhs_row": [], "rhs_row": [[5, 1]],
    }
    # every row of I/2 differs from I; numerators are over each side's den
    half = Matrix(QQ, 80, 80, den=2, nzrows=[{i: 1} for i in range(80)])
    assert suite._witness("k", "c", half, eye)["diff"] == {
        "rows_differing": 80, "first_row": 0, "lhs_row": [[0, 1]], "rhs_row": [[0, 1]],
    }
    rotated = Matrix(QQ, 80, 80, nzrows=rows[9:] + rows[:9])
    assert len(suite._row_diff(rotated, eye)["lhs_row"]) == 16
    # below the cap, or of two shapes, the entries or the shapes say where
    small = Matrix.identity(QQ, 2)
    assert "diff" not in suite._witness("k", "c", small, Matrix.zeros(QQ, 2, 2))
    assert "diff" not in suite._witness("k", "c", eye, Matrix.identity(QQ, 81))


def test_witness_above_the_entry_cap_reads_no_dense_table(tmp_path):
    """S6 over a subgroup of order 3 (index 240): under ring_mul the witness is
    the comparison module's action_associativity, 240 x 13,824,000, which is
    reported by its rows."""
    path = tmp_path / "s6.json"
    path.write_text(json.dumps({"permutations": [[1, 2, 3, 4, 5, 0], [1, 0, 2, 3, 4, 5]]}))
    [check] = run_suite(SuiteConfig(group=str(path), subgroup=(3,), family_size=2,
                                    checks=("em_unit_roundtrip",),
                                    corruption="ring_mul")).checks
    assert check.status == "fail"
    w = check.witness
    assert w["context"].endswith("module axioms fail: action_associativity")
    assert (w["lhs"]["rows"], w["lhs"]["cols"]) == (240, 13_824_000)
    assert "sha256" in w["lhs"] and "sha256" in w["rhs"]
    assert w["diff"] == {"rows_differing": 1, "first_row": 0, "lhs_row": [], "rhs_row": [[0, 1]]}
