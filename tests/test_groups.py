"""Group construction, validation, cosets, and the factorization map."""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepmonad.groups import (
    PERMUTATION_CLOSURE_CAP,
    GroupError,
    group_from_cayley_table,
    group_from_permutations,
    load_group_json,
    right_cosets,
    subgroup_closure,
    subgroup_generated,
)
from sepmonad.presets import load_preset, preset_names

# S5 from a 5-cycle and a transposition, as in perfbench/s5.json.
S5 = group_from_permutations([(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)])
S4, _ = load_preset("s4")


def _sha256(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def test_s3_bfs_element_order_is_frozen():
    group, _ = load_preset("s3")
    assert group.order == 6
    assert [group.perms[i] for i in group.elements] == [
        (0, 1, 2),
        (1, 0, 2),
        (1, 2, 0),
        (0, 2, 1),
        (2, 1, 0),
        (2, 0, 1),
    ]


def test_s3_transposition_cosets_frozen():
    group, default = load_preset("s3")
    h = subgroup_generated(group, default)
    assert h.elements == (0, 1)
    cs = right_cosets(group, h)
    assert cs.cosets == ((0, 1), (2, 3), (4, 5))
    assert cs.reps == (0, 2, 4)
    assert cs.index == 3


def test_s3_alternating_cosets():
    group, _ = load_preset("s3")
    rot = group.index_of_perm((1, 2, 0))
    h = subgroup_generated(group, (rot,))
    cs = right_cosets(group, h)
    assert cs.index == 2
    assert cs.cosets == ((0, 2, 5), (1, 3, 4))


def test_factorize_recomposes_everywhere():
    for name in preset_names():
        group, default = load_preset(name)
        h = subgroup_generated(group, default)
        cs = right_cosets(group, h)
        for x in group.elements:
            hh, r = cs.fact[x]
            assert hh in h.elements
            assert r in cs.reps
            assert group.mul(hh, r) == x


def test_permutation_closure_above_the_cap_is_refused():
    # S7 has 5040 elements: the closure stops at the cap
    s7 = [(1, 2, 3, 4, 5, 6, 0), (1, 0, 2, 3, 4, 5, 6)]
    assert PERMUTATION_CLOSURE_CAP == 1024
    with pytest.raises(GroupError, match="size cap of 1024 elements"):
        group_from_permutations(s7)


def test_permutation_closure_above_the_entry_cap_is_refused():
    # 256 elements of degree 4096 fill the 1024 ** 2 entry cap; the 257th is refused
    cycle = tuple(range(1, 4096)) + (0,)
    with pytest.raises(GroupError, match=r"^closure of 257 permutations of degree 4096 "
                                         r"exceeds the entry cap of 1048576$"):
        group_from_permutations([cycle])


def test_inverse_and_identity_laws():
    group, _ = load_preset("d4")
    for x in group.elements:
        assert group.mul(x, group.inverse(x)) == 0
        assert group.mul(0, x) == x
        assert group.mul(x, 0) == x


def test_q8_relations():
    group, default = load_preset("q8")
    # _q8_table's element 2*axis + sign: 1, -1, i, -i, j, -j, k, -k
    i_, j_, k_, m1, mk = 2, 4, 6, 1, 7
    assert group.mul(i_, i_) == m1
    assert group.mul(j_, j_) == m1
    assert group.mul(k_, k_) == m1
    assert group.mul(i_, j_) == k_
    assert group.mul(j_, i_) == mk
    assert group.mul(m1, m1) == 0
    assert group.order == 8
    h = subgroup_generated(group, default)
    assert h.order == 4  # <i> = {1, i, -1, -i}


def test_nonassociative_latin_square_rejected():
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
    with pytest.raises(GroupError) as err:
        group_from_cayley_table(table)
    assert any(v["kind"] == "assoc" for v in err.value.violations)
    assert [1, 1, 2] in [v["triple"] for v in err.value.violations if v["kind"] == "assoc"]


def _loop_times_group(loop, group_table):
    """The direct product table, element (l, g) at index l * |G| + g."""
    m = len(group_table)
    return [[loop[a1][b1] * m + group_table[a2][b2] for b1 in range(len(loop)) for b2 in range(m)]
            for a1 in range(len(loop)) for a2 in range(m)]


_LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1], [3, 4, 1, 2, 0], [4, 2, 0, 1, 3]]


def _corrupted(name, kind):
    """A copy of a group's table with one defect; S4 is order 24, S5 order 120."""
    if kind == "loop":
        return _LOOP5 if name == "s4" else _loop_times_group(_LOOP5, S4.table)
    t = [list(row) for row in (S4 if name == "s4" else S5).table]
    if kind == "swapped":  # duplicates in rows 1, 3 and columns 2, 4
        t[1][2], t[3][4] = t[3][4], t[1][2]
    elif kind == "true":  # True == 1 duplicates the 1 of row 2 and column 3
        t[2][3] = True
    elif kind == "float":
        t[2][3] = 1.0
    elif kind == "identity_row":
        t[0][1], t[0][2] = t[0][2], t[0][1]
    return t


# (message, violation count, sha256 of the JSON violation list), pinned from
# the per-instance checks before the fast path existed: the fast path must
# leave every refusal and witness as it was.
_VIOLATIONS = {
    ("s4", "swapped"): ("invalid multiplication table (183 violations)", 183,
                        "5931ba0720283d27d7ed1ca9d36cb387d47b7c2f8f0a24391f6204c0a292990d"),
    ("s4", "true"): ("invalid multiplication table (92 violations)", 92,
                     "05d2581d82ef08522ca51246d1306c132f44e410b0b41ba3fa2dc8ceac451738"),
    ("s4", "float"): ("table entries out of range", 1,
                      "cdb681ab2bd0974bd5c5339fe066301e0add2f21610693831bda6a14ec323a96"),
    ("s4", "identity_row"): ("invalid multiplication table (186 violations)", 186,
                             "de515790499589ca9f36d8315450735a4eca79e542b334238e7056f433bcaf54"),
    ("s4", "loop"): ("invalid multiplication table (51 violations)", 51,
                     "4600d8f3464315a4d4598e7f2a55737661fb2ccf96cd9d74beba8c44601999c9"),
    ("s5", "swapped"): ("invalid multiplication table (247 violations)", 247,
                        "4d49601c83b795c03a8eae4ab3a4045cc1ff4ed955e1109f2e6daaba18c77866"),
    ("s5", "true"): ("invalid multiplication table (124 violations)", 124,
                     "b7290c0b5bf5b9d37fe0dfc8fc6b099b840b9bff4a06aaaedd60123e11bb1a39"),
    ("s5", "float"): ("table entries out of range", 1,
                      "cdb681ab2bd0974bd5c5339fe066301e0add2f21610693831bda6a14ec323a96"),
    ("s5", "identity_row"): ("invalid multiplication table (133 violations)", 133,
                             "bbdecd193869e169384012d80b0adf8dcb2d4f4a41b19409c725f1650ab16ec2"),
    ("s5", "loop"): ("invalid multiplication table (15552 violations)", 15552,
                     "50f089e5c7fb1714e4a2ead302651ef293f81b01af5b676303a19fce86a3bd16"),
}


@pytest.mark.parametrize("name,kind", sorted(_VIOLATIONS))
def test_corrupted_table_violations_are_frozen(name, kind):
    # s4 (order 24) and the 5-element loop take the all-triples associativity
    # check; s5 and the loop times S4 (order 120) take Light's test
    with pytest.raises(GroupError) as err:
        group_from_cayley_table(_corrupted(name, kind))
    violations = err.value.violations
    digest = hashlib.sha256(json.dumps(violations).encode()).hexdigest()
    assert (str(err.value), len(violations), digest) == _VIOLATIONS[name, kind]


def test_bool_entry_equal_to_its_int_is_refused():
    # True == 1, so the per-instance checks find nothing; the entry type is
    # what refuses the table, one bad_entry per entry that is not an int
    with pytest.raises(GroupError, match="of type int") as err:
        group_from_cayley_table([[0, True], [True, 0]])
    assert err.value.violations == [
        {"kind": "bad_entry", "at": [0, 1], "value": True},
        {"kind": "bad_entry", "at": [1, 0], "value": True},
    ]


def test_bad_tables_rejected():
    with pytest.raises(GroupError):
        group_from_cayley_table([[0, 0], [1, 1]])  # not a Latin square
    with pytest.raises(GroupError):
        group_from_cayley_table([[1, 0], [0, 1]])  # wrong identity position
    with pytest.raises(GroupError):
        group_from_cayley_table([[0, 1], [1, 2]])  # out-of-range entry


def test_cayley_roundtrip_from_permutation_group():
    group, _ = load_preset("v4")
    table = [[group.mul(x, y) for y in group.elements] for x in group.elements]
    rebuilt = group_from_cayley_table(table)
    assert rebuilt.order == group.order
    for x in group.elements:
        for y in group.elements:
            assert rebuilt.mul(x, y) == group.mul(x, y)


def test_permutation_group_requires_bijections():
    with pytest.raises(GroupError):
        group_from_permutations([(0, 0)])


def test_subgroup_of_non_members_rejected():
    group, _ = load_preset("s3")
    with pytest.raises(GroupError):
        subgroup_generated(group, (17,))


def test_load_group_json(tmp_path):
    group, _ = load_preset("c4")
    path = tmp_path / "c4.json"
    path.write_text(json.dumps({"permutations": [list(group.perms[g]) for g in group.gens]}))
    loaded = load_group_json(str(path))
    assert loaded.order == 4

    cayley = {"cayley": [[group.mul(x, y) for y in group.elements] for x in group.elements]}
    path2 = tmp_path / "c4_table.json"
    path2.write_text(json.dumps(cayley))
    loaded2 = load_group_json(str(path2))
    assert loaded2.order == 4
    assert loaded2.mul(1, 3) == 0


def test_coset_space_index_times_order(s3_cs):
    assert s3_cs.index * s3_cs.subgroup.order == s3_cs.group.order


def _two_sided_closure(mul, seed):
    """Brute-force oracle: add every product of two members until stable."""
    have = set(seed) | {0}
    while True:
        grown = have | {mul(a, b) for a in have for b in have}
        if grown == have:
            return have
        have = grown


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_subgroup_closure_matches_two_sided_oracle(data):
    group = data.draw(st.sampled_from((S4, S5)))
    seed = data.draw(st.lists(st.integers(0, group.order - 1), max_size=3))
    assert subgroup_closure(group.mul, seed) == _two_sided_closure(group.mul, seed)


# Recorded before the group walks and coset enumerations were merged into
# one walk and one enumeration: the element order, the generating sets and
# the coset spaces must not change with the traversal.
_S5_PERMS_SHA256 = "99e0ae474ada3186b25bcb606d427584a396267f7047920d75d7c09b5a2f2030"
_COSET_SPACE_SHA256 = {
    "a4": "bda1cd0453d408f5959e4833afb585ed57edf22c45f69479e69f23326d8c7053",
    "c2": "ae45b5b0eece018beede0ffc5625f1e23b449d41975872f3dc67c8f342282329",
    "c3": "2ea271c33b24a348dc6f1174f42361860ee7699ac805bbb2a02aa33d7dd2831e",
    "c4": "3ea268cc4085872c7dadade918722dbf99e58fbab201d6aa60215f88c12a5b1e",
    "c6": "347d9db384ca1ed9db91c985cc70170fbf25f63316b79595732851b683f40d23",
    "d4": "138e65099f22427e50c5ca64de3049fa42b7decc954d63cc1f2327edc692b91a",
    "q8": "f4ea58e760f687bc892a137162c7d230f28b82cda28265fd515d77d10c6f3339",
    "s3": "d85ce01d107fd7ec7672e0c3a1968334b8eb0d95ac100005e3de27d02c2173a2",
    "s4": "09656f3a74604e4e2681637e6e13737033163a8b463aec014f332ce19d75a0d6",
    "v4": "310d5b57dbddf25288b9b903737c97423966ead3ba6a6090a09bcd0528c4ff1a",
}


def test_s5_element_order_is_frozen():
    assert S5.order == 120
    assert _sha256(S5.perms) == _S5_PERMS_SHA256


def test_greedy_generators_are_frozen():
    q8, _ = load_preset("q8")
    assert q8.gens == (1, 2, 4)
    # order 120 > 64, so the table check runs Light's test on these
    assert group_from_cayley_table(S5.table).gens == (1, 2)


@pytest.mark.parametrize("name", sorted(_COSET_SPACE_SHA256))
def test_coset_spaces_are_frozen(name):
    group, default = load_preset(name)
    h = subgroup_generated(group, default if default is not None else group.gens)
    cs = right_cosets(group, h)
    assert _sha256((cs.cosets, cs.reps, cs.coset_of, cs.fact)) == _COSET_SPACE_SHA256[name]
