"""Finite groups as multiplication tables, subgroups, and right cosets.

Element 0 is always the identity.  Every traversal of a generating set is
one breadth-first walk, ``generator_walk``, which right-multiplies each
reached element by each generator once.  It orders the elements of a
permutation group, so every downstream basis and report is reproducible;
it closes a seed to the subgroup it generates in O(|K| * |seed|) products,
since in a finite group inverses are powers; and ``repcat`` checks a
representation's homomorphism law on the edges it yields.

A permutation group's table is built in one pass over that walk: each
(element, generator) product is composed once, into a right
multiplication map r_g, and column b = b' * g of the table, with (b', g)
the walk edge that discovered b, is column b' read through r_g.  A table
given as data is validated by one exact fast test (a Latin square with
identity row and column, and Light's associativity test on greedy
generators); only a table that fails it goes through the per-instance
checks that list every violation.

Coset spaces are right cosets H\\G: values of H-equivariant functions on G
are determined on them, which is the index set the coinduction
construction needs.  They are enumerated once, by
``right_coset_partition``, for the coset space of a case and for the
permutation blocks of ``repcat.random_rep`` alike.  Each element factors
uniquely as x = h * r with h in H and r the representative of the coset
H * x.
"""

from collections import deque
import json

# The most elements group_from_permutations closes a generating set to; its
# square bounds the entries the closure stores, elements times degree.
PERMUTATION_CLOSURE_CAP = 1024


class GroupError(ValueError):
    """Invalid group data; ``violations`` lists every offending instance."""

    def __init__(self, message, violations=None):
        super().__init__(message)
        self.violations = violations or []


class FiniteGroup:
    """A finite group given by its full multiplication table.

    table[a][b] is the index of a*b; inv[a] is the index of the inverse;
    element 0 is the identity.  ``gens`` is a generating set used by
    representation validators, and ``perms`` optionally keeps the
    underlying permutations.
    """

    def __init__(self, table, inv, gens, perms=None):
        self.order = len(table)
        self.table = table
        self.inv = inv
        self.gens = gens
        self.perms = perms
        self.elements = tuple(range(self.order))

    def mul(self, a, b):
        return self.table[a][b]

    def inverse(self, a):
        return self.inv[a]

    def index_of_perm(self, perm):
        if self.perms is None:
            raise ValueError("group was not built from permutations")
        perm = tuple(perm)
        for i, q in enumerate(self.perms):
            if q == perm:
                return i
        raise ValueError(f"permutation {perm} is not an element of this group")

    def __repr__(self):
        return f"<FiniteGroup order {self.order}>"


class Subgroup:
    """A subgroup as a sorted element-index set of a parent group."""

    def __init__(self, parent, elements, gens):
        self.parent = parent
        self.elements = tuple(sorted(elements))
        if not self.elements or self.elements[0] != 0:
            raise GroupError("subgroup must contain the identity")
        self.gens = tuple(gens)
        self.order = len(self.elements)
        self._member = frozenset(self.elements)

    def mul(self, a, b):
        return self.parent.table[a][b]

    def inverse(self, a):
        return self.parent.inv[a]

    def __contains__(self, x):
        return x in self._member

    def __repr__(self):
        return f"<Subgroup order {self.order} of group order {self.parent.order}>"


def _compose(a, b):
    """Permutation product a*b: apply b first, then a."""
    return tuple(a[i] for i in b)


def generator_walk(mul, gens, start=0):
    """Breadth-first walk from ``start`` by right multiplication with ``gens``.

    Yields ``(x, g, mul(x, g))`` for every reached x and every generator g,
    expanding each reached element once, in order of discovery.  In a
    finite group the elements reached from the identity form the subgroup
    the generators generate, because inverses are powers.
    """
    seen = {start}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for g in gens:
            y = mul(x, g)
            yield x, g, y
            if y not in seen:
                seen.add(y)
                queue.append(y)


def group_from_permutations(generators):
    """Close a set of permutations under composition, breadth-first.

    Generators are 0-based image tuples over a common finite set.  Element
    0 is the identity; the rest follow the discovery order of
    ``generator_walk``.  A closure above ``PERMUTATION_CLOSURE_CAP``
    elements, or above its square in stored entries (elements times
    degree), is refused before the element that crosses the bound is
    stored.
    """
    gens = [tuple(p) for p in generators]
    degree = len(gens[0]) if gens else 1
    for p in gens:
        if len(p) != degree or sorted(p) != list(range(degree)):
            raise GroupError(f"not a permutation of 0..{degree - 1}: {p}")
    ident = tuple(range(degree))
    index = {ident: 0}
    # parent[b] is the walk edge (b', g) that discovered element b, and
    # right[g][i] the index of element i times g, one map per distinct g:
    # the walk expands the elements in index order, so appending fills it.
    parent = [None]
    right = {g: [] for g in gens}
    for x, g, y in generator_walk(_compose, list(right), ident):
        j = index.get(y)
        if j is None:
            if len(index) >= PERMUTATION_CLOSURE_CAP:
                raise GroupError(
                    f"closure exceeds the size cap of {PERMUTATION_CLOSURE_CAP} elements")
            if (len(index) + 1) * degree > PERMUTATION_CLOSURE_CAP ** 2:
                raise GroupError(
                    f"closure of {len(index) + 1} permutations of degree {degree} exceeds "
                    f"the entry cap of {PERMUTATION_CLOSURE_CAP ** 2}")
            j = index[y] = len(index)
            parent.append((index[x], g))
        right[g].append(j)
    # column b of the table is a * b over all a; with b = b' * g it is
    # column b' right-multiplied by g
    cols = [list(range(len(index)))]
    for b_prev, g in parent[1:]:
        cols.append(list(map(right[g].__getitem__, cols[b_prev])))
    table = [list(row) for row in zip(*cols)]
    inv = [row.index(0) for row in table]
    gen_idx = tuple(dict.fromkeys(index[g] for g in gens if index[g] != 0))
    return FiniteGroup(table, inv, gen_idx, perms=tuple(index))


def subgroup_closure(mul, seed):
    """The subgroup generated by ``seed`` and the identity, as a set.

    ``mul`` is the product of the ambient group, for example a group's or
    a subgroup's ``mul``: the set ``generator_walk`` reaches from the
    identity with ``seed`` as generators.
    """
    return {0}.union(y for _, _, y in generator_walk(mul, seed))


def _greedy_generators(table):
    """Each element not yet generated by the ones before it, in index order."""
    have = {0}
    gens = []
    for x in range(1, len(table)):
        if x not in have:
            gens.append(x)
            have = subgroup_closure(lambda a, b: table[a][b], gens)
    return tuple(gens)


def _is_latin_with_identity(table):
    """Whether every list row of ``table`` is a permutation of the int
    entries 0..n-1, with row and column 0 the identity.

    Columns are not tested: with Light's test passing on top, the table is
    associative with bijective left multiplications, so it is a group, and
    a group's columns are permutations already.
    """
    n = len(table)
    ident = list(range(n))
    full = set(ident)
    return (
        all(set(map(type, row)) == {int} and set(row) == full for row in table)
        and table[0] == ident
        and [row[0] for row in table] == ident
    )


def group_from_cayley_table(table):
    """Validate a multiplication table and wrap it as a FiniteGroup.

    Index 0 must be a two-sided identity.  A group table passes one exact
    fast test: rows that permute 0..n-1 with identity row and column, and
    Light's associativity test as one list equality per (generator, row).
    Any other table goes through the per-instance checks, and every
    violated axiom instance is collected into the raised GroupError.
    Entries must be of type int exactly: a bool or other int subclass is
    refused even where it equals a valid entry.
    """
    n = len(table)
    if n == 0:
        raise GroupError("table is empty; a group has at least its identity")
    violations = []
    for i, row in enumerate(table):
        if len(row) != n:
            violations.append({"kind": "not_square", "row": i, "len": len(row)})
    if violations:
        raise GroupError("table is not square", violations)
    tbl = [list(row) for row in table]
    gens = _greedy_generators(tbl) if _is_latin_with_identity(tbl) else None
    # Light's test: (x*a)*y = x*(a*y) for all y is row x*a equal to row a read through row x
    if gens is None or not all(list(map(tbl[x].__getitem__, tbl[a])) == tbl[tbl[x][a]]
                               for a in gens for x in range(n)):
        _raise_violations(tbl, gens)
        # no violation yet no fast path: int-subclass entries, such as True for 1
        raise GroupError("table entries must be of type int", [
            {"kind": "bad_entry", "at": [i, j], "value": v}
            for i, row in enumerate(tbl) for j, v in enumerate(row) if type(v) is not int
        ])
    # a group by now, so the right inverse read off each row is two-sided
    inv = [row.index(0) for row in tbl]
    return FiniteGroup(tbl, inv, gens)


def _raise_violations(table, gens):
    """Raise GroupError listing every violated axiom instance, if any.

    ``gens`` are the greedy generators, or None if not yet computed.
    """
    n = len(table)
    violations = []
    for i, row in enumerate(table):
        for j, v in enumerate(row):
            if not isinstance(v, int) or not 0 <= v < n:
                violations.append({"kind": "bad_entry", "at": [i, j], "value": v})
    if violations:
        raise GroupError("table entries out of range", violations)
    for x in range(n):
        if table[0][x] != x:
            violations.append({"kind": "no_identity", "side": "left", "x": x, "got": table[0][x]})
        if table[x][0] != x:
            violations.append({"kind": "no_identity", "side": "right", "x": x, "got": table[x][0]})
    for i in range(n):
        seen_row = {}
        seen_col = {}
        for j in range(n):
            v = table[i][j]
            if v in seen_row:
                violations.append({"kind": "row_duplicate", "row": i, "cols": [seen_row[v], j], "value": v})
            seen_row[v] = j
            w = table[j][i]
            if w in seen_col:
                violations.append({"kind": "col_duplicate", "col": i, "rows": [seen_col[w], j], "value": w})
            seen_col[w] = j
    if n <= 64:
        for a in range(n):
            for b in range(n):
                ab = table[a][b]
                for c in range(n):
                    if table[ab][c] != table[a][table[b][c]]:
                        violations.append({"kind": "assoc", "triple": [a, b, c]})
    else:
        # Light's test: checking (x*a)*y = x*(a*y) for generators a suffices.
        for a in gens if gens is not None else _greedy_generators(table):
            for x in range(n):
                xa = table[x][a]
                rowa = table[a]
                for y in range(n):
                    if table[xa][y] != table[x][rowa[y]]:
                        violations.append({"kind": "assoc", "triple": [x, a, y]})
    if violations:
        raise GroupError(f"invalid multiplication table ({len(violations)} violations)", violations)


def subgroup_generated(g, gens):
    """Smallest subgroup of g containing the given element indices."""
    gens = tuple(gens)
    for x in gens:
        if not 0 <= x < g.order:
            raise GroupError(f"generator index {x} out of range")
    return Subgroup(g, subgroup_closure(g.mul, gens), gens)


def right_coset_partition(mul, elements, k_elems):
    """The right cosets K*x of ``k_elems`` that cover ``elements``.

    ``elements`` is in increasing order, so the cosets come in order of
    their least element, each as a sorted tuple.  Returns the list of
    cosets and a dict from each element to the position of its coset.
    """
    cosets = []
    coset_of = {}
    for x in elements:
        if x in coset_of:
            continue
        members = sorted(mul(h, x) for h in k_elems)
        for y in members:
            if y in coset_of:
                raise GroupError("cosets do not partition the group")
            coset_of[y] = len(cosets)
        cosets.append(tuple(members))
    return cosets, coset_of


class CosetSpace:
    """Right cosets H\\G with representatives and x = h*r factorization.

    Cosets come from ``right_coset_partition``: in order of their least
    element, so the coset H itself comes first and its representative is
    the identity.  ``fact[x]`` is the unique pair (h, r) with h in H, r a
    representative, x = h*r.
    """

    def __init__(self, group, subgroup):
        self.group = group
        self.subgroup = subgroup
        cosets, coset_of = right_coset_partition(group.mul, group.elements, subgroup.elements)
        self.cosets = tuple(cosets)
        self.reps = tuple(c[0] for c in cosets)
        self.coset_of = tuple(coset_of[x] for x in group.elements)
        self.index = len(cosets)
        if self.reps[0] != 0:
            raise GroupError("representative of the trivial coset must be the identity")
        table = group.table
        fact = []
        for x in group.elements:
            r = self.reps[coset_of[x]]
            h = table[x][group.inv[r]]
            if h not in subgroup or table[h][r] != x:
                raise GroupError(f"factorization failed at element {x}")
            fact.append((h, r))
        self.fact = tuple(fact)

    def __repr__(self):
        return f"<CosetSpace index {self.index}>"


def right_cosets(g, h):
    """The right coset space H\\G for a subgroup h of g."""
    if h.parent is not g:
        raise GroupError("subgroup does not belong to this group")
    return CosetSpace(g, h)


def load_group_json(path):
    """Load a group from a JSON file.

    The file holds either {"permutations": [[...], ...]} with 0-based image
    rows, or {"cayley": [[...], ...]}, not both.  Any other key, such as
    a list of element names, is ignored: no output reads it.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise GroupError("group file nests too deeply") from None
    if not isinstance(data, dict):
        raise GroupError("group file must hold a JSON object")
    if "permutations" in data and "cayley" in data:
        raise GroupError("group file must give 'permutations' or 'cayley', not both")
    if "permutations" in data:
        return group_from_permutations([tuple(p) for p in _int_rows(data, "permutations")])
    if "cayley" in data:
        return group_from_cayley_table(_int_rows(data, "cayley"))
    raise GroupError("group file needs a 'permutations' or 'cayley' key")


def _int_rows(data, key):
    """data[key], checked to be a list of lists of integers."""
    rows = data[key]
    if not isinstance(rows, list) or not all(
        isinstance(row, list) and all(type(v) is int for v in row) for row in rows
    ):
        raise GroupError(f"'{key}' must be a list of lists of integers")
    return rows
