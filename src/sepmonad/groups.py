"""Finite groups as multiplication tables, subgroups, and right cosets.

Element 0 is always the identity.  Groups built from permutation generators
get a deterministic breadth-first element order, so every downstream basis
and report is reproducible.  Coset spaces are right cosets H\\G: values of
H-equivariant functions on G are determined on them, which is the index
set the coinduction construction needs.  Each element factors uniquely as
x = h * r with h in H and r the representative of the coset H * x.
"""

from collections import deque
import json


class GroupError(ValueError):
    """Invalid group data; ``violations`` lists every offending instance."""

    def __init__(self, message, violations=None):
        super().__init__(message)
        self.violations = violations or []


class FiniteGroup:
    """A finite group given by its full multiplication table.

    table[a][b] is the index of a*b; inv[a] is the index of the inverse.
    ``gens`` is a generating set used by representation validators, and
    ``perms`` optionally keeps the underlying permutations.
    """

    def __init__(self, table, inv, labels, gens, perms=None):
        self.order = len(table)
        self.table = table
        self.inv = inv
        self.labels = labels
        self.gens = gens
        self.perms = perms
        self.elements = tuple(range(self.order))
        self.identity = 0

    def mul(self, a, b):
        return self.table[a][b]

    def inverse(self, a):
        return self.inv[a]

    def label(self, a):
        return self.labels[a]

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
        self.identity = 0
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


def _cycle_label(perm):
    n = len(perm)
    seen = [False] * n
    parts = []
    for s in range(n):
        if seen[s] or perm[s] == s:
            continue
        cyc = [s]
        seen[s] = True
        t = perm[s]
        while t != s:
            cyc.append(t)
            seen[t] = True
            t = perm[t]
        parts.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(parts) or "e"


def group_from_permutations(generators, size_cap=1024):
    """Close a set of permutations under composition, breadth-first.

    Generators are 0-based image tuples over a common finite set.  Element
    0 is the identity; the rest follow BFS discovery order.
    """
    gens = [tuple(p) for p in generators]
    degree = len(gens[0]) if gens else 1
    for p in gens:
        if len(p) != degree or sorted(p) != list(range(degree)):
            raise GroupError(f"not a permutation of 0..{degree - 1}: {p}")
    ident = tuple(range(degree))
    elems = [ident]
    index = {ident: 0}
    queue = deque([ident])
    while queue:
        x = queue.popleft()
        for g in gens:
            y = _compose(x, g)
            if y not in index:
                if len(elems) >= size_cap:
                    raise GroupError(
                        f"closure exceeds the size cap of {size_cap} elements"
                    )
                index[y] = len(elems)
                elems.append(y)
                queue.append(y)
    n = len(elems)
    table = [[index[_compose(elems[i], elems[j])] for j in range(n)] for i in range(n)]
    inv = [0] * n
    for i in range(n):
        for j in range(n):
            if table[i][j] == 0:
                inv[i] = j
                break
    labels = [_cycle_label(p) for p in elems]
    gen_idx = tuple(dict.fromkeys(index[g] for g in gens if index[g] != 0))
    return FiniteGroup(table, inv, labels, gen_idx, perms=tuple(elems))


def subgroup_closure(mul, seed):
    """The subgroup generated by ``seed`` and the identity, as a set.

    ``mul`` is the product of the ambient group, for example a group's or
    a subgroup's ``mul``.  Each element found is multiplied on both sides
    by every element found so far until nothing new appears; in a finite
    group that is the generated subgroup.
    """
    have = set(seed) | {0}
    queue = deque(have)
    while queue:
        x = queue.popleft()
        for y in tuple(have):
            for z in (mul(x, y), mul(y, x)):
                if z not in have:
                    have.add(z)
                    queue.append(z)
    return have


def _greedy_generators(table):
    n = len(table)
    have = {0}
    gens = []
    for x in range(1, n):
        if x not in have:
            gens.append(x)
            have = subgroup_closure(lambda a, b: table[a][b], have | {x})
    return tuple(gens)


def group_from_cayley_table(table, labels=None):
    """Validate a multiplication table and wrap it as a FiniteGroup.

    Index 0 must be a two-sided identity.  Every violated axiom instance is
    collected into the raised GroupError.
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
        for a in _greedy_generators(table):
            for x in range(n):
                xa = table[x][a]
                rowa = table[a]
                for y in range(n):
                    if table[xa][y] != table[x][rowa[y]]:
                        violations.append({"kind": "assoc", "triple": [x, a, y]})
    if violations:
        raise GroupError(f"invalid multiplication table ({len(violations)} violations)", violations)
    inv = [0] * n
    for i in range(n):
        for j in range(n):
            if table[i][j] == 0:
                if table[j][i] != 0:
                    raise GroupError(
                        "inverse not two-sided", [{"kind": "inverse", "pair": [i, j]}]
                    )
                inv[i] = j
                break
    if labels is None:
        labels = [str(i) for i in range(n)]
    tbl = [list(row) for row in table]
    return FiniteGroup(tbl, inv, list(labels), _greedy_generators(table))


def subgroup_generated(g, gens):
    """Smallest subgroup of g containing the given element indices."""
    gens = tuple(gens)
    for x in gens:
        if not 0 <= x < g.order:
            raise GroupError(f"generator index {x} out of range")
    return Subgroup(g, subgroup_closure(g.mul, gens), gens)


class CosetSpace:
    """Right cosets H\\G with representatives and x = h*r factorization.

    Cosets are enumerated in order of their least element; the coset H
    itself comes first and its representative is the identity.  ``fact[x]``
    is the unique pair (h, r) with h in H, r a representative, x = h*r.
    """

    def __init__(self, group, subgroup):
        self.group = group
        self.subgroup = subgroup
        n = group.order
        table = group.table
        coset_of = [-1] * n
        cosets = []
        reps = []
        for x in range(n):
            if coset_of[x] >= 0:
                continue
            members = sorted(table[h][x] for h in subgroup.elements)
            idx = len(cosets)
            for y in members:
                if coset_of[y] >= 0:
                    raise GroupError("cosets do not partition the group")
                coset_of[y] = idx
            cosets.append(tuple(members))
            reps.append(members[0])
        self.cosets = tuple(cosets)
        self.reps = tuple(reps)
        self.coset_of = tuple(coset_of)
        self.index = len(cosets)
        if self.reps[0] != 0:
            raise GroupError("representative of the trivial coset must be the identity")
        fact = []
        for x in range(n):
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


def factorize(cs, x):
    """The unique (h, r) with h in H, r a coset representative, x = h*r."""
    return cs.fact[x]


def load_group_json(path):
    """Load a group from a JSON file.

    The file holds either {"permutations": [[...], ...]} with 0-based image
    rows, or {"cayley": [[...], ...]}, not both; an optional "labels" list
    names the elements.
    """
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise GroupError("group file must hold a JSON object")
    labels = data.get("labels")
    if labels is not None and not isinstance(labels, list):
        raise GroupError("'labels' must be a list")
    if "permutations" in data and "cayley" in data:
        raise GroupError("group file must give 'permutations' or 'cayley', not both")
    if "permutations" in data:
        g = group_from_permutations([tuple(p) for p in _int_rows(data, "permutations")])
    elif "cayley" in data:
        g = group_from_cayley_table(_int_rows(data, "cayley"))
    else:
        raise GroupError("group file needs a 'permutations' or 'cayley' key")
    if labels is not None:
        if len(labels) != g.order:
            raise GroupError("label count does not match group order")
        g.labels = [str(s) for s in labels]
    return g


def _int_rows(data, key):
    """data[key], checked to be a list of lists of integers."""
    rows = data[key]
    if not isinstance(rows, list) or not all(
        isinstance(row, list) and all(type(v) is int for v in row) for row in rows
    ):
        raise GroupError(f"'{key}' must be a list of lists of integers")
    return rows
