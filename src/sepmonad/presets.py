"""Built-in group presets with documented generators and default subgroups.

Each preset fixes a generator list (permutations, except the quaternion
group which ships as a Cayley table) and a default subgroup, given by
generating permutations and resolved to element indices of the
breadth-first element order.  The selection covers abelian and
nonabelian groups, normal and non-normal subgroups, indices 2 through 6,
and orders up to 24.
"""

from .groups import group_from_cayley_table, group_from_permutations

# name -> (generator permutations, default subgroup generator permutations)
_PERM_PRESETS = {
    # order 2; trivial subgroup, index 2
    "c2": (((1, 0),), ()),
    # order 3; trivial subgroup, index 3
    "c3": (((1, 2, 0),), ()),
    # order 4 cyclic; H = <square of the generator>, index 2
    "c4": (((1, 2, 3, 0),), ((2, 3, 0, 1),)),
    # order 6 cyclic; trivial subgroup, index 6
    "c6": (((1, 2, 3, 4, 5, 0),), ()),
    # Klein four-group; one involution, index 2
    "v4": (((1, 0, 3, 2), (2, 3, 0, 1)), ((1, 0, 3, 2),)),
    # symmetric group on 3 letters from (01) and (012); H = <(01)>, index 3
    "s3": (((1, 0, 2), (1, 2, 0)), ((1, 0, 2),)),
    # dihedral group of the square from a rotation and a reflection;
    # H = <reflection>, non-normal, index 4
    "d4": (((1, 2, 3, 0), (0, 3, 2, 1)), ((0, 3, 2, 1),)),
    # alternating group on 4 letters from (012) and (123);
    # H = the Klein four-group, index 3
    "a4": (((1, 2, 0, 3), (0, 2, 3, 1)), ((1, 0, 3, 2), (2, 3, 0, 1))),
    # symmetric group on 4 letters from (01) and (0123);
    # H = the stabilizer of the last letter, from (01) and (012), index 4
    "s4": (((1, 0, 2, 3), (1, 2, 3, 0)), ((1, 0, 2, 3), (1, 2, 0, 3))),
}


def _q8_table():
    """Quaternion multiplication encoded as (sign, axis) with axes 1,i,j,k.

    Element 2*axis + sign, so 1, -1, i, -i, j, -j, k, -k are 0 through 7.
    """

    def mul(a, b):
        sa, xa = a % 2, a // 2
        sb, xb = b % 2, b // 2
        sign = sa ^ sb
        if xa == 0:
            axis = xb
        elif xb == 0:
            axis = xa
        elif xa == xb:
            axis, sign = 0, sign ^ 1
        else:
            axis = ({1, 2, 3} - {xa, xb}).pop()
            # cyclic i->j->k keeps the sign; the reverse order flips it
            if (xa, xb) not in ((1, 2), (2, 3), (3, 1)):
                sign ^= 1
        return 2 * axis + sign

    return [[mul(a, b) for b in range(8)] for a in range(8)]


def preset_names():
    return sorted(list(_PERM_PRESETS) + ["q8"])


def load_preset(name):
    """The preset group and its default subgroup generator indices."""
    if name == "q8":
        # H = <i>, index 2
        return group_from_cayley_table(_q8_table()), (2,)
    if name not in _PERM_PRESETS:
        raise KeyError(f"unknown preset {name!r}; choose from {', '.join(preset_names())}")
    perms, sub = _PERM_PRESETS[name]
    g = group_from_permutations([tuple(p) for p in perms])
    return g, tuple(g.index_of_perm(p) for p in sub)
