"""The seeded families of ``suite.Ctx``: frozen contents, and laziness that changes no verdict.

A passing report names no family size, budget, side or seed key, so the
verdict corpus cannot see a family that drifts while every identity still
holds.  Each rep family is pinned here by its members' dimensions and one
sha256 over their tags, carrier orders and action matrices at the
carrier's generators; each map family by its members' (source, target)
dimensions and one sha256 over their tags and matrices.

Families are built lazily, by whichever check reads them first, so a
check run alone must give the status and witness it gives in the full
run.
"""

import hashlib
from functools import lru_cache

import pytest

from sepmonad.suite import CHECK_IDS, CORRUPTIONS, Ctx, SuiteConfig, run_suite

REP_FAMILIES = ("hreps", "greps", "lam_reps", "mm_objs", "monad_objs", "ext_reps")
MAP_FAMILIES = ("hmors", "gmors", "lam_homs", "ext_homs")


def _update(digest, m):
    rows = [sorted(row.items()) for row in m.nzrows]
    digest.update(repr((m.rows, m.cols, m.den, rows)).encode())


def _fingerprint(ctx, name):
    """(dimensions, sha256) of one family of ``ctx``."""
    digest = hashlib.sha256()
    if name in REP_FAMILIES:
        dims = [x.dim for x in getattr(ctx, name)]
        for x in getattr(ctx, name):
            digest.update(repr((x.tag, x.carrier.order)).encode())
            for g in x.carrier.gens:
                _update(digest, x.mat(g))
    else:
        dims = [(f.source.dim, f.target.dim) for f in getattr(ctx, name)]
        for f in getattr(ctx, name):
            # maps carry no tag; every seeded map's was "" when these were pinned
            digest.update(repr("").encode())
            _update(digest, f.matrix)
    return dims, digest.hexdigest()


_PINS = {
    # (group, field, family size): {family: (dimensions, sha256)}
    ("s4", "q", 1): {
        "hreps": (
            [1],
            "884f365f26e4835622933434b7012832a5f2a34bb9a4fc29c9c580361a8b0661"),
        "hmors": (
            [(1, 1)],
            "27ba02b55f04720bb5efb4d71a8b6cd55a623aa268aaeb44b94458805b30ce6c"),
        "greps": (
            [1, 2, 3],
            "81e3d51eb2accf8f745aadc41a019057cd6daefc4522f6a7ec2970790b8dee55"),
        "gmors": (
            [(1, 2), (2, 3), (3, 1)],
            "1b9ce19506e5ea4177046c8feea0783a7dc72a4b0c5fb1eb79c36a9544af73ab"),
        "lam_reps": (
            [1, 2, 3],
            "049e3fe866c10cbeea277a81479857b70979a3f3f016b7948a7a63ac99453117"),
        "lam_homs": (
            [(1, 2), (2, 3), (3, 1)],
            "241373bc8bad92d9686f3af00cc8bce0dbf39deb3348ecd416cfe26dbc9268cb"),
        "mm_objs": (
            [1],
            "22d8559075390d6959c32ab305d1223b4663105737015e4c97627479855c62dc"),
        "monad_objs": (
            [1, 2, 3],
            "29f5f9c093f9221c0dc0f016bfbc30185149a6e5af81562b81bbec220766077f"),
        "ext_reps": (
            [1, 2, 3],
            "450f5e414abd1529de6a746cc3621cba62a1e128e253a65c3f69b007a9dc651d"),
        "ext_homs": (
            [(1, 2), (2, 3), (3, 1)],
            "bf440db7aece3ee5e4f0751b4f9a0be343301d226ef760598084d889e3787d7c"),
    },
    ("s4", "q", 2): {
        "hreps": (
            [1, 2],
            "de04f689541fecc34d1361964a2218c21d0d207518b0116a66ce8fbba5d3a8e9"),
        "hmors": (
            [(1, 2), (2, 1)],
            "d68508e9e3960efe0621dd2a2fdba3ec0c5291c9528fb3e26e6bd0d47773228e"),
        "greps": (
            [1, 2, 3],
            "81e3d51eb2accf8f745aadc41a019057cd6daefc4522f6a7ec2970790b8dee55"),
        "gmors": (
            [(1, 2), (2, 3), (3, 1)],
            "1b9ce19506e5ea4177046c8feea0783a7dc72a4b0c5fb1eb79c36a9544af73ab"),
        "lam_reps": (
            [1, 2, 3],
            "049e3fe866c10cbeea277a81479857b70979a3f3f016b7948a7a63ac99453117"),
        "lam_homs": (
            [(1, 2), (2, 3), (3, 1)],
            "241373bc8bad92d9686f3af00cc8bce0dbf39deb3348ecd416cfe26dbc9268cb"),
        "mm_objs": (
            [1, 2],
            "976ee0975e619cc190359d2db00237b185de4b115e3b85856dc23d7bf7cb434d"),
        "monad_objs": (
            [1, 2, 3],
            "29f5f9c093f9221c0dc0f016bfbc30185149a6e5af81562b81bbec220766077f"),
        "ext_reps": (
            [1, 2, 3],
            "450f5e414abd1529de6a746cc3621cba62a1e128e253a65c3f69b007a9dc651d"),
        "ext_homs": (
            [(1, 2), (2, 3), (3, 1)],
            "bf440db7aece3ee5e4f0751b4f9a0be343301d226ef760598084d889e3787d7c"),
    },
    ("s4", "q", 10): {
        "hreps": (
            [1, 2, 3, 4, 6, 8, 12, 1, 2, 3],
            "2e104c0568ab0be33ef20a93e4619bc9ac85c4d8b2129761c01a66d4e760b0fd"),
        "hmors": (
            [(1, 2), (2, 3), (3, 4), (4, 6), (6, 8), (8, 12), (12, 1), (1, 2), (2, 3), (3, 1)],
            "f88dca12d9a810ee72c2a5ef6f0ec64b1e4132170c556d870e8e55abd66ea506"),
        "greps": (
            [1, 2, 3, 4, 6],
            "aba1809921d4475ed74f1040184f32bea6d04218d6285381cbcd04343d5d5fad"),
        "gmors": (
            [(1, 2), (2, 3), (3, 4), (4, 6), (6, 1)],
            "b43b3b87beda55371de1635ee84cd16d24d67cb8aac3ddc169bad14c3454c0b7"),
        "lam_reps": (
            [1, 2, 3, 4, 1, 2],
            "656cf660b2ae05ccefec3709bb3af7681fc60ad3a0f20dace7aff10ef289dd7d"),
        "lam_homs": (
            [(1, 2), (2, 3), (3, 4), (4, 1), (1, 2), (2, 1)],
            "9610dc24aad6938afeea3e017ead0eb51c07ac6cb679d73463002b524771824f"),
        "mm_objs": (
            [1, 2, 3, 4, 6, 8, 12, 1, 2, 3],
            "b7e9c4380a66fd1ecda08be62ef3a0aa02f61a32742b05ad391c5aca433eb235"),
        "monad_objs": (
            [1, 2, 3, 4, 6],
            "9f0dbeba74768340d8049f2984bcd61ad4894aff6fd6c124ebf7b26658c91c78"),
        "ext_reps": (
            [1, 2, 3, 4, 1],
            "ba688e9bf4c065648107b4e146b40ff15fa5f85b4fa5892416b29b710183945e"),
        "ext_homs": (
            [(1, 2), (2, 3), (3, 4), (4, 1), (1, 1)],
            "306e2902f4af584113fd876a09313134c68d601d2c44ac45ebc97dcca02f4ea1"),
    },
    # odd, so max(3, n // 2) and max(3, (n + 1) // 2) differ (6 and 7), and at
    # least 12, so the greps and monad_objs cycles reach budget 8
    ("s4", "q", 13): {
        "hreps": (
            [1, 2, 3, 4, 6, 8, 12, 1, 2, 3, 4, 6, 8],
            "3f5b3bc60dd26e20919c541c5b2aec534617e8c54ed6733254d9c85c1ec265da"),
        "hmors": (
            [(1, 2), (2, 3), (3, 4), (4, 6), (6, 8), (8, 12), (12, 1), (1, 2), (2, 3), (3, 4),
             (4, 6), (6, 8), (8, 1)],
            "6f4a2d6d0a896f3045153e5165e0892695ff4297240f9a9f5184056c68ddb802"),
        "greps": (
            [1, 2, 3, 4, 6, 8],
            "6e0245d2fdd21a0527058dc035e0c6f30fa3a9865a016bf37d5db9e63da281b8"),
        "gmors": (
            [(1, 2), (2, 3), (3, 4), (4, 6), (6, 8), (8, 1)],
            "eff5d0241aed4cac45a9b14ed050dc1c81af7e5f3b7d0738ebbf53fcc1887bac"),
        "lam_reps": (
            [1, 2, 3, 4, 1, 2],
            "656cf660b2ae05ccefec3709bb3af7681fc60ad3a0f20dace7aff10ef289dd7d"),
        "lam_homs": (
            [(1, 2), (2, 3), (3, 4), (4, 1), (1, 2), (2, 1)],
            "9610dc24aad6938afeea3e017ead0eb51c07ac6cb679d73463002b524771824f"),
        "mm_objs": (
            [1, 2, 3, 4, 6, 8, 12, 1, 2, 3, 4, 6, 8],
            "82260604382e289cb6a782eec4de68b9c5d9702dc46d9806f2d9b12f34d1a88a"),
        "monad_objs": (
            [1, 2, 3, 4, 6, 8],
            "4be29abf4cc49e712513b9cebef1a7bf348f7888fe70d56d28cf3ef44e332429"),
        "ext_reps": (
            [1, 2, 3, 4, 1, 2],
            "c56a40a02e99eafbccb18b592a462670ced1c88f2f9e08be373034dca888fa99"),
        "ext_homs": (
            [(1, 2), (2, 3), (3, 4), (4, 1), (1, 2), (2, 1)],
            "4b37caabadc661add58b0eb0f52c7aa42e142543f6ae3b9b2a23440c00cfe9ee"),
    },
    ("s3", "fp:3", 3): {
        "hreps": (
            [1, 2, 3],
            "98a9b067242f02719b9c1d8e69d2927f46e6865ec54189cd716602dbf173267b"),
        "hmors": (
            [(1, 2), (2, 3), (3, 1)],
            "c925e6ad0935a2975840c500a22f6bd8b7ab80d839d10f16bdd0c37a717bb522"),
        "greps": (
            [1, 2, 3],
            "99980ab0a49f8ad9006150d87f02a64e1761bda8c6c846f40a9d1732e2a8f1a9"),
        "gmors": (
            [(1, 2), (2, 3), (3, 1)],
            "47a5bea10feb63ec6346551ad4bea35188ce161cffebeeb40a4d6cb59e2d06b5"),
        "lam_reps": (
            [1, 2, 3],
            "6a98021e9cada5655a5692badf6341ec3966c6e80c0e0f32a0c69352cdb8f3b6"),
        "lam_homs": (
            [(1, 2), (2, 3), (3, 1)],
            "714a22d76e385708110d18c3a712d47437c8fa23c672f0276731f10e2f24f6ea"),
        "mm_objs": (
            [1, 2, 3],
            "52135379503b3016230e93cfa3ae95934325599b09508ff7846e7d3d49b0a8d0"),
        "monad_objs": (
            [1, 2, 3],
            "3e153327a9f4fd988b71f8b5cffe44f56f44879d561a815aa728f2101744bdde"),
        "ext_reps": (
            [1, 2, 3],
            "616f7cbaa2159a7c79bd0e8e79d23bf3138cd41ac3bc56456c3683644a9feb22"),
        "ext_homs": (
            [(1, 2), (2, 3), (3, 1)],
            "5d047adb71b4283b0f836d0e8b99e937e18d1901a6ed95f1302065de55d8a728"),
    },
}


@pytest.mark.parametrize("case, name", [(case, name) for case in _PINS for name in _PINS[case]],
                         ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else v)
def test_seeded_family_is_frozen(case, name):
    group, field, family = case
    ctx = Ctx(SuiteConfig(group=group, field=field, family_size=family))
    assert _fingerprint(ctx, name) == _PINS[case][name]


_CASES = [("s3", "q", c) for c in (None,) + CORRUPTIONS] + [("q8", "fp:2", None)]


@lru_cache(maxsize=None)
def _full_run(group, field, corruption):
    cfg = SuiteConfig(group=group, field=field, family_size=2, corruption=corruption)
    return {c.id: (c.status, c.witness) for c in run_suite(cfg).checks}


@pytest.mark.parametrize("cid", CHECK_IDS)
@pytest.mark.parametrize("group, field, corruption", _CASES,
                         ids=[f"{g}-{f}-{c or 'clean'}" for g, f, c in _CASES])
def test_a_check_run_alone_gives_its_verdict_from_the_full_run(group, field, corruption, cid):
    cfg = SuiteConfig(group=group, field=field, family_size=2, corruption=corruption,
                      checks=(cid,))
    [alone] = run_suite(cfg).checks
    assert (alone.status, alone.witness) == _full_run(group, field, corruption)[cid]
