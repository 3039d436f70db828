"""Pure and compiled kernels must agree bit for bit, with overflow fallback."""

import random

import pytest

from sepmonad import backend
from sepmonad import _pure

speed = pytest.importorskip("sepmonad._speed")


def test_backend_reports_name():
    assert backend.backend_name() in ("pure", "speed")
    assert backend.has_speed()


@pytest.mark.parametrize("seed", range(4))
def test_rrefj_agreement_random(seed):
    rng = random.Random(seed)
    for _ in range(120):
        rows, cols = rng.randrange(1, 7), rng.randrange(1, 7)
        m = [rng.randrange(-9, 10) for _ in range(rows * cols)]
        if rows >= 2 and rng.random() < 0.5:  # force dependent rows
            k = rng.randrange(-2, 3)
            for j in range(cols):
                m[cols + j] = k * m[j]
        assert speed.rrefj_int(list(m), rows, cols) == _pure.rrefj_int(list(m), rows, cols)


def test_rrefj_large_entries_agree_or_overflow():
    rng = random.Random(99)
    saw_overflow = False
    for _ in range(60):
        rows = cols = 4
        m = [rng.randrange(-(2**55), 2**55) for _ in range(rows * cols)]
        want = _pure.rrefj_int(list(m), rows, cols)
        try:
            assert speed.rrefj_int(list(m), rows, cols) == want
        except OverflowError:
            saw_overflow = True
    assert saw_overflow


def test_dispatcher_falls_back_on_overflow():
    big = 2**55
    m = [big, 1, 1, big]
    with pytest.raises(OverflowError):
        speed.rrefj_int(list(m), 2, 2)
    assert backend.rrefj_int(list(m), 2, 2) == _pure.rrefj_int(list(m), 2, 2)


def test_dispatcher_falls_back_on_huge_inputs():
    m = [10**40, 1, 1, 10**40]
    assert backend.rrefj_int(list(m), 2, 2) == _pure.rrefj_int(list(m), 2, 2)


def test_mod_kernels_agree():
    rng = random.Random(11)
    for p in (2, 3, 5, 2**31 - 1):
        a = [rng.randrange(p) for _ in range(16)]
        assert speed.rref_mod(list(a), 4, 4, p) == _pure.rref_mod(list(a), 4, 4, p)
