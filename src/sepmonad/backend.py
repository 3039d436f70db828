"""Elimination kernel dispatch: compiled extension when built, pure Python otherwise.

The environment variable SEPMONAD_BACKEND selects the implementation:

* ``auto`` (default): compiled kernels when built, pure fallback otherwise.
* ``pure``: always use the pure Python kernels.
* ``speed``: require the compiled kernels; ImportError if they are missing.

The compiled kernels work on machine words and raise OverflowError when any
value leaves their safe range; the dispatcher then reruns the call on the
pure big-integer kernels, so results are exact in all cases.
"""

import os

from . import _pure

try:
    from . import _speed
except ImportError:
    _speed = None

_MODE = os.environ.get("SEPMONAD_BACKEND", "auto").lower()
if _MODE not in ("auto", "pure", "speed"):
    raise ValueError(f"SEPMONAD_BACKEND must be auto, pure or speed, got {_MODE!r}")
if _MODE == "speed" and _speed is None:
    raise ImportError("SEPMONAD_BACKEND=speed but the compiled extension is not built")

_ACTIVE = _speed if (_speed is not None and _MODE != "pure") else _pure


def backend_name():
    return "speed" if _ACTIVE is not _pure else "pure"


def has_speed():
    return _speed is not None


def rrefj_int(m, rows, cols):
    if _ACTIVE is _pure:
        return _pure.rrefj_int(m, rows, cols)
    try:
        return _ACTIVE.rrefj_int(m, rows, cols)
    except OverflowError:
        return _pure.rrefj_int(m, rows, cols)


def rref_mod(m, rows, cols, p):
    if _ACTIVE is _pure:
        return _pure.rref_mod(m, rows, cols, p)
    try:
        return _ACTIVE.rref_mod(m, rows, cols, p)
    except OverflowError:
        return _pure.rref_mod(m, rows, cols, p)
