"""What the benchmark harness reads of the kernel module.

``perfbench/run.py`` puts ``backend_name()`` and ``has_speed()`` in its
report's env block and names its work-count ledgers after the backend.
``perfbench/tracer.py`` traces the public functions defined in
``sepmonad.backend`` (the ``backend.rrefj_int.*`` and ``backend.rref_mod.*``
spans) and skips its overflow-fallback counter when ``backend._speed`` is
None.  A fresh interpreter checks that ``import sepmonad`` alone provides
all of it.

``perfbench`` also times a ``verify`` process's start-up (``setup_s``), so a
second probe checks that the CLI loads no process pool, digest or
dataclass machinery that a single verdict never runs, and no ``fractions``
(nor the ``decimal`` it pulls in): a matrix surfaces Fraction entries only
when one is read, so ``exactlin`` imports it there.
"""

import json
import os
import subprocess
import sys

import sepmonad

_PROBE = """
import json, sys
import sepmonad
b = sys.modules["sepmonad.backend"]
print(json.dumps([b.backend_name(), b.has_speed(), b._speed is None,
                  b.rrefj_int.__module__, b.rref_mod.__module__]))
"""


# What sepmonad imports anyway comes first, so that only what importing the
# CLI adds on top of it is measured.
_IMPORT_PROBE = """
import sys
import argparse, json, random, collections, functools, itertools, math
before = set(sys.modules)
import sepmonad.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""

_NOT_AT_STARTUP = ("concurrent.futures", "multiprocessing", "dataclasses", "inspect", "hashlib",
                   "fractions", "decimal")


def _probe(code):
    """Run ``code`` in a fresh interpreter on the tests' sepmonad; its stdout as JSON."""
    # the directory the tests imported sepmonad from
    src = os.path.dirname(os.path.dirname(os.path.abspath(sepmonad.__file__)))
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": src}
    # -B: the bare environment drops PYTHONDONTWRITEBYTECODE, and bytecode
    # written into src/ changes what perfbench measures of a start-up
    out = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    return json.loads(out.stdout)


def test_backend_module_is_what_perfbench_reads():
    name, speed, speed_none, rrefj_mod, rref_mod = _probe(_PROBE)
    assert name == "pure"
    assert speed is False
    assert speed_none is True
    assert rrefj_mod == rref_mod == "sepmonad.backend"


def test_cli_import_loads_no_pool_digest_or_dataclasses():
    added = _probe(_IMPORT_PROBE)
    assert "sepmonad.cli" in added
    loaded = [m for m in added for n in _NOT_AT_STARTUP if m == n or m.startswith(n + ".")]
    assert loaded == []
