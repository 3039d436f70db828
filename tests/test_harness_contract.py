"""What the benchmark harness reads of the kernel module.

``perfbench/run.py`` puts ``backend_name()`` and ``has_speed()`` in its
report's env block and names its work-count ledgers after the backend.
``perfbench/tracer.py`` traces the public functions defined in
``sepmonad.backend`` (the ``backend.rrefj_int.*`` and ``backend.rref_mod.*``
spans) and skips its overflow-fallback counter when ``backend._speed`` is
None.  A fresh interpreter checks that ``import sepmonad`` alone provides
all of it.
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


def test_backend_module_is_what_perfbench_reads():
    # the directory the tests imported sepmonad from
    src = os.path.dirname(os.path.dirname(os.path.abspath(sepmonad.__file__)))
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", _PROBE], capture_output=True, text=True,
                         env=env, check=True)
    name, speed, speed_none, rrefj_mod, rref_mod = json.loads(out.stdout)
    assert name == "pure"
    assert speed is False
    assert speed_none is True
    assert rrefj_mod == rref_mod == "sepmonad.backend"
