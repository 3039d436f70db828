"""SEPMONAD_BACKEND selects the kernels at import, with or without the extension."""

import os
import subprocess
import sys


def _env(backend):
    # a cleared environment, except that sepmonad must stay importable
    env = {"PATH": "/usr/bin:/bin", "SEPMONAD_BACKEND": backend}
    if "PYTHONPATH" in os.environ:
        env["PYTHONPATH"] = os.environ["PYTHONPATH"]
    return env


def test_backend_env_selects_pure():
    code = "import sepmonad.backend as b; print(b.backend_name())"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=_env("pure"),
    )
    assert out.stdout.strip() == "pure"


def test_backend_env_rejects_unknown():
    code = "import sepmonad.backend"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=_env("gpu"),
    )
    assert out.returncode != 0
    assert "SEPMONAD_BACKEND" in out.stderr
