"""Cross-kernel byte guard: every golden CLI config writes the same bytes
on OpenBLAS's default kernel, on its Sandybridge kernel and with numpy's
SIMD dispatch restricted to its baseline.

One subprocess per setting runs every config of ``test_cli_golden`` and
prints the SHA-256 digest of each artefact; the digests must agree across
the settings, config by config. Every subprocess runs on one OpenBLAS
thread, so the kernel is the only thing that differs. The configs known to
depend on the kernel (through the BLAS products of the HK-family means, the
distance-weighted steps and the flows, and LAPACK in the fixed point of the
prejudice model) are marked ``xfail(strict=True)``: a fix that makes one of
them match fails here until it leaves ``KERNEL_DEPENDENT``, so the set can
only shrink.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from test_cli_golden import CONFIGS

TESTS = Path(__file__).resolve().parent

# every interval HK variant, the other HK-family steps, the distance-weighted
# steps, fj and the flows; the norm-ball hk-ball-max matches already
KERNEL_DEPENDENT = {
    "hk-symmetric", "hk-symmetric-open", "hk-asymmetric", "hk-per-agent", "hk-shifted",
    "truth", "inertial", "phi", "heterophily", "fj", "flow-matrix-file", "altafini3-thinned",
}

# Run in a fresh working directory: writes MATRIX_CSV where the configs'
# {"file": "w.csv"} matrix is read, runs every config and prints the digests.
DIGESTS = """
import hashlib, json
from pathlib import Path

from opiniondyn.cli import run
from test_cli_golden import CONFIGS, MATRIX_CSV

Path("w.csv").write_text(MATRIX_CSV)
digests = {}
for case, config in sorted(CONFIGS.items()):
    out = Path("out", case)
    run(json.loads(json.dumps(config)), out_dir=out)
    digests[case] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                     for p in sorted(out.iterdir())}
print(json.dumps(digests))
"""


def _openblas_on_x86_64() -> bool:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "openblas" in blas.get("name", "").lower() and platform.machine() in ("x86_64",
                                                                                  "AMD64")


def _settings() -> dict:
    """The environment of each setting. NPY_DISABLE_CPU_FEATURES is set as CI
    sets it: to the dispatched targets above numpy's baseline that this CPU
    has (naming another one warns)."""
    from numpy._core import _multiarray_umath

    above = ("X86_V4", "X86_V3", "AVX512_ICL", "AVX512_SPR")
    baseline = " ".join(f for f in _multiarray_umath.__cpu_dispatch__ if f in above)
    return {"default": {}, "sandybridge": {"OPENBLAS_CORETYPE": "Sandybridge"},
            "baseline-dispatch": {"NPY_DISABLE_CPU_FEATURES": baseline}}


def _digests(setting: dict, cwd: Path) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    path = [str(TESTS), str(TESTS.parent / "src"), env.get("PYTHONPATH", "")]
    env.update(setting, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(p for p in path if p))
    done = subprocess.run([sys.executable, "-c", DIGESTS], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    """Each setting's {config: {artefact: digest}}."""
    if not _openblas_on_x86_64():
        pytest.skip("OPENBLAS_CORETYPE selects a kernel only for OpenBLAS on x86-64")
    return {name: _digests(setting, tmp_path_factory.mktemp(name))
            for name, setting in _settings().items()}


@pytest.mark.parametrize("case", [
    pytest.param(case, marks=pytest.mark.xfail(
        strict=True, reason="its bytes depend on the BLAS kernel (ROADMAP item 1)"))
    if case in KERNEL_DEPENDENT else case
    for case in sorted(CONFIGS)
])
def test_artefact_bytes_do_not_depend_on_the_kernel(case, digests):
    assert {name: found[case] for name, found in digests.items()} == {
        name: digests["default"][case] for name in digests}
