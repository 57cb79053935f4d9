"""Outputs that do not depend on the BLAS or SIMD kernels numpy picks.

Every sum on the solve path is taken in a fixed order and every power is an
explicit product, so trajectory.csv and rescaled.csv must be byte-identical
whichever OpenBLAS core and numpy SIMD targets run.  Each variant is a
subprocess whose own environment alone selects the kernels.
"""

import json
import os
import platform
import subprocess
import sys

import pytest

import solitonlab

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

from conftest import config_path

OUTPUTS = (
    ("ts_complete_steady", "trajectory.csv"),
    ("dw_complete_steady", "trajectory.csv"),
    ("dw_m2_chart", "rescaled.csv"),
)
KERNEL_VARS = ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")

CHILD = """
import hashlib, json, os, sys
from solitonlab.runio import load_config, run_solve
out, runs = sys.argv[1], json.loads(sys.argv[2])
digests = {}
for path, name, csv in runs:
    run_solve(load_config(path), os.path.join(out, name))
    with open(os.path.join(out, name, csv), "rb") as fh:
        digests[name + "/" + csv] = hashlib.sha256(fh.read()).hexdigest()
print(json.dumps(digests))
"""


def kernel_variants() -> dict:
    """Environment settings that select other kernels on this CPU: OpenBLAS
    cores the CPU can run, and numpy with its AVX-512 dispatch targets off."""
    variants = {"default": {}}
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return variants
    variants["Prescott"] = {"OPENBLAS_CORETYPE": "Prescott"}
    if __cpu_features__.get("AVX2") and __cpu_features__.get("FMA3"):
        variants["Haswell"] = {"OPENBLAS_CORETYPE": "Haswell"}
    if __cpu_features__.get("AVX512F") and __cpu_features__.get("AVX512_SKX"):
        variants["SkylakeX"] = {"OPENBLAS_CORETYPE": "SkylakeX"}
    avx512 = [
        t for t in __cpu_dispatch__
        if (t.startswith("AVX512") or t == "X86_V4") and __cpu_features__.get(t)
    ]
    if avx512:
        variants["no_avx512"] = {"NPY_DISABLE_CPU_FEATURES": " ".join(avx512)}
    return variants


def digests_under(settings: dict, out) -> dict:
    src = os.path.dirname(os.path.dirname(solitonlab.__file__))
    env = {k: v for k, v in os.environ.items() if k not in KERNEL_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    runs = [(str(config_path(name + ".json")), name, csv) for name, csv in OUTPUTS]
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(out), json.dumps(runs)],
        env=env | settings,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_csv_bytes_do_not_depend_on_the_kernels(tmp_path):
    variants = kernel_variants()
    if len(variants) == 1:
        pytest.skip("no alternative kernels to select on this machine")
    digests = {name: digests_under(env, tmp_path / name) for name, env in variants.items()}
    reference = digests["default"]
    assert len(reference) == len(OUTPUTS)
    for name, got in digests.items():
        assert got == reference, name
