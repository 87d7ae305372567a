"""conelab loads no SciPy module at run time.

The angular FFTs are numpy.fft, the radial derivative is whole-array
numpy, and the banded LU solves call LAPACK in the OpenBLAS that numpy
loads (conelab.lapack).  A fresh process imports conelab, runs the four
simulating subcommands on a small circle config and one evolve.run on
the FFT path (j_max = 64), and lists every scipy module it loaded, after
the import and again at the end.  A sphere is spectrum-only, so its
symbolic subcommands load none either.  A numpy without those LAPACK
symbols makes the import fail, naming the missing routine.
"""

import json
import subprocess
import sys

_SCRIPT = """
import json, sys

def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

import conelab
after_import = scipy_modules()
from conelab.cli import main
from conelab import Config, run
config, out, commands = sys.argv[1], sys.argv[2], sys.argv[3:]
for command in commands:
    assert main([command, "--config", config, "--out", out + "/" + command]) == 0
if "simulate" in commands:
    run(Config(j_max=64, t_max=3.0, delta_t=0.05, T=0.002))
print(json.dumps([after_import, scipy_modules()]))
"""


def _loaded(tmp_path, src_env, config: dict, *commands) -> list:
    """The scipy modules a fresh process loads importing conelab, and after running commands."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    done = subprocess.run([sys.executable, "-c", _SCRIPT, str(path), str(tmp_path), *commands],
                          env=src_env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_a_circle_run_loads_no_other_scipy(tmp_path, src_env):
    config = {"t_max": 3.0, "delta_t": 0.05, "T": 0.005, "j_max": 4, "snapshot_every": 5}
    assert _loaded(tmp_path, src_env, config, "simulate", "norms", "asympt", "lab") == [[], []]


def test_sphere_poles_and_domain_load_no_other_scipy(tmp_path, src_env):
    config = {"geometry": "sphere", "j_max": 6}
    assert _loaded(tmp_path, src_env, config, "poles", "domain") == [[], []]


def test_import_names_a_missing_lapack_routine(src_env):
    # the symbol lookup through numpy's linalg extension finds no dgttrs
    script = """
import ctypes

class WithoutDgttrs(ctypes.CDLL):
    def __getitem__(self, name):
        if name == "scipy_dgttrs_64_":
            raise AttributeError(name)
        return super().__getitem__(name)

ctypes.CDLL = WithoutDgttrs
try:
    import conelab
except ImportError as e:
    print(e)
"""
    done = subprocess.run([sys.executable, "-c", script], env=src_env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("numpy's OpenBLAS has no LAPACK dgttrs (scipy_dgttrs_64_)")
