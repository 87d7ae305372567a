"""SciPy serves conelab only through its banded LAPACK routines.

The angular FFTs are numpy.fft and the radial derivative is whole-array
numpy, so no run on a circle should load scipy's sparse, FFT or special
function packages.  A fresh process runs the four simulating
subcommands on a small circle config and one evolve.run on the FFT path
(j_max = 64), then lists which of those packages it loaded.
"""

import json
import subprocess
import sys

_SCRIPT = """
import json, sys
from conelab.cli import main
from conelab.evolve import RunConfig, run
config, out = sys.argv[1], sys.argv[2]
for command in ("simulate", "norms", "asympt", "lab"):
    assert main([command, "--config", config, "--out", out + "/" + command]) == 0
run(RunConfig(j_max=64, t_max=3.0, delta_t=0.05, T=0.002))
print(json.dumps([name for name in ("scipy.sparse", "scipy.fft", "scipy.fftpack",
                                    "scipy.special") if name in sys.modules]))
"""


def test_a_circle_run_loads_no_other_scipy(tmp_path, src_env):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"t_max": 3.0, "delta_t": 0.05, "T": 0.005,
                                  "j_max": 4, "snapshot_every": 5}))
    done = subprocess.run([sys.executable, "-c", _SCRIPT, str(config), str(tmp_path)],
                          env=src_env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []
