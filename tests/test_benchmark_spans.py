"""The benchmark's tracer (perfbench/spans.py) wraps package functions by
module attribute name. Renaming or deleting one of them, or calling it
through a reference bound at import time, would leave the traced
benchmark without its per-layer figures; this check catches that in the
ordinary test run. It also checks that every damage iteration solves
through ``mechanics.solve_sparse``, also when it reuses a kept factor, so
that the traced solve count stays whole.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# installs the wrappers, runs two small steps and prints the layers that
# recorded no call; the process is separate because install() patches
# the package's modules for the life of the interpreter
SCRIPT = """
import sys
import spans
from frostsim import driver
tracer = spans.Tracer()
spans.install(tracer)
driver.run({"mesh": {"h": 0.2}, "time": {"steps": 2}}, out_dir=sys.argv[1])
metrics, missing = spans.layer_metrics(tracer, writes_output=True)
print(sorted(missing))
print(metrics["mechanics.solves"], metrics["mechanics.damage_iterations"])
"""


def test_tracer_wraps_every_layer(tmp_path):
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                           str(ROOT / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    missing, mech_counts = proc.stdout.strip().splitlines()
    assert missing == "[]"
    solves, damage_iterations = map(int, mech_counts.split())
    assert solves == damage_iterations > 0
