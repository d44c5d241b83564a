"""numpy is delayvar's one runtime dependency (pyproject.toml): importing the
package and running both solvers loads no other numerical library."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import delayvar

_SCRIPT = """
import sys
import numpy as np
import delayvar
from delayvar.problem import ControlProblem, Integrand, IsoperimetricProblem, integrand_from_expr
from delayvar.solver import CollocationScheme, solve_el, solve_pmp

el = IsoperimetricProblem(
    m=1, n=1, tau=0.5, t1=0.0, t2=1.0, L=integrand_from_expr("qd^2", 1, 1),
    g=(integrand_from_expr("q", 1, 1),), l=[1 / 6],
    history=lambda t: np.array([t * (1 - t)]), boundary=[[0.0]])
lq = ControlProblem(
    n=1, mc=1, tau=0.5, t1=0.0, t2=1.0, L=Integrand(lambda v: v[2] * v[2], name="u^2"),
    phi=(Integrand(lambda v: v[3] + v[2], name="q_tau + u"),),
    history=lambda t: np.zeros(1), terminal_state=[1.0])
assert solve_el(el, scheme=CollocationScheme(nodes=16))[2].converged
assert solve_pmp(lq, scheme=CollocationScheme(nodes=16))[2].converged
print(" ".join(sorted(name for name in sys.modules if name.split(".")[0] == "scipy")))
"""


def test_solvers_load_no_scipy():
    src = str(Path(delayvar.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _SCRIPT], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "", f"scipy modules loaded: {done.stdout.strip()}"
