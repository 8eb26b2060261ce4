"""scipy.special is imported on first use, not by ``import recal``.

The test process has imported scipy already, so every check runs in a
fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from recal import MethodId, parse_scenario, run_method, worked_example_scenario

SRC = str(Path(__file__).resolve().parents[1] / "src")

# prints the names of the loaded scipy modules after the code before it
PRINT_SCIPY_MODULES = "\nimport sys\nprint(sorted(m for m in sys.modules if m.startswith('scipy')))\n"


def fresh(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return done.stdout


@pytest.fixture(scope="module")
def explicit_path(tmp_path_factory):
    """The worked example written with an explicit support, so that parsing
    it calls no binomial or Vasicek generator."""
    ex = worked_example_scenario()
    obj = {
        "source": {
            "support": ex.source.support.tolist(),
            "probs": ex.source.feature_dist.probs.tolist(),
            "posterior": ex.source.posterior.values.tolist(),
        },
        "target": {
            "feature": {
                "type": "explicit",
                "support": ex.target.support.tolist(),
                "probs": ex.target.feature_dist.probs.tolist(),
            },
            "prior": ex.target.prior,
        },
        "methods": "all",
        "functional": "sqrt",
    }
    path = tmp_path_factory.mktemp("lazy") / "explicit.json"
    path.write_text(json.dumps(obj))
    return path


# every number a method result ``r`` carries, as exact bytes and reprs;
# evaluated in both processes
DIGEST = (
    "repr((r.posterior.values.tobytes().hex(), r.achieved_mean, r.implied_auc,"
    " sorted(r.params.items()), r.diagnostics))"
)


def test_import_loads_no_scipy():
    assert fresh("import recal, recal.cli" + PRINT_SCIPY_MODULES) == "[]\n"


def test_cheap_methods_run_without_scipy(explicit_path, tmp_path):
    code = (
        "from recal.cli import main\n"
        f"code = main(['run', '--scenario', {str(explicit_path)!r}, '--methods',"
        f" 'capped_scaling,label_shift,fjs', '--out', {str(tmp_path)!r}])\n"
        "assert code == 0, code\n"
    )
    assert fresh(code + PRINT_SCIPY_MODULES).endswith("[]\n")
    assert (tmp_path / "curves.csv").exists()


@pytest.mark.parametrize(
    "method", ["platt", "logistic_cspd", "normal_cspd", "roc_qmm", "two_param_qmm"]
)
def test_first_use_matches_preloaded_scipy(explicit_path, method):
    # each method runs first in the fresh process; this test process has scipy loaded
    code = (
        "import sys\n"
        "from recal import MethodId, parse_scenario, run_method\n"
        f"sc = parse_scenario({str(explicit_path)!r})\n"
        "assert not any(m.startswith('scipy') for m in sys.modules)\n"
        f"r = run_method(MethodId({method!r}), sc.source, sc.target, sc.settings)\n"
        f"print({DIGEST})\n"
    )
    sc = parse_scenario(explicit_path)
    r = run_method(MethodId(method), sc.source, sc.target, sc.settings)
    expected = eval(DIGEST, {}, {"r": r})
    assert fresh(code).rstrip("\n") == expected


def test_concurrent_first_use_is_safe():
    # more threads than cores race for the first scipy.special lookup
    code = (
        "import sys, threading\n"
        "sys.setswitchinterval(1e-6)\n"
        "from recal import binomial_dist, vasicek_mixture_dist\n"
        "out = []\n"
        "def work():\n"
        "    out.append((binomial_dist(40, 0.3).probs.tobytes(),\n"
        "                vasicek_mixture_dist(40, 0.3, 0.2).probs.tobytes()))\n"
        "threads = [threading.Thread(target=work) for _ in range(8)]\n"
        "for t in threads: t.start()\n"
        "for t in threads: t.join(timeout=60)\n"
        "assert not any(t.is_alive() for t in threads)\n"
        "assert len(out) == 8 and len(set(out)) == 1, len(out)\n"
        "print(out[0] == (binomial_dist(40, 0.3).probs.tobytes(),"
        " vasicek_mixture_dist(40, 0.3, 0.2).probs.tobytes()))\n"
    )
    assert fresh(code) == "True\n"
