"""scipy.special is imported on first use by an input of more than
``STDLIB_MAX_POINTS`` elements, not by ``import recal``, and the bundled
worked example never imports it, nor ``numpy.polynomial``.

The test process has imported scipy already, so every check runs in a
fresh interpreter.
"""

import json

import numpy as np
import pytest

from conftest import fresh
from recal import MethodId, parse_scenario, run_method, worked_example_scenario
from recal._special import STDLIB_MAX_POINTS

# prints the names of the loaded scipy modules after the code before it
PRINT_SCIPY_MODULES = "\nimport sys\nprint(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
# the same for numpy.polynomial, which numpy itself loads only on first use
PRINT_POLYNOMIAL_MODULES = (
    "\nimport sys\nprint(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))\n"
)
# makes every later ``import scipy...`` raise ImportError
BLOCK_SCIPY = "import sys\nsys.modules['scipy'] = None\n"


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


@pytest.fixture(scope="module")
def large_explicit_path(tmp_path_factory):
    """An explicit scenario of 257 points, past ``STDLIB_MAX_POINTS``: Gaussian
    source and target features on [-4, 4] and a logistic source posterior."""
    s = np.linspace(-4.0, 4.0, 257)
    assert s.size > STDLIB_MAX_POINTS
    src, tgt = np.exp(-0.5 * s**2), np.exp(-0.5 * ((s - 0.3) / 1.1) ** 2)
    obj = {
        "source": {
            "support": s.tolist(),
            "probs": (src / src.sum()).tolist(),
            "posterior": (1.0 / (1.0 + np.exp(2.5 - 1.5 * s))).tolist(),
        },
        "target": {
            "feature": {
                "type": "explicit", "support": s.tolist(), "probs": (tgt / tgt.sum()).tolist()
            },
            "prior": 0.12,
        },
        "methods": "all",
        "functional": "sqrt",
    }
    path = tmp_path_factory.mktemp("lazy") / "large.json"
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


def test_import_loads_no_statistics():
    code = "import sys, recal, recal.cli\nprint('statistics' in sys.modules)\n"
    assert fresh(code) == "False\n"


def worked_example_code(out_dir) -> str:
    """Builds the worked example in process, then runs it through the CLI."""
    return (
        "import recal\n"
        "from recal.cli import main\n"
        "sc = recal.worked_example_scenario()\n"
        "assert sc.source.support.size <= recal._special.STDLIB_MAX_POINTS\n"
        "code = main(['run', '--scenario', str(recal.example_scenario_path()),"
        f" '--methods', 'all', '--out', {str(out_dir)!r}])\n"
        "assert code == 0, code\n"
    )


def test_worked_example_loads_no_scipy(tmp_path):
    assert fresh(worked_example_code(tmp_path) + PRINT_SCIPY_MODULES).endswith("[]\n")
    assert (tmp_path / "table.csv").exists()


def test_worked_example_loads_no_numpy_polynomial(tmp_path):
    """Its Vasicek target takes its Gauss-Hermite rule from dist_core, not
    from ``numpy.polynomial.hermite.hermgauss``."""
    assert fresh(worked_example_code(tmp_path) + PRINT_POLYNOMIAL_MODULES).endswith("[]\n")
    assert (tmp_path / "table.csv").exists()


def test_worked_example_runs_with_scipy_blocked(tmp_path):
    fresh(BLOCK_SCIPY + worked_example_code(tmp_path / "blocked"))
    fresh(worked_example_code(tmp_path / "free"))
    for name in ("table.csv", "curves.csv", "diagnostics.json"):
        assert (tmp_path / "blocked" / name).read_bytes() == (tmp_path / "free" / name).read_bytes()


def test_large_input_needs_scipy():
    code = (
        BLOCK_SCIPY
        + "import numpy as np\n"
        "from recal._special import ndtr\n"
        "ndtr(np.zeros(64))\n"
        "try:\n"
        "    ndtr(np.zeros(65))\n"
        "except ImportError:\n"
        "    print('ImportError')\n"
    )
    assert fresh(code) == "ImportError\n"


@pytest.mark.parametrize(
    "scenario", ["explicit_path", "large_explicit_path"], ids=["worked_example", "large"]
)
def test_cheap_methods_run_without_scipy(scenario, request, tmp_path):
    """The cheap methods, Platt and the logistic CSPD import no scipy on any
    support: their links and regressors are numpy's."""
    path = request.getfixturevalue(scenario)
    code = (
        "from recal.cli import main\n"
        f"code = main(['run', '--scenario', {str(path)!r}, '--methods',"
        f" 'capped_scaling,label_shift,fjs,platt,logistic_cspd', '--out', {str(tmp_path)!r}])\n"
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
    # more threads than cores race for the first scipy.special import, on
    # inputs just above the size the standard library takes
    code = (
        "import sys, threading\n"
        "import numpy as np\n"
        "sys.setswitchinterval(1e-6)\n"
        "from recal import logistic_cspd_family, normal_cspd_family, solvers\n"
        f"u = np.linspace(0.01, 0.99, {STDLIB_MAX_POINTS + 1})\n"
        "def values():\n"
        "    return (normal_cspd_family(u).x.tobytes(), logistic_cspd_family(u).x.tobytes(),\n"
        "            solvers.ndtr(u).tobytes())\n"
        "out = []\n"
        "def work():\n"
        "    out.append(values())\n"
        "threads = [threading.Thread(target=work) for _ in range(8)]\n"
        "for t in threads: t.start()\n"
        "for t in threads: t.join(timeout=60)\n"
        "assert not any(t.is_alive() for t in threads)\n"
        "assert 'scipy.special' in sys.modules\n"
        "assert len(out) == 8 and len(set(out)) == 1, len(out)\n"
        "print(out[0] == values())\n"
    )
    assert fresh(code) == "True\n"
