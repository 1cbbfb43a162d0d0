"""Which entry points load what of NumPy's random package and SciPy's
special functions, and how, each in a fresh interpreter, and that the chunk
threads load no executor.

``ltfsm.streams._import_compiled`` imports a compiled leaf module without
running its package.  ``Philox`` comes from ``numpy.random._philox`` at
``import ltfsm``, never the ``numpy.random`` package (``mtrand``,
``Generator`` and the other bit generators).  The LePage marginal path
(``stable-check``, ``stable_marginal_check``) draws only uniforms,
exponentials and signs, so it must run without SciPy's ufuncs.  The
Gaussian draws and the Gamma-ratio bounds load, at first use, only the
compiled ufunc module ``scipy.special._ufuncs`` through
``ltfsm.streams._special_ufunc``: never the ``scipy.special`` package, whose
``__init__`` loads an array-API layer, ``concurrent.futures`` and
``logging``.  The loaded objects are the packages' own, the loader takes
them from a package that is already imported, and it falls back to the
package import when the lean route raises ``ImportError``.
"""

import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _run(body: str) -> list[str]:
    """Run ``body`` in a fresh interpreter; returns its stdout lines, the
    last one ``loaded=True`` or ``loaded=False`` for ``scipy.special``."""
    script = (
        "import sys\n"
        f"{body}\n"
        "print(f\"loaded={'scipy.special' in sys.modules}\")\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def _cli(argv: list[str]) -> str:
    """``ltfsm argv`` in-process, its exit code (``SystemExit`` included)
    caught, so the script can report the modules it loaded."""
    return (
        "from ltfsm.cli import main\n"
        "try:\n"
        f"    code = main({argv!r})\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "print(f'code={code}')"
    )


@pytest.mark.parametrize(
    ("body", "code"),
    [
        ("import ltfsm", None),
        (_cli(["--help"]), "code=0"),
        (_cli(["simulate", "--alpha", "3", "--hurst", "0.5", "--epsilon", "0.5",
               "--seed", "1"]), "code=2"),
        (_cli(["stable-check", "--alpha", "1.2", "--terms", "20", "--samples", "50",
               "--seed", "3"]), None),  # at any exit code
        ("from ltfsm import RandomStream, stable_marginal_check\n"
         "stable_marginal_check(1.2, 20, 50, RandomStream(3))", None),
    ],
    ids=["import", "help", "simulate-rejected", "stable-check", "stable_marginal_check"],
)
def test_the_lepage_path_and_rejections_never_load_scipy_special(body, code):
    lines = _run(body)
    assert lines[-1] == "loaded=False"
    assert code is None or lines[-2] == code


@pytest.mark.parametrize(
    "body",
    [
        "import ltfsm",
        _cli(["stable-check", "--alpha", "1.2", "--terms", "20", "--samples", "50",
              "--seed", "3"]),
        # one-row chunks on two threads
        ("import ltfsm.experiments as ex\n"
         "from ltfsm import RandomStream\n"
         "ex._CHUNK_BYTES = 1\n"
         "ex.stable_marginal_check(1.2, 20, 50, RandomStream(3), threads=2)"),
        # the same, drawing Gaussians
        ("import ltfsm.experiments as ex\n"
         "from ltfsm import RandomStream\n"
         "ex._CHUNK_BYTES = 1\n"
         "ex.series_path_ensemble(1.2, 0.7, 4, 3, 2, 8, RandomStream(5), grid_points=4, "
         "threads=2)"),
    ],
    ids=["import", "stable-check", "threaded-chunks", "threaded-series-chunks"],
)
def test_the_chunk_threads_load_no_executor_and_no_logging(body):
    lines = _run(body + "\nprint(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))")
    assert lines[-2] == "[]"


_NUMPY_RANDOM = ("numpy.random._philox", "numpy.random", "numpy.random.mtrand",
                 "numpy.random._generator", "numpy.random._pickle")


@pytest.mark.parametrize(
    "body",
    [
        "import ltfsm",
        _cli(["stable-check", "--alpha", "1.2", "--terms", "20", "--samples", "50",
              "--seed", "3"]),
        "from ltfsm import RandomStream\nRandomStream(5).gaussian(8)",
    ],
    ids=["import", "stable-check", "gaussian-draw"],
)
def test_ltfsm_loads_only_philox_from_numpy_random(body):
    lines = _run(body + f"\nprint([name in sys.modules for name in {_NUMPY_RANDOM!r}])")
    assert lines[-2] == "[True, False, False, False, False]"


def test_a_gaussian_draw_loads_scipy_special():
    lines = _run(
        "from ltfsm import RandomStream, series_path_ensemble\n"
        "print(f\"before={'scipy.special' in sys.modules}\")\n"
        "series_path_ensemble(1.2, 0.7, 2, 3, 2, 8, RandomStream(5), grid_points=4)"
    )
    # only the compiled ufuncs: the package stays unloaded
    assert lines[-2:] == ["before=False", "loaded=False"]


def test_the_first_import_from_pool_threads_gives_the_one_thread_bits():
    # one-row chunks, so that the first Gaussian draws run on the two pool
    # threads at once and both reach the loader; a short switch interval
    # interleaves them inside its lock
    lines = _run(
        "sys.setswitchinterval(1e-6)\n"
        "import ltfsm.experiments as ex\n"
        "from ltfsm import RandomStream\n"
        "ex._CHUNK_BYTES = 1\n"
        "args = (1.2, 0.7, 8, 3, 2, 16)\n"
        "print(f\"before={'scipy.special' in sys.modules}\")\n"
        "two = ex.series_path_ensemble(*args, RandomStream(9), grid_points=4, threads=2)\n"
        "one = ex.series_path_ensemble(*args, RandomStream(9), grid_points=4, threads=1)\n"
        "print(f'equal={two.tobytes() == one.tobytes()}')"
    )
    assert lines[-3:] == ["before=False", "equal=True", "loaded=False"]


_DRAW = ("from ltfsm import RandomStream, series_path_ensemble\n"
         "import hashlib\n"
         "paths = series_path_ensemble(1.2, 0.7, 3, 3, 2, 8, RandomStream(5), grid_points=4)\n"
         "print(hashlib.sha256(paths.tobytes()).hexdigest())")


@pytest.mark.parametrize(
    "body",
    [
        _DRAW,
        "from ltfsm import bound_H_nq\nbound_H_nq(5, 2.0, 1.2)",
        "from ltfsm import bound_B_q\nbound_B_q(3.0)",
    ],
    ids=["gaussian-draw", "bound_H_nq", "bound_B_q"],
)
def test_a_draw_or_a_bound_loads_only_the_compiled_ufuncs(body):
    lines = _run(body + "\nprint([name in sys.modules for name in "
                 "('scipy._lib._array_api', 'scipy.special._ufuncs')])")
    assert lines[-2:] == ["[False, True]", "loaded=False"]


def test_a_later_package_import_gives_the_loaders_ufuncs():
    lines = _run(
        _DRAW + "\n"
        "from ltfsm import bound_B_q\n"
        "bound_B_q(3.0)\n"
        "from ltfsm.streams import _special_ufunc\n"
        "import scipy.special\n"
        "print([getattr(scipy.special, name) is _special_ufunc(name)\n"
        "       for name in ('ndtri', 'gammaln')])\n"
        "print(float(scipy.special.ndtri(0.975)))"
    )
    assert lines[-3:-1] == ["[True, True]", "1.959963984540054"]
    assert lines[-1] == "loaded=True"


def test_an_imported_package_is_used_and_never_swapped():
    lines = _run(
        "import importlib.util\n"
        "import scipy.special as package\n"
        "def no_lean_route(spec):\n"
        "    raise AssertionError('built a stand-in for the imported package')\n"
        "importlib.util.module_from_spec = no_lean_route\n"
        + _DRAW + "\n"
        "from ltfsm.streams import _special_ufunc\n"
        "print([sys.modules['scipy.special'] is package,\n"
        "       _special_ufunc('ndtri') is package.ndtri])"
    )
    assert lines[-2:] == ["[True, True]", "loaded=True"]


def test_a_later_numpy_random_import_gives_the_loaders_philox():
    lines = _run(
        "import ltfsm\n"
        "import numpy.random\n"
        "print(numpy.random.Philox is ltfsm.streams.Philox)\n"
        "print(float(numpy.random.default_rng(1).random()))\n"
        "print(int(numpy.random.Generator(numpy.random.Philox(7)).integers(1000)) "
        "== int(numpy.random.Generator(ltfsm.streams.Philox(7)).integers(1000)))"
    )
    assert lines[-4:-1] == ["True", "0.5118216247002567", "True"]


def test_an_imported_numpy_random_is_used_and_never_swapped():
    lines = _run(
        "import importlib.util\n"
        "import numpy.random as package\n"
        "module_from_spec = importlib.util.module_from_spec\n"
        "def no_lean_route(spec):\n"
        "    if spec.name == 'numpy.random':\n"
        "        raise AssertionError('built a stand-in for the imported package')\n"
        "    return module_from_spec(spec)\n"
        "importlib.util.module_from_spec = no_lean_route\n"
        + _DRAW + "\n"
        "from ltfsm.streams import Philox\n"
        "print([sys.modules['numpy.random'] is package, Philox is package.Philox])"
    )
    assert lines[-2:] == ["[True, True]", "loaded=False"]


def _failing_lean_route(parent: str) -> str:
    """A prelude under which importing a leaf of ``parent`` raises
    ``ImportError`` while the loader's stand-in for ``parent`` is in place,
    as for a compiled module that needs its package's code."""
    return (
        "import importlib, importlib.util\n"
        "stand_ins = []\n"
        "module_from_spec = importlib.util.module_from_spec\n"
        "def remembered(spec):\n"
        "    stand_ins.append(module_from_spec(spec))\n"
        "    return stand_ins[-1]\n"
        "import_module = importlib.import_module\n"
        "def no_lean_route(name, package=None):\n"
        f"    if any(sys.modules.get({parent!r}) is s for s in stand_ins):\n"
        "        raise ImportError('the compiled module needs the package')\n"
        "    return import_module(name, package)\n"
        "importlib.util.module_from_spec = remembered\n"
        "importlib.import_module = no_lean_route\n"
    )


@pytest.mark.parametrize(
    ("parent", "export"), [("scipy.special", "ndtri"), ("numpy.random", "Philox")]
)
def test_a_failing_lean_route_falls_back_to_the_package_with_the_same_bits(parent, export):
    lean = _run(_DRAW)
    fallback = _run(
        _failing_lean_route(parent) + _DRAW + "\n"
        f"print(hasattr(sys.modules[{parent!r}], {export!r}))"
    )
    assert lean[-1] == "loaded=False"
    assert fallback[-2:] == ["True", f"loaded={parent == 'scipy.special'}"]
    assert fallback[-3] == lean[-2]
