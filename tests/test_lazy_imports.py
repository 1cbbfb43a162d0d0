"""Which entry points load ``scipy.special``, each in a fresh interpreter,
and that the chunk threads load no executor.

The LePage marginal path (``stable-check``, ``stable_marginal_check``) draws
only uniforms, exponentials and signs, so it must run without the
``scipy.special`` import; the Gaussian draws and the Gamma-ratio bounds load
it at first use.
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
    ],
    ids=["import", "stable-check", "threaded-chunks"],
)
def test_the_chunk_threads_load_no_executor_and_no_logging(body):
    lines = _run(body + "\nprint(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))")
    assert lines[-2] == "[]"


def test_a_gaussian_draw_loads_scipy_special():
    lines = _run(
        "from ltfsm import RandomStream, series_path_ensemble\n"
        "print(f\"before={'scipy.special' in sys.modules}\")\n"
        "series_path_ensemble(1.2, 0.7, 2, 3, 2, 8, RandomStream(5), grid_points=4)"
    )
    assert lines[-2:] == ["before=False", "loaded=True"]


def test_the_first_import_from_pool_threads_gives_the_one_thread_bits():
    # one-row chunks, so that the first Gaussian draws run on the two pool
    # threads at once and both reach the import; a short switch interval
    # interleaves them inside it
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
    assert lines[-3:] == ["before=False", "equal=True", "loaded=True"]
