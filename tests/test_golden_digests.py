"""Golden sha256 digests of seeded outputs at tiny shapes.

Every seeded output is a fixed function of its seed on one platform, so a
change that claims to keep the bits can be checked against a committed table
instead of a manual before/after run.  The bits depend on the platform:
NumPy's SIMD loops and glibc's libm variants differ in the last ulp of
``log``, ``exp`` and ``power``.  The table is therefore keyed by a fingerprint
of the numpy and scipy versions, the CPU features NumPy dispatches to and the
C library.  On a fingerprint the table does not hold the test skips and names
it; on a recorded one it never skips.

To record the digests of the current platform (only for a change that is
meant to move bits, or for a new platform), run
``PYTHONPATH=src python tests/test_golden_digests.py`` and paste its output
into ``_GOLDEN``.
"""

import contextlib
import dataclasses
import hashlib
import io
import pathlib
import platform
import warnings

import numpy as np
import pytest
import scipy
from numpy._core._multiarray_umath import __cpu_features__

from ltfsm import (
    SeriesConfig,
    TuningParams,
    build_bound_report,
    bound_H_nq,
    cf_linearity_experiment,
    fbm_path,
    flat_params,
    lepage_marginal_samples,
    poisson_arrivals,
    representation_cf_table,
    rwrr_path_ensemble,
    sample_stable_oracle,
    series_path_ensemble,
    simulate_ltfsm,
    simulate_rwrr_baseline,
    stable_marginal_check,
    tail_moment_sweep,
    tune,
)
from ltfsm.cli import main
from ltfsm.io import manifest_path
from ltfsm.streams import RandomStream


def fingerprint() -> str:
    """numpy and scipy versions, the enabled NumPy CPU features and the C
    library, as one line."""
    features = ",".join(sorted(name for name, on in __cpu_features__.items() if on))
    libc = " ".join(platform.libc_ver())
    return f"numpy {np.__version__}; scipy {scipy.__version__}; {libc}; {features}"


def _feed(h, value) -> None:
    """Hash ``value`` with its type, shape and bits."""
    if isinstance(value, np.ndarray):
        h.update(f"{value.dtype}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (float, np.floating)):
        h.update(float(value).hex().encode())
    elif isinstance(value, (bytes, str, int)):
        h.update(repr(value).encode())
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            _feed(h, getattr(value, f.name))
    elif isinstance(value, dict):
        for key, item in value.items():
            _feed(h, key)
            _feed(h, item)
    else:
        for item in value:
            _feed(h, item)
        h.update(b";")


def _digest(value) -> str:
    h = hashlib.sha256()
    _feed(h, value)
    return h.hexdigest()


def _streams():
    s = RandomStream(11)
    return (s.raw(5), s.uniform(5), s.exponential(5), s.gaussian(5), s.rademacher(5),
            s.substream(3).raw(5), poisson_arrivals(5, RandomStream(12)))


def _simulate(hurst, density, params, threads):
    cfg = SeriesConfig(alpha=1.3, hurst=hurst, grid_points=9, delta=0.1, delta_prime=0.2)
    return simulate_ltfsm(cfg, params, RandomStream(61), density=density, threads=threads)


def _tuned():
    cfg = SeriesConfig(alpha=1.2, hurst=0.7, epsilon=0.4, grid_points=20, delta=0.17,
                       delta_prime=0.2, max_points=512)
    return simulate_ltfsm(cfg, tune(cfg), RandomStream(9))


def _cli(argv):
    """Exit code, printed report, and the bytes of the output and manifest
    that ``ltfsm <argv>`` writes to its relative ``--out``."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = main(argv)
    out = argv[argv.index("--out") + 1]
    written = [pathlib.Path(p).read_bytes() for p in (out, manifest_path(out))]
    return code, printed.getvalue(), written


# head terms of unequal size, the first ones capped, then a decreasing tail
_CAPPED = TuningParams(P=7, N=3, k=3, k_power=40.0, head_exp=1.5, tail_exp=0.3, max_points=96)

CASES = {
    "streams": _streams,
    "sample_stable_oracle": lambda: (sample_stable_oracle(1.3, RandomStream(13), 50),
                                     sample_stable_oracle(1.0, RandomStream(13), 50)),
    "fbm_path": lambda: [fbm_path(h, 1.0, 64, RandomStream(14)).values for h in (0.3, 0.5, 0.7)],
    "bounds": lambda: (build_bound_report(N=2, q=2.5, alpha=1.2, moment_q=1.0,
                                          moment_qk=1.0, P=10), bound_H_nq(3, 3.0, 1.2)),
    "simulate_ltfsm_flat": lambda: [
        _simulate(h, d, flat_params(5, 2, 24), t).values
        for h in (0.3, 0.5, 0.7) for d in ("laplace", "gaussian") for t in (1, 2)
    ],
    "simulate_ltfsm_capped": lambda: [
        _simulate(h, d, _CAPPED, t).values
        for h in (0.3, 0.5, 0.7) for d in ("laplace", "gaussian") for t in (1, 3)
    ],
    "simulate_ltfsm_tuned": lambda: _tuned().values,
    "simulate_rwrr_baseline": lambda: simulate_rwrr_baseline(1.3, 200, 10, RandomStream(15)),
    "series_path_ensemble": lambda: [
        series_path_ensemble(1.2, h, 9, 6, 4, 32, RandomStream(3), grid_points=7,
                             density=d, threads=t)
        for h in (0.5, 0.7) for d in ("laplace", "gaussian") for t in (1, 2)
    ],
    "rwrr_path_ensemble": lambda: rwrr_path_ensemble(1.3, 7, 100, RandomStream(16),
                                                     grid_points=6, threads=2),
    "cf_linearity_experiment": lambda: [
        cf_linearity_experiment(method, 1.0, 0.5, 20, RandomStream(4), n_times=5, terms=6,
                                bandwidth=4, points=32, steps=200)
        for method in ("series", "rwrr")
    ],
    "lepage_marginal_samples": lambda: lepage_marginal_samples(1.2, 40, 30, RandomStream(5),
                                                               threads=2),
    "stable_marginal_check": lambda: stable_marginal_check(1.2, 40, 300, RandomStream(5)),
    "tail_moment_sweep": lambda: tail_moment_sweep(1.2, [2, 5], 20, RandomStream(62),
                                                   factor=10),
    "representation_cf_table": lambda: representation_cf_table(
        1.2, 0.7, 8, 5, 3, 16, [0.5, 1.0], RandomStream(17), grid_points=3),
    "cli_simulate": lambda: _cli(
        ["simulate", "--alpha", "1.2", "--hurst", "0.7", "--epsilon", "0.4", "--delta",
         "0.17", "--delta-prime", "0.2", "--max-points", "512", "--grid", "20",
         "--seed", "9", "--out", "path.csv"]),
    "cli_bounds": lambda: _cli(
        ["bounds", "--alpha", "1.2", "--q", "2.5", "--N", "3", "--P", "10", "--p", "2",
         "--volK", "1.5", "--out", "bounds.txt"]),
    "cli_validate_cf": lambda: _cli(
        ["validate-cf", "--alpha", "1", "--hurst", "0.5", "--seed", "7", "--paths", "30",
         "--times", "4", "--terms", "6", "--bandwidth", "4", "--points", "32",
         "--out", "cf.csv"]),
    "cli_stable_check": lambda: _cli(
        ["stable-check", "--alpha", "1.2", "--terms", "40", "--samples", "100",
         "--seed", "3", "--out", "stable.txt"]),
}


_GOLDEN = {
    (
        'numpy 2.4.6; scipy 1.17.1; glibc 2.36; '
        'AVX,AVX2,AVX512BF16,AVX512BITALG,AVX512BW,AVX512CD,AVX512DQ,AVX512F,'
        'AVX512FP16,AVX512IFMA,AVX512VBMI,AVX512VBMI2,AVX512VL,AVX512VNNI,'
        'AVX512VPOPCNTDQ,AVX512_CLX,AVX512_CNL,AVX512_ICL,AVX512_SKX,'
        'AVX512_SPR,BMI,BMI2,CX16,F16C,FMA3,GFNI,LAHF,LZCNT,MMX,MOVBE,POPCNT,'
        'SSE,SSE2,SSE3,SSE41,SSE42,SSSE3,VAES,VPCLMULQDQ,X86_V2,X86_V3,X86_V4'
    ): {
        'bounds': '04ac2f4cb79003e8192cf7c743ec776d5a0d595c392d8c2ed5aff836da65d16d',
        'cf_linearity_experiment': '743490b917b8c596d9fe812bb739c3c1adbd07b5cc53136fce89b0376450ce99',
        'cli_bounds': '7a53e917a104a3d9c3ffde945c84df4aac4813bea5a2b674fc5884d59d306bb8',
        'cli_simulate': '06cf53e1b09147fa6db369a90b223fdabf101d348730ae10d7be1e1f5b87de76',
        'cli_stable_check': 'e573702388f42a5a7c77bba64ce47b52af6c61198ab4ca09e4f91c485232ff10',
        'cli_validate_cf': '342a819b13d2a4ac8cbffe9a9d28a22096d2438a7f6e04a05628b6203bdfd716',
        'fbm_path': 'c81b79dea7336bb44a0c3110a5d816301826f52c9edab130ed6cd20cf2db68ba',
        'lepage_marginal_samples': '7f85dd5b674a9db57d8f65354de611de0596b9407375527f04f37752204c03fc',
        'representation_cf_table': 'b8efcb01562f9bc614043328a104670a87bbf7c8aa4257a37cd8eb784ab2a208',
        'rwrr_path_ensemble': '71dc1ad141d692d03b4a53a6412563cb26cc44201f0b5c8e26adc767b081eb6c',
        'sample_stable_oracle': '8557e018a69d50686bf523501e5bac4c55aa797d9c556ef15af448b92929bc95',
        'series_path_ensemble': 'e14aefc49878696f5f2290b4108d5ed32078a06d295a288bb8304585f726ab12',
        'simulate_ltfsm_capped': '4a440dfeb430f9bd70f84a53a6d6f5707fe09c2e7bf6804a6f52dd74e6b41489',
        'simulate_ltfsm_flat': '7ecd07ae1e7444de7c1b2a692c4dcfdae76bd9f19e972b8e74bb0ebfcadb6087',
        'simulate_ltfsm_tuned': 'ad05c42db8f0667f46b60d91bcf1bb29bdad596972f71963570d1f7c8dc8bafe',
        'simulate_rwrr_baseline': '0348836533e30e33e55019c6bb330f9bd4e29b01640829a8e2d5dbafe976bbf6',
        'stable_marginal_check': '8639bae537ab05340227d71352bbfa068e6a676db15792e102bee29f7f105041',
        'streams': 'ee3ab65515bd151cc3da7a8eba60ce7123f3c0b835ed006520fa45c9db071989',
        'tail_moment_sweep': '98d446cd9235e13bbcf6a811ce3f2855e51034cdce03ff833667d06d14b81bc0',
    },
}


def _compute(name: str) -> str:
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "tuned per-term grid size", RuntimeWarning)
        return _digest(CASES[name]())


@pytest.mark.parametrize("name", sorted(CASES))
def test_seeded_output_matches_its_golden_digest(name, tmp_path, monkeypatch):
    table = _GOLDEN.get(fingerprint())
    if table is None:
        pytest.skip(f"no golden digests recorded for this platform: {fingerprint()}")
    monkeypatch.chdir(tmp_path)  # the CLI cases write relative paths there
    assert _compute(name) == table[name]


def test_the_table_covers_every_case():
    for digests in _GOLDEN.values():
        assert set(digests) == set(CASES)


if __name__ == "__main__":
    import os
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        print(f"    {fingerprint()!r}: {{")
        for case in sorted(CASES):
            print(f"        {case!r}: {_compute(case)!r},")
        print("    },")
