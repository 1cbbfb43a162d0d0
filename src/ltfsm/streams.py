"""Deterministic, splittable random streams and the base samplers.

Everything downstream of this module is reproducible because every variate is a
fixed positional transform of the raw 64-bit counter output of a Philox-4x64
bit generator:

* stream identity: the Philox key words are ``(seed, substream_id)``, both
  64-bit.  Child streams derive a fresh ``substream_id`` with a SplitMix64
  finalizer (see :func:`_substream_ids`), so ``(seed, substream_id)`` pairs
  never need central coordination.
* uniforms: ``u = ((raw >> 11) + 0.5) * 2**-53`` (one raw word per uniform),
  which lies in ``(0, 1]``: the sum rounds half to even, so the top ``2**11``
  words, ``raw >= 2**64 - 2**11`` (probability ``2**-53``), map to exactly
  1.0, and every other word lies strictly inside ``(0, 1)``.
* exponential(1): ``-log(u)``.
* standard normal: the inverse-CDF transform ``ndtri(u)`` (one uniform per
  variate; rejection-free so counter positions stay aligned).
* Laplace(0, 1/2) (density ``exp(-2|x|)``): inverse CDF,
  ``log(2u)/2`` for ``u < 1/2`` and ``-log(2(1-u))/2`` otherwise.
* Rademacher: ``+1`` when ``u >= 1/2`` else ``-1`` (exactly unbiased because
  the uniform lattice is symmetric around 1/2).

Raw words are consumed strictly left to right, and splitting one ``raw`` call
into several yields the identical sequence, so higher layers may document draw
*order* alone and remain bitwise reproducible.  The ``uniform_to_*`` helpers
are the single source of the transforms; batched drivers apply them to raw
blocks and get bitwise the same variates as the stream methods.

Sign-bit identity: the Rademacher sign of a raw word ``w`` is ``+1`` exactly
when the top bit of ``w`` is set (``u >= 1/2`` iff ``w >> 11 >= 2**52``), and
multiplying a float by ``+-1.0`` only flips its sign bit.  A kernel that holds
raw words may therefore apply signs by XOR-ing the complement of each sign
word's top bit into the float's sign bit, bitwise equal to
``x * uniform_to_rademacher(raw_to_uniform(w))``.

Where each rule lives: uniforms in the words' own memory,
``_uniform_in_place``; a child's substream id, for one child or a chunk's
rows, ``_substream_ids``; many substreams from one generator,
``_substream_heads``; any word offset of a stream, ``_seek`` and
``_cursor``; NumPy's ``Philox`` and SciPy's ufuncs without their packages,
``_import_compiled`` and ``_special_ufunc``; what the chunk threads build
at first use, ``_guarded_cache``.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
import threading
from dataclasses import dataclass, field
from functools import lru_cache, update_wrapper

import numpy as np

__all__ = [
    "RandomStream",
    "poisson_arrivals",
    "raw_to_uniform",
    "uniform_to_exponential",
    "uniform_to_gaussian",
    "uniform_to_laplace_half",
    "uniform_to_rademacher",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _import_compiled(name: str):
    """The compiled leaf module ``name`` (``numpy.random._philox``,
    ``scipy.special._ufuncs``), imported without running its parent package:
    the parent's unexecuted module object stands in for it in
    ``sys.modules`` while the leaf is imported.  The only code that reaches
    either package.  A parent already imported is used as it is, and the
    plain import is the fallback for a leaf that raises ``ImportError``
    without its package's code.  The classes and ufuncs are the very objects
    the packages re-export (``numpy.random.Philox is Philox``,
    ``scipy.special.ndtri is _special_ufunc("ndtri")`` after a later package
    import), so every variate is bitwise that of the package import.

    Two limits: while a load runs (about 20 ms for SciPy's first, far less
    for a later ufunc name, whose compiled module is loaded; the ``Philox``
    load runs under the import of this module) ``sys.modules`` holds the
    unexecuted stand-in, so a first import of that package made then by
    another thread, not through this loader, would see an empty module; and
    a later package import lacks, as attributes, the submodules loaded here
    before it ran (``numpy.random.bit_generator`` and ``_philox``; four
    private compiled submodules of ``scipy.special``, ``_gufuncs`` for one),
    which stay importable by name."""
    parent = name.rpartition(".")[0]
    if parent in sys.modules:
        return importlib.import_module(name)
    try:
        sys.modules[parent] = importlib.util.module_from_spec(importlib.util.find_spec(parent))
        try:
            return importlib.import_module(name)
        finally:
            del sys.modules[parent]
    except ImportError:
        return importlib.import_module(name)


# at module import, with ``numpy.random.bit_generator`` and ``_common``, which
# it needs: the ``numpy.random`` package would also load ``mtrand``,
# ``Generator``, PCG64, MT19937, SFC64 and the bounded-integer tables, about
# 1.5 MiB of resident memory that ltfsm never uses
Philox = _import_compiled("numpy.random._philox").Philox


def _guarded_cache(loader):
    """``loader`` memoized per argument tuple (``functools.lru_cache``, at
    most 64 entries), under one lock per decorated function that covers both
    the lookup and a first build: threads that ask for the same arguments at
    once get the one object that the first of them built.  ``cache_info``
    and ``cache_clear`` are those of the cache, and ``__wrapped__`` is the
    raw ``loader``.  It holds the ufuncs of :func:`_special_ufunc` and the
    circulant-embedding coefficients of ``ltfsm.fbm``."""
    cached = lru_cache(maxsize=64)(loader)
    lock = threading.Lock()

    def guarded(*args):
        with lock:
            return cached(*args)

    guarded.cache_info, guarded.cache_clear = cached.cache_info, cached.cache_clear
    return update_wrapper(guarded, loader)


@_guarded_cache
def _special_ufunc(name: str):
    """The ufunc ``scipy.special.<name>``, loaded at its first call by
    :func:`_import_compiled`: the normals (``ndtri``) and the Gamma-function
    bounds of :mod:`ltfsm.shotnoise` (``gammaln``) load it at their first
    use, not at module import.  That loads the compiled module
    ``scipy.special._ufuncs`` and its compiled siblings (3.8 MiB, 0.02 s),
    without the ``scipy.special`` package, whose ``__init__`` adds about 14
    MiB and 0.25 s more through an array-API layer (``numpy.f2py``,
    ``numpy.testing``, ``unittest``, ``concurrent.futures``, ``logging`` and
    more).  The LePage marginal path draws only uniforms, exponentials and
    signs, so ``import ltfsm``, ``ltfsm --help``, ``stable-check`` and the
    option checks of every command load no SciPy ufunc."""
    return getattr(_import_compiled("scipy.special._ufuncs"), name)


def _philox_key(seed: int, substream_id: int) -> tuple[int, int]:
    """Philox key words (low, high) of the stream ``(seed, substream_id)``."""
    return seed & _MASK64, substream_id & _MASK64


# -- positional transforms (single source of truth) ---------------------------


def raw_to_uniform(raw: np.ndarray) -> np.ndarray:
    """Map raw 64-bit words to uniforms in (0, 1]; only the top ``2**11``
    words give exactly 1.0 (see the module docstring)."""
    return ((raw >> np.uint64(11)) + 0.5) * 2.0**-53


def _uniform_in_place(words: np.ndarray) -> np.ndarray:
    """:func:`raw_to_uniform` of a C-contiguous ``uint64`` array, computed in
    its own memory; returns the ``float64`` view of that memory.

    The same three operations run in the same order, so the result is
    bitwise equal: ``w >> 11`` is below ``2**53`` and converts to a float
    exactly, through ``int64``, which is the fast cast.  The cast runs on a
    1-d view, which numpy converts element by element in place; a
    multi-dimensional one would be staged through a temporary copy.
    :meth:`RandomStream.uniform` and the batched drivers convert their
    freshly drawn words this way; :func:`raw_to_uniform` stays the
    reference.
    """
    flat = words.reshape(-1)
    flat >>= np.uint64(11)
    u = flat.view(np.float64)
    u[...] = flat.view(np.int64)
    u += 0.5
    u *= 2.0**-53
    return u.reshape(words.shape)


def uniform_to_exponential(u: np.ndarray) -> np.ndarray:
    """Unit-rate exponential via ``-log(u)``."""
    return -np.log(u)


def uniform_to_gaussian(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Standard normal via the inverse CDF (into ``out`` when given, which
    may be ``u`` itself)."""
    return _special_ufunc("ndtri")(u, out=out)


def uniform_to_laplace_half(u: np.ndarray) -> np.ndarray:
    """Laplace(0, 1/2) via the inverse CDF (density ``exp(-2|x|)``)."""
    return np.where(u < 0.5, 0.5 * np.log(2.0 * u), -0.5 * np.log(2.0 * (1.0 - u)))


def uniform_to_rademacher(u: np.ndarray) -> np.ndarray:
    """Sign +-1, ``+1`` iff ``u >= 1/2``."""
    return np.where(u >= 0.5, 1.0, -1.0)


@dataclass(frozen=True)
class RandomStream:
    """A seeded, splittable source of variates.

    Parameters
    ----------
    seed : int
        Master seed (reduced mod 2**64).
    substream_id : int
        Substream selector (reduced mod 2**64).  Independent streams for the
        same seed are obtained via :meth:`substream`.
    """

    seed: int
    substream_id: int = 0
    _bitgen: Philox = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        key = np.array(_philox_key(self.seed, self.substream_id), dtype=np.uint64)
        object.__setattr__(self, "_bitgen", Philox(key=key))

    # -- stream algebra ---------------------------------------------------

    def substream(self, child: int) -> "RandomStream":
        """Deterministic independent child stream for index ``child >= 0``."""
        if child < 0:
            raise ValueError("substream index must be >= 0")
        return RandomStream(self.seed & _MASK64, _substream_ids(self, child, 1)[0])

    # -- raw layers --------------------------------------------------------

    def raw(self, size: int) -> np.ndarray:
        """Next ``size`` raw 64-bit counter words."""
        return self._bitgen.random_raw(size)

    def uniform(self, size: int) -> np.ndarray:
        """``size`` uniforms in (0, 1], one raw word each (exactly 1.0 with
        probability ``2**-53``, see the module docstring)."""
        return _uniform_in_place(self.raw(int(size)))

    # -- documented variates ------------------------------------------------

    def exponential(self, size: int) -> np.ndarray:
        """``size`` unit-rate exponentials."""
        return uniform_to_exponential(self.uniform(size))

    def gaussian(self, size: int) -> np.ndarray:
        """``size`` standard normals."""
        return uniform_to_gaussian(self.uniform(size))

    def rademacher(self, size: int) -> np.ndarray:
        """``size`` signs +-1 with equal probability."""
        return uniform_to_rademacher(self.uniform(size))


# -- module-level operations -------------------------------------------------


def poisson_arrivals(count: int, stream) -> np.ndarray:
    """First ``count`` arrival times of a unit-rate Poisson process.

    Cumulative sums of i.i.d. unit exponentials drawn from ``stream``; the
    result is strictly increasing and positive.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    return np.cumsum(stream.exponential(count))


def _substream_ids(stream: RandomStream, start: int, rows: int) -> list[int]:
    """The substream ids of children ``start .. start + rows - 1`` of
    ``stream``, the one derivation of a child id: the SplitMix64 finalizer
    (bijective on 64-bit words) of ``parent + GOLDEN * (child + 1)``, all mod
    ``2**64``, for ``parent = stream.substream_id``.  One ``uint64`` numpy
    pass (numpy's array arithmetic wraps mod ``2**64``), for a chunk's rows
    and for :meth:`RandomStream.substream` (``rows = 1``) alike."""
    z = np.arange(rows, dtype=np.uint64)
    z *= np.uint64(_GOLDEN)
    z += np.uint64((stream.substream_id + _GOLDEN * (start + 1)) & _MASK64)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z.tolist()


def _philox_state(key: list[int], block: int = 0) -> dict:
    """A ``Philox`` state with key words ``key`` whose next raw word is word
    ``4 * block`` of that stream: the 256-bit counter at ``block`` and an
    empty output buffer (the generator steps its counter before it fills the
    buffer).  Plain ints, which the setter reads faster than numpy arrays."""
    return {
        "bit_generator": "Philox",
        "state": {
            "counter": [(block >> (64 * i)) & _MASK64 for i in range(4)],
            "key": key,
        },
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def _cursor(stream: RandomStream) -> tuple[list[int], int]:
    """The Philox key words of ``stream`` and the index of its next raw word
    (``4 * counter - 4 + buffer_pos``, see :func:`_philox_state`)."""
    state = stream._bitgen.state
    counter = sum(int(v) << (64 * i) for i, v in enumerate(state["state"]["counter"]))
    key = list(_philox_key(stream.seed, stream.substream_id))
    return key, 4 * counter - 4 + state["buffer_pos"]


def _seek(bitgen: Philox, key: list[int], offset: int) -> Philox:
    """Seat ``bitgen`` at raw word ``offset`` of the stream with key words
    ``key``: counter ``offset // 4`` with an empty buffer, then ``offset % 4``
    words discarded.  Its next words are that stream's words from ``offset``
    on, whatever ``bitgen`` drew before, so a worker may draw any block of a
    stream without drawing the words before it."""
    bitgen.state = _philox_state(key, offset // 4)
    bitgen.random_raw(offset % 4)
    return bitgen


def _substream_heads(bitgen: Philox, stream: RandomStream, start: int, rows: int):
    """Iterator that yields ``bitgen`` (one per chunk thread, made by
    ``ltfsm.process._run_chunks``) ``rows`` times, each time seated at the
    head of ``stream.substream(start + r)``: its raw words are those of
    that substream, and a row may draw any number of them in any number of
    calls.

    Philox is counter-based, so a child stream is nothing but a key with
    the counter at 0: resetting the key, counter and output buffer of one
    bit generator gives the words of ``stream.substream(j)`` without the
    OS-entropy pull that every ``Philox`` construction makes
    (``_philox_key`` defines the key layout for both)."""
    # assigning the head state with a new key restarts the generator at the
    # head of that substream
    key = list(_philox_key(stream.seed, 0))
    state = _philox_state(key)
    for substream_id in _substream_ids(stream, start, rows):
        key[1] = substream_id
        bitgen.state = state
        yield bitgen
