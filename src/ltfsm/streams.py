"""Deterministic, splittable random streams and the base samplers.

Everything downstream of this module is reproducible because every variate is a
fixed positional transform of the raw 64-bit counter output of a Philox-4x64
bit generator:

* stream identity: the Philox key words are ``(seed, substream_id)``, both
  64-bit.  Child streams derive a fresh ``substream_id`` with a SplitMix64
  finalizer (see :func:`_mix64`), so ``(seed, substream_id)`` pairs never need
  central coordination.
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

Batched substream rows: :func:`_substream_heads` yields one reused Philox at
the head of each of many consecutive child substreams in turn.  Philox is
counter-based, so a child stream is nothing but a key with the counter at 0;
resetting the key, counter and output buffer of one bit generator gives the
same words as building ``stream.substream(j)``, without the OS-entropy pull
that every ``Philox`` construction makes (``_philox_key`` defines the key
layout for both).  The child ids of a whole chunk come from one vectorized
``uint64`` SplitMix64 pass (:func:`_mix64` stays the scalar reference, used by
:meth:`RandomStream.substream`), and each reset assigns a state of plain
Python ints, which the bit generator reads faster than numpy arrays.

Seeking: word ``i`` of a stream comes from counter block ``i // 4 + 1``
(the generator steps its counter before it fills its 4-word buffer), so
:func:`_seek` seats a generator at any word offset with one state reset and
at most three discarded words, and :func:`_cursor` reads the offset of a
stream's next word.  A worker may thus draw any block of a stream without
drawing the words before it.

In-place uniforms: ``((w >> 11) + 0.5) * 2**-53`` is exact apart from one
rounding of the sum, so it can run in the memory of the words themselves
(``_uniform_in_place``), bitwise equal to :func:`raw_to_uniform`.
:meth:`RandomStream.uniform` and the batched drivers convert their freshly
drawn words this way; :func:`raw_to_uniform` stays the reference.

Sign-bit identity: the Rademacher sign of a raw word ``w`` is ``+1`` exactly
when the top bit of ``w`` is set (``u >= 1/2`` iff ``w >> 11 >= 2**52``), and
multiplying a float by ``+-1.0`` only flips its sign bit.  A kernel that holds
raw words may therefore apply signs by XOR-ing the complement of each sign
word's top bit into the float's sign bit, bitwise equal to
``x * uniform_to_rademacher(raw_to_uniform(w))``.

Start-up: :func:`uniform_to_gaussian` imports ``scipy.special.ndtri`` on its
first call, not at module import.  The LePage marginal path draws only
uniforms, exponentials and signs, and the ``scipy.special`` import costs
about 26 MiB of resident memory and a quarter of a second, so ``import
ltfsm``, ``ltfsm --help``, ``stable-check`` and the option checks of every
command run without it.  The first Gaussian draw loads it (the first
Gamma-function bound too, see :mod:`ltfsm.shotnoise`); the import lock makes
a first call from several threads at once safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.random import Philox

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


def _splitmix64(z: int) -> int:
    """SplitMix64 finalizer (bijective on 64-bit words)."""
    z &= _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


def _mix64(parent: int, child: int) -> int:
    """Derive a child substream id from (parent id, child index)."""
    return _splitmix64((parent + _GOLDEN * (child + 1)) & _MASK64)


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
    from scipy.special import ndtri  # loaded at the first draw; see the module docstring

    return ndtri(u, out=out)


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
        return RandomStream(self.seed & _MASK64, _mix64(self.substream_id, child))

    # -- raw layers --------------------------------------------------------

    def raw(self, size: int) -> np.ndarray:
        """Next ``size`` raw 64-bit counter words."""
        return self._bitgen.random_raw(size)

    def uniform(self, size: int | None = None):
        """Uniforms in (0, 1], one raw word each (exactly 1.0 with
        probability ``2**-53``, see the module docstring)."""
        u = _uniform_in_place(self.raw(1 if size is None else int(size)))
        return float(u[0]) if size is None else u

    # -- documented variates ------------------------------------------------

    def exponential(self, size: int | None = None):
        """Unit-rate exponentials."""
        x = uniform_to_exponential(self.uniform(1 if size is None else size))
        return float(x[0]) if size is None else x

    def gaussian(self, size: int | None = None):
        """Standard normals."""
        x = uniform_to_gaussian(self.uniform(1 if size is None else size))
        return float(x[0]) if size is None else x

    def rademacher(self, size: int | None = None):
        """Signs +-1 with equal probability."""
        x = uniform_to_rademacher(self.uniform(1 if size is None else size))
        return float(x[0]) if size is None else x


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
    """``_mix64(stream.substream_id, start + r)`` for ``r < rows``, in one
    ``uint64`` numpy pass (numpy's array arithmetic wraps mod ``2**64``)."""
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
    on, whatever ``bitgen`` drew before."""
    bitgen.state = _philox_state(key, offset // 4)
    bitgen.random_raw(offset % 4)
    return bitgen


def _substream_heads(stream: RandomStream, start: int, rows: int):
    """Iterator that yields one ``Philox`` ``rows`` times, each time at the
    head of ``stream.substream(start + r)``: its raw words are those of that
    substream, and a row may draw any number of them in any number of calls."""
    bitgen = Philox(key=0)
    # assigning the head state with a new key restarts the generator at the
    # head of that substream
    key = list(_philox_key(stream.seed, 0))
    state = _philox_state(key)
    for substream_id in _substream_ids(stream, start, rows):
        key[1] = substream_id
        bitgen.state = state
        yield bitgen
