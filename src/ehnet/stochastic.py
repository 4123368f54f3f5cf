"""Random inputs (harvests, channel gains) and deterministic expectations.

Every random quantity in a run is drawn from its own stream, keyed by the
run seed plus a small integer tuple naming what the draws are for (for
example ``(0, node)`` for a node's harvest, ``(1, tx, rx)`` for a link's
fading).  Streams with different keys are statistically independent and do
not share state, so adding a node or link to a network never perturbs the
draws seen by the others.  One `Stream` holds the streams of one key, or
of several keys, for a whole group of seeds, one lane per (key, seed), and
fills a key-major (keys, seeds, n) block row by row; each lane draws
exactly what that key's and seed's stream would alone, so how streams are
grouped never changes a draw.  A process transforms a block in place, so
keys that share a process cost one `sample` call between them.

The uniform source is pinned down so runs are reproducible across platforms:
a PCG64 generator seeded through `numpy.random.SeedSequence(seed, spawn_key)`
produces 53-bit uniform doubles, and exponential variates are obtained by
inverting the CDF (``-mean * log1p(-u)``) rather than through any library
sampler whose algorithm might change.

`seed_states` gives the PCG64 seed words of many streams at once.  It runs
SeedSequence's own algorithm once, with one `uint32` lane per stream: the
seed's words are padded with zeros to the pool size of 4 before the key's
words, the pool is hashed in with `hashmix`, every pool word is mixed into
every other one, the remaining words are mixed in one at a time, and
`generate_state` hashes the pool out.  Each lane applies the same wrapping
`uint32` operations with the same constants in the same order as
`SeedSequence` does for that stream alone: the hash constants advance one
step per `hashmix` call whatever the data, so they are shared by all lanes,
and a lane whose words run out earlier keeps its pool.  A PCG64 reads
nothing from its seed source but `generate_state(4, uint64)`, so a `Stream`
built from its precomputed row draws exactly what the `SeedSequence` would
have given it.  NumPy's stream-compatibility policy (NEP 19) fixes the
SeedSequence algorithm, which is what makes this exact.
"""

from __future__ import annotations

import importlib
import importlib.machinery
import importlib.util
import math
import numbers
import operator
import os
import sys
from dataclasses import dataclass
from functools import lru_cache
from types import ModuleType
from typing import Callable

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = [
    "ConstantProcess",
    "ExponentialProcess",
    "LARGEST_EXPONENTIAL_DRAW",
    "QuadratureError",
    "Stream",
    "expectation_quadrature",
    "exponential_pdf",
    "load_compiled",
    "max_exponential_pdf",
    "seed_states",
]

# SeedSequence's pool size and hash constants (numpy.random.bit_generator).
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _words(n) -> list[int]:
    """`n` as little-endian uint32 words, as `SeedSequence` reads an int."""
    n = operator.index(n)
    if n < 0:
        raise ValueError(f"seeds and key parts must be >= 0, got {n}")
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


@lru_cache(maxsize=None)
def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The first `count` values of a hash constant: init, init * mult, ...
    modulo 2^32.  Hash call k xors with value k and multiplies by value
    k + 1.  The array is cached, so it is read-only."""
    out = [init]
    for _ in range(count - 1):
        out.append(out[-1] * mult & _MASK32)
    out = np.array(out, dtype=np.uint32)
    out.flags.writeable = False
    return out


def _mixing_constants() -> list[tuple[np.ndarray, np.ndarray]]:
    """Per pool word `src`, the xor and multiply constants that mix it into
    the others: hashmix calls 4 + 3 src + i for the i-th other word, in
    order.  Column `src` gets zeros; its result is discarded."""
    a = _hash_constants(_INIT_A, _MULT_A, 4 * _POOL + 1)
    table = []
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        xor, mul = np.zeros(_POOL, np.uint32), np.zeros(_POOL, np.uint32)
        xor[dst] = a[4 + 3 * src:7 + 3 * src]
        mul[dst] = a[5 + 3 * src:8 + 3 * src]
        table.append((xor, mul))
    return table


_MIX_IN = _mixing_constants()
_16 = np.uint32(16)


def _hashmix(values: np.ndarray, xor: np.ndarray, mul: np.ndarray):
    v = (values ^ xor) * mul
    return v ^ (v >> _16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return r ^ (r >> _16)


def _hash_lanes(entropy: np.ndarray, lengths: np.ndarray,
                n_words: int) -> np.ndarray:
    """`SeedSequence.generate_state(n_words, uint64)` of every row of
    `entropy`, a zero-padded (rows, width >= pool size) uint32 array of
    assembled entropy words, of which row r holds `lengths[r]`."""
    width = entropy.shape[1]
    # Calls 0-3 take the entropy into the pool, calls 4-15 mix the pool,
    # and each later word takes four more.
    a = _hash_constants(_INIT_A, _MULT_A, 4 * width + 1)
    # Entropy in: pool word i is hashmix call i (zero past a short row).
    pool = _hashmix(entropy[:, :_POOL], a[:_POOL], a[1:_POOL + 1])
    # Each pool word, in turn, into each other one.
    for src, (xor, mul) in enumerate(_MIX_IN):
        mixed = _mix(pool, _hashmix(pool[:, src:src + 1], xor, mul))
        mixed[:, src] = pool[:, src]
        pool = mixed
    # Words past the pool, each into every pool word, while a row has them.
    shortest = lengths.min()
    for col in range(_POOL, width):
        k = 4 * col
        mixed = _mix(pool, _hashmix(entropy[:, col:col + 1],
                                    a[k:k + _POOL], a[k + 1:k + _POOL + 1]))
        pool = mixed if col < shortest else np.where(
            (lengths > col)[:, None], mixed, pool)
    # Pool out: state word i hashes pool word i % 4.
    m = 2 * n_words
    b = _hash_constants(_INIT_B, _MULT_B, m + 1)
    out = _hashmix(pool[:, np.arange(m) % _POOL], b[:m], b[1:m + 1])
    # Word 2i is the low half of uint64 word i, as in generate_state.
    out = np.ascontiguousarray(out, dtype="<u4")
    return out.view("<u8").astype(np.uint64)


def seed_states(seeds, keys, n_words: int = 4) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=key).generate_state(n_words,
    np.uint64)`` for every seed and key, seed-major: a uint64 array of
    shape (len(seeds) * len(keys), n_words).

    Seeds and key parts are non-negative integers of any width; a negative
    one raises `ValueError`.  The rows are hashed as one batch of lanes
    (see the module docstring)."""
    seed_words = [_words(s) for s in seeds]
    key_words = [[w for part in key for w in _words(part)] for key in keys]
    rows = len(seed_words) * len(key_words)
    if rows == 0:
        return np.empty((0, n_words), dtype=np.uint64)
    # A key's words start after the seed's, padded to the pool size.  With
    # an empty key the pad changes nothing: hashmix reads zeros there.
    starts = np.array([max(len(w), _POOL) for w in seed_words])
    key_lengths = np.array([len(w) for w in key_words])
    width = int(starts.max() + key_lengths.max())
    head = np.array([w + [0] * (width - len(w)) for w in seed_words],
                    dtype=np.uint32)
    # One zero column past the widest key, for the columns before a start.
    tail = np.array([w + [0] * (width + 1 - len(w)) for w in key_words],
                    dtype=np.uint32)
    cols = np.arange(width) - starts[:, None]
    cols[cols < 0] = width
    entropy = head[:, None, :] | tail[:, cols].transpose(1, 0, 2)
    lengths = starts[:, None] + key_lengths
    return _hash_lanes(entropy.reshape(rows, width), lengths.ravel(), n_words)


class _SeedWords(ISeedSequence):
    """Seed source handing a bit generator its precomputed state words."""

    def __init__(self, words: np.ndarray):
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != len(self._words) or np.dtype(dtype) != np.uint64:
            raise ValueError("precomputed seed words do not match the request")
        return self._words


class Stream:
    """Deterministic uniform source: one run per key and seed.

    `key` is one key, a tuple of non-negative integers, or a sequence of
    such keys whose draws are made together; `seed` is one integer seed,
    or a sequence of them whose runs draw side by side.  Lane (i, j)
    draws what the stream of key i and ``seed[j]`` alone would: a PCG64
    seeded with ``SeedSequence(seed[j], spawn_key=key[i])``.  `shape` is
    ``(len(key),)`` for several keys, else (), followed by
    ``np.shape(seed)``: () for one seed, (lanes,) for a sequence.  `state`,
    when given, holds each lane's row of `seed_states`, key-major, computed
    beforehand with other streams' rows; its shape is ``shape + (4,)``."""

    def __init__(self, seed, key, state=None):
        if isinstance(seed, numbers.Integral):
            self.seed = int(seed)
            self.shape = ()
            seeds = [self.seed]
        else:
            self.seed = tuple(map(operator.index, seed))
            self.shape = (len(self.seed),)
            seeds = self.seed
        key = tuple(key)
        if key and not isinstance(key[0], numbers.Integral):
            self.key = tuple(tuple(map(int, part)) for part in key)
            self.shape = (len(self.key),) + self.shape
            keys = self.key
        else:
            self.key = tuple(map(int, key))
            keys = [self.key]
        if state is None:
            state = seed_states(seeds, keys).reshape(
                len(seeds), len(keys), -1).swapaxes(0, 1)
        self._gens = [np.random.Generator(np.random.PCG64(_SeedWords(row)))
                      for row in np.asarray(state).reshape(
                          len(keys) * len(seeds), -1)]

    def uniforms(self, n: int, out: np.ndarray | None = None) -> np.ndarray:
        """Each lane's next `n` uniform doubles in [0, 1), consecutive calls
        continuing: an array of shape ``shape + (n,)``, written into `out`
        when given (a C-contiguous float64 array of that shape)."""
        n = int(n)
        shape = self.shape + (n,)
        if out is None:
            out = np.empty(shape)
        elif out.shape != shape or not out.flags.c_contiguous:
            raise ValueError(f"out must be a C-contiguous array of shape "
                             f"{shape}, got {out.shape}")
        # A C-contiguous array reshapes without a copy: rows are views.
        for gen, row in zip(self._gens, out.reshape(len(self._gens), n)):
            gen.random(out=row)
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return f"Stream(seed={self.seed}, key={self.key})"


# The largest draw of an `ExponentialProcess` of mean 1.  `Stream.uniforms`
# gives multiples of 2**-53 below 1, so -log1p(-u) stops at 53 ln 2.
LARGEST_EXPONENTIAL_DRAW = -math.log1p(-(1.0 - 2.0**-53))


@dataclass(frozen=True)
class ExponentialProcess:
    """I.i.d. exponential draws with the given mean, one per slot.

    Models both harvested power and squared channel gains (Rayleigh fading
    with average power `mean`).
    """

    mean: float

    def __post_init__(self) -> None:
        if not (self.mean > 0.0 and math.isfinite(self.mean)):
            raise ValueError(f"mean must be finite and > 0, got {self.mean}")

    def sample(self, stream: Stream, n: int,
               out: np.ndarray | None = None) -> np.ndarray:
        """`n` draws per lane of `stream`, shaped as its `uniforms`, into
        `out` when given: ``-mean * log1p(-u)``, computed in place by the
        same IEEE operations."""
        u = stream.uniforms(n, out=out)
        np.negative(u, u)
        np.log1p(u, u)
        return np.multiply(u, -self.mean, u)


@dataclass(frozen=True)
class ConstantProcess:
    """Degenerate process: the same value every slot.  Consumes no draws."""

    value: float

    def __post_init__(self) -> None:
        if not (self.value >= 0.0 and math.isfinite(self.value)):
            raise ValueError(f"value must be finite and >= 0, got {self.value}")
        # -0.0 becomes +0.0: processes that compare equal must draw alike.
        object.__setattr__(self, "value", self.value + 0.0)

    @property
    def mean(self) -> float:
        return self.value

    def sample(self, stream: Stream, n: int,
               out: np.ndarray | None = None) -> np.ndarray:
        """`value` in every slot of every lane of `stream`, shaped as its
        `uniforms`, into `out` when given."""
        shape = stream.shape + (int(n),)
        if out is None:
            return np.full(shape, self.value)
        if out.shape != shape:
            raise ValueError(f"out must have shape {shape}, got {out.shape}")
        out.fill(self.value)
        return out


# ---------------------------------------------------------------------------
# Deterministic expectations over the gain densities
# ---------------------------------------------------------------------------


class QuadratureError(RuntimeError):
    """Raised when the adaptive quadrature cannot certify its tolerance."""


def exponential_pdf(mean: float) -> Callable[[float], float]:
    """Density of an exponential with the given mean."""
    if not (mean > 0.0 and math.isfinite(mean)):
        raise ValueError(f"mean must be finite and > 0, got {mean}")

    def pdf(g: float) -> float:
        return math.exp(-g / mean) / mean if g >= 0.0 else 0.0

    return pdf


def max_exponential_pdf(mean: float, count: int) -> Callable[[float], float]:
    """Density of the maximum of `count` i.i.d. exponentials."""
    if not (mean > 0.0 and math.isfinite(mean)):
        raise ValueError(f"mean must be finite and > 0, got {mean}")
    count = int(count)
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")

    def pdf(g: float) -> float:
        if g < 0.0:
            return 0.0
        e = math.exp(-g / mean)
        return count / mean * e * (1.0 - e) ** (count - 1)

    return pdf


def load_compiled(name: str) -> ModuleType:
    """The compiled module `name`, such as ``"scipy.integrate._quadpack"``,
    loaded from its file on first use.

    Only the top-level package is imported (``import scipy``, about
    12 ms); the ``__init__`` of the module's own package does not run
    (all of ``scipy.integrate`` takes about 0.6 s).  The module is
    registered in `sys.modules` under `name`, so a later import of its
    package, or a later call, finds this same module.  Raises
    `ImportError` when the package directory holds no compiled module of
    that name.
    """
    module = sys.modules.get(name)
    if module is not None:
        return module
    package, _, leaf = name.rpartition(".")
    top, *subpackages = package.split(".")
    directory = os.path.join(importlib.import_module(top).__path__[0],
                             *subpackages)
    finder = importlib.machinery.FileFinder(
        directory, (importlib.machinery.ExtensionFileLoader,
                    importlib.machinery.EXTENSION_SUFFIXES))
    spec = finder.find_spec(name)
    if spec is None:
        raise ImportError(f"no compiled module {leaf!r} in {directory}",
                          name=name)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[name]
        raise
    return module


# Why QUADPACK's QAGIE stopped short (its `ier`), as `scipy.integrate.quad`
# explains them; 6 (invalid input) cannot arise from the fixed arguments.
_QUADPACK_STOPS = {
    1: "the maximum number of subdivisions (200) has been achieved",
    2: "roundoff error prevents the requested tolerance",
    3: "extremely bad integrand behaviour at some points",
    4: "roundoff error in the extrapolation table",
    5: "the integral is probably divergent or slowly convergent",
    7: "abnormal termination of the routine",
}


def expectation_quadrature(
    f: Callable[[float], float],
    pdf: Callable[[float], float],
    lower: float = 0.0,
    *,
    abs_tol: float = 1e-10,
    rel_tol: float = 1e-10,
) -> float:
    """Evaluate ``integral of f(g) * pdf(g) over [lower, inf)`` adaptively.

    Raises `QuadratureError` unless the error estimate is below `abs_tol`
    (or, for large integrals where that would exceed double precision,
    below ``rel_tol * |value|``).
    """
    # QUADPACK alone, loaded on first use: importing it through
    # `scipy.integrate` costs about 0.6 s.  The experiments that integrate
    # load it when their config is validated (`Experiment.modules`).
    quadpack = load_compiled("scipy.integrate._quadpack")
    # The call `scipy.integrate.quad(func, lower, inf, epsabs=1e-12,
    # epsrel=1e-12, limit=200)` makes: QAGIE over [lower, inf).
    value, abserr, ier = quadpack._qagie(
        lambda g: f(g) * pdf(g), lower, 1, (), 0, 1e-12, 1e-12, 200)
    if abserr > max(abs_tol, rel_tol * abs(value)):
        detail = f": {_QUADPACK_STOPS[ier]}" if ier in _QUADPACK_STOPS else ""
        raise QuadratureError(
            f"quadrature error estimate {abserr:.2e} exceeds tolerance{detail}"
        )
    return value
