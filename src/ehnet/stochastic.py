"""Random inputs (harvests, channel gains) and deterministic expectations.

Every random quantity in a run is drawn from its own stream, keyed by the
run seed plus a small integer tuple naming what the draws are for (for
example ``(0, node, 0)`` for a node's harvest, ``(1, tx, rx)`` for a link's
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

`seed_states` gives the PCG64 seed words of many streams at once.  It is
numpy's `SeedSequence.mix_entropy` and `generate_state` written out step
for step, one `uint32` lane per stream, so it reads beside numpy's
source.  Hash call k xors with value k of its `_constants` and multiplies
by value k + 1.  Calls 0-3 take a seed's first 4 words, zero-padded, into
the pool and calls 4-15 mix each pool word into the other three: both
run once per seed.  The word at entropy position p >= 4 takes calls 4p
to 4p + 3: first a long seed's own words, then the key's from position
max(seed words, 4), on a copy of the seed's pool per key; a key whose
words ran out keeps its pool.  `generate_state` hashes the pool out.
The words come from one `int.to_bytes` per seed or key part.
A PCG64 reads nothing from its seed source but `generate_state(4,
uint64)`, so a `Stream` built from its precomputed row draws exactly what
the `SeedSequence` would have given it.  NumPy's stream-compatibility
policy (NEP 19) fixes the SeedSequence algorithm, which is what makes
this exact.

Model inputs obey three rules: `is_integer`, an integer (numpy's too)
other than a bool; `check_count`, such an integer at least a bound; and
`check_real`, a finite real (numpy's too) other than a bool, at least or
above a bound.  Each refusal is a one-line `ValueError` naming the field.
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
    "check_count",
    "check_real",
    "expectation_quadrature",
    "exponential_pdf",
    "is_integer",
    "load_compiled",
    "max_exponential_pdf",
    "seed_states",
]

# SeedSequence's pool size and hash constants (numpy.random.bit_generator).
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)


def is_integer(value) -> bool:
    """Whether `value` is an integer, numpy's too, other than a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_real(name: str, value, bound=0.0, strict=False, error=ValueError):
    """The real rule (see the module docstring); `strict`: > `bound`."""
    if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max  # not NaN, inf or 10**400
            and (value > bound if strict else value >= bound)):
        raise error(f"{name} must be a finite number "
                    f"{'>' if strict else '>='} {bound:g}, got {value!r}")


def check_count(name: str, value, bound=1, error=ValueError):
    """The count rule.  Both rules raise `error`: ValueError or a subclass."""
    if not (is_integer(value) and value >= bound):
        raise error(f"{name} must be an integer >= {bound}, got {value!r}")


def _word_matrix(values) -> tuple[np.ndarray, np.ndarray]:
    """Each of `values` as its little-endian uint32 words, as
    `SeedSequence` reads an int: a (len(values), width) uint32 array,
    zero-padded to the widest value, and each value's word count, at
    least 1.  One `to_bytes` per value, and one read of all the bytes."""
    values = list(map(operator.index, values))
    if values and min(values) < 0:
        raise ValueError(f"seeds and key parts must be >= 0, got "
                         f"{min(values)}")
    width = max(1, (max(values, default=0).bit_length() + 31) // 32)
    raw = b"".join([v.to_bytes(4 * width, "little") for v in values])
    words = np.frombuffer(raw, dtype="<u4").astype(np.uint32, copy=False)
    words = words.reshape(len(values), width)
    # A value's words run to its last nonzero one; zero is one word.
    used = words != 0
    counts = np.where(used.any(axis=1),
                      width - used[:, ::-1].argmax(axis=1), 1)
    return words, counts


def _constants(init: int, mult: int, count: int) -> np.ndarray:
    """The first `count` values of a hash constant: init, init * mult, ...
    modulo 2^32.  Hash call k xors with value k and multiplies by value
    k + 1, as `hashmix` steps its constant."""
    values = [init]
    for _ in range(count - 1):
        values.append(values[-1] * mult % 2**32)
    return np.array(values, dtype=np.uint32)


def _hashmix(value: np.ndarray, xor, mul) -> np.ndarray:
    value = value ^ xor
    value *= mul
    value ^= value >> _XSHIFT
    return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_MULT_L
    result -= y * _MIX_MULT_R
    result ^= result >> _XSHIFT
    return result


def seed_states(seeds, keys, n_words: int = 4) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=key).generate_state(n_words,
    np.uint64)`` for every seed and key, seed-major: a uint64 array of
    shape (len(seeds) * len(keys), n_words).

    Seeds and key parts are non-negative integers of any width; a negative
    one, or a bool, raises `ValueError`.  Each row is one lane of numpy's
    `mix_entropy` and `generate_state` (see the module docstring)."""
    seeds, keys = list(seeds), [tuple(key) for key in keys]
    parts = [part for key in keys for part in key]
    if bool in map(type, seeds) or bool in map(type, parts):
        raise ValueError("seeds and key parts must not be bools")
    seed_words, seed_lengths = _word_matrix(seeds)
    part_words, part_lengths = _word_matrix(parts)
    if not (seeds and keys):
        return np.empty((0, n_words), dtype=np.uint64)
    # A key's words are its parts' words in turn, zero-padded to the
    # longest key's; a seed's are zero-padded to the pool size.
    owner = np.repeat(np.arange(len(keys)), [len(key) for key in keys])
    key_lengths = np.bincount(owner, part_lengths, len(keys)).astype(int)
    key_words = np.zeros((len(keys), key_lengths.max()), dtype=np.uint32)
    key_words[np.arange(key_lengths.max()) < key_lengths[:, None]] = \
        part_words[np.arange(part_words.shape[1]) < part_lengths[:, None]]
    starts = np.maximum(seed_lengths, _POOL)
    entropy = np.zeros((len(seeds), starts.max()), dtype=np.uint32)
    entropy[:, :seed_words.shape[1]] = seed_words
    a = _constants(_INIT_A, _MULT_A, 4 * (starts.max() + len(key_words.T)) + 1)
    # mix_entropy, with pool word i in row i until the pool is mixed, so
    # each step writes whole rows.  Calls 0-3 take the first 4 words in.
    pool = _hashmix(entropy[:, :_POOL].T, a[:4, None], a[1:5, None])
    # Calls 4-15 mix each pool word into each other one, in order.
    for src in range(_POOL):
        dst, k = [d for d in range(_POOL) if d != src], 4 + 3 * src
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], a[k:k + 3, None],
                                             a[k + 1:k + 4, None]))
    m = 2 * n_words
    b = _constants(_INIT_B, _MULT_B, m + 1)
    state = np.empty((len(seeds), len(keys), m), dtype=np.uint32)
    # The word at position p >= 4 takes calls 4p to 4p + 3, one per pool
    # word: first a long seed's own words, then, from position `start`,
    # the key's, on a copy of the seed's pool per key.  Seeds below 2^128
    # all start at 4, so there is one group unless a seed is wider.
    groups = sorted(set(starts.tolist()))
    for start in groups:
        rows = starts == start if len(groups) > 1 else slice(None)
        lane = pool.T[rows]
        for p in range(_POOL, start):
            k = 4 * p
            lane = _mix(lane, _hashmix(entropy[rows, p, None], a[k:k + 4],
                                       a[k + 1:k + 5]))
        lane = np.repeat(lane[:, None], len(keys), axis=1)
        for j, words in enumerate(key_words.T):
            k = 4 * (start + j)
            mixed = _mix(lane, _hashmix(words[:, None], a[k:k + 4],
                                        a[k + 1:k + 5]))
            # A key whose words ran out keeps its pool.
            lane = mixed if j < key_lengths.min() else np.where(
                (key_lengths > j)[:, None], mixed, lane)
        # generate_state: state word i hashes pool word i % 4.
        state[rows] = _hashmix(lane[..., np.arange(m) % _POOL], b[:m], b[1:])
    # Word 2i is the low half of uint64 word i, as in generate_state.
    return state.astype("<u4").view("<u8").astype(np.uint64).reshape(
        -1, n_words)


class _SeedWords(ISeedSequence):
    """Seed source handing a bit generator its precomputed state words:
    4 uint64 words, all that a PCG64 asks for."""

    __slots__ = ("_words",)

    def __init__(self, words: np.ndarray):
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        # PCG64 passes the `np.uint64` type itself: the `is` test spares
        # it an `np.dtype` call.
        if n_words != 4 or (dtype is not np.uint64
                            and np.dtype(dtype) != np.uint64):
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
        scalar = isinstance(seed, numbers.Integral)
        seeds = [seed] if scalar else list(seed)
        if any(isinstance(s, bool) for s in seeds):
            raise ValueError(f"seed must not be a bool, got {seed!r}")
        seeds = list(map(operator.index, seeds))
        self.seed = seeds[0] if scalar else tuple(seeds)
        self.shape = () if scalar else (len(seeds),)
        key = tuple(key)
        several = bool(key) and not isinstance(key[0], numbers.Number)
        keys = [tuple(part) for part in key] if several else [key]
        if not all(is_integer(part) for k in keys for part in k):
            raise ValueError(f"key {key!r} has a part that is not an integer")
        self.key = tuple(keys) if several else key
        self.shape = (len(keys),) * several + self.shape
        if state is None:
            state = seed_states(seeds, keys).reshape(
                len(seeds), len(keys), -1).swapaxes(0, 1)
        rows = np.ascontiguousarray(state, dtype=np.uint64).reshape(
            len(keys) * len(seeds), 4)
        self._gens = [np.random.Generator(np.random.PCG64(_SeedWords(row)))
                      for row in rows]

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
        check_real("mean", self.mean, strict=True)

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
        check_real("value", self.value)
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
    check_real("mean", mean, strict=True)

    def pdf(g: float) -> float:
        return math.exp(-g / mean) / mean if g >= 0.0 else 0.0

    return pdf


def max_exponential_pdf(mean: float, count: int) -> Callable[[float], float]:
    """Density of the maximum of `count` i.i.d. exponentials."""
    check_real("mean", mean, strict=True)
    check_count("count", count)

    def pdf(g: float) -> float:
        if g < 0.0:
            return 0.0
        e = math.exp(-g / mean)
        return count / mean * e * (1.0 - e) ** (count - 1)

    return pdf


# What a compiled module imports by name at its first call rather than
# when it loads.  QUADPACK's C code imports `scipy._lib._ccallback`, and
# with it runs scipy's package ``__init__`` (about 8 ms);
# `load_compiled` imports it with QUADPACK, so that cost falls where
# QUADPACK's load does (in set-up for the experiments that integrate),
# not inside the first quadrature.
_IMPORTED_AT_FIRST_CALL = {
    "scipy.integrate._quadpack": "scipy._lib._ccallback",
}


def load_compiled(name: str) -> ModuleType:
    """The compiled module `name`, such as ``"scipy.integrate._quadpack"``,
    loaded from its file on first use.

    No package ``__init__`` runs: the top-level package's directory is
    found with `importlib.util.find_spec`, which imports nothing, so
    loading ``scipy.special._special_ufuncs`` runs neither ``import
    scipy`` (about 8-11 ms) nor ``import scipy.special`` (about 0.13 s
    more).  The one exception is the import that `_IMPORTED_AT_FIRST_CALL`
    names for QUADPACK, which runs scipy's ``__init__``.  The module is
    registered in `sys.modules` under `name`, so a later import of its
    package, or a later call, finds this same module.  Raises
    `ImportError` when there is no such package, or when its directory
    holds no compiled module of that name.
    """
    module = sys.modules.get(name)
    if module is not None:
        return module
    if name in _IMPORTED_AT_FIRST_CALL:
        importlib.import_module(_IMPORTED_AT_FIRST_CALL[name])
    package, _, leaf = name.rpartition(".")
    top, *subpackages = package.split(".")
    top_spec = importlib.util.find_spec(top)
    if top_spec is None or not top_spec.submodule_search_locations:
        raise ImportError(f"no package {top!r}", name=name)
    directory = os.path.join(top_spec.submodule_search_locations[0],
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
