"""Deterministic random-variate streams for probabilistic simulation.

The taxonomy's *behavior* axis separates **deterministic** from
**probabilistic** simulation.  This module is the single gate through which
randomness enters any model in :mod:`repro`: every stochastic entity draws
from its own named :class:`Stream`, and all streams descend from one root
seed via ``numpy.random.SeedSequence.spawn``.  Consequences:

* identical seed ⇒ byte-identical event trajectories (tested property);
* adding a new entity never perturbs the draws of existing ones (streams are
  independent by construction, not by draw-order accident) — the classic
  *common random numbers* discipline for variance reduction when comparing
  policies.

The distribution set covers what the surveyed simulators generate: Poisson
arrivals (exponential gaps), heavy-tailed service (Pareto, Weibull,
lognormal), Zipf file popularity (OptorSim), Erlang/hyperexponential stage
mixtures (MONARC stochastic arrival patterns), and empirical resampling for
monitored traces.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import ConfigurationError

__all__ = ["Stream", "StreamFactory"]


class Stream:
    """One independent random-variate stream backed by a PCG64 generator.

    Not constructed directly in models — obtain streams from a
    :class:`StreamFactory` so independence and reproducibility hold.
    """

    def __init__(self, name: str, seed_seq: np.random.SeedSequence) -> None:
        self.name = name
        self._gen = np.random.Generator(np.random.PCG64(seed_seq))
        #: ``(s, arange(1, N + 1) ** -s)`` for the last Zipf exponent and the
        #: largest support drawn over with it; the power is elementwise, so
        #: any prefix equals the array built for that length.
        self._zipf_weights: tuple[float, np.ndarray] | None = None

    # -- continuous variates ---------------------------------------------------

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """U(low, high)."""
        return float(self._gen.uniform(low, high))

    def exponential(self, mean: float) -> float:
        """Exponential with the given *mean* (not rate)."""
        if mean <= 0:
            raise ConfigurationError(f"exponential mean must be > 0, got {mean}")
        return float(self._gen.exponential(mean))

    def erlang(self, k: int, mean: float) -> float:
        """Erlang-k with total *mean* (sum of k exp stages)."""
        if k < 1:
            raise ConfigurationError(f"erlang shape must be >= 1, got {k}")
        return float(self._gen.gamma(k, mean / k))

    def hyperexponential(self, means: Sequence[float], probs: Sequence[float]) -> float:
        """Mixture of exponentials — a standard bursty-traffic model."""
        if len(means) != len(probs) or not means:
            raise ConfigurationError("means and probs must be equal-length, non-empty")
        if abs(sum(probs) - 1.0) > 1e-9:
            raise ConfigurationError(f"mixture probabilities must sum to 1, got {sum(probs)}")
        i = int(self._gen.choice(len(means), p=np.asarray(probs, dtype=float)))
        return self.exponential(means[i])

    def pareto(self, alpha: float, xmin: float = 1.0) -> float:
        """Pareto(alpha) scaled so the minimum value is *xmin*.

        Heavy-tailed for alpha <= 2; mean exists only for alpha > 1
        (mean = alpha*xmin/(alpha-1)).
        """
        if alpha <= 0 or xmin <= 0:
            raise ConfigurationError("pareto requires alpha > 0 and xmin > 0")
        return float(xmin * (1.0 + self._gen.pareto(alpha)))

    def weibull(self, shape: float, scale: float) -> float:
        """Weibull(shape) * scale."""
        if shape <= 0 or scale <= 0:
            raise ConfigurationError("weibull requires shape > 0 and scale > 0")
        return float(scale * self._gen.weibull(shape))

    def lognormal(self, mean: float, sigma: float) -> float:
        """Lognormal parameterised by the *mean of the variate* and log-space sigma."""
        if mean <= 0 or sigma < 0:
            raise ConfigurationError("lognormal requires mean > 0 and sigma >= 0")
        mu = math.log(mean) - 0.5 * sigma * sigma
        return float(self._gen.lognormal(mu, sigma))

    def normal(self, mean: float, std: float, floor: float | None = None) -> float:
        """Gaussian, optionally truncated below at *floor* (by resampling shift)."""
        x = float(self._gen.normal(mean, std))
        if floor is not None and x < floor:
            return floor
        return x

    # -- discrete variates -------------------------------------------------------

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high] inclusive."""
        return int(self._gen.integers(low, high + 1))

    def choice(self, items: Sequence, weights: Sequence[float] | None = None):
        """Pick one element, optionally weighted (weights need not sum to 1)."""
        if not len(items):
            raise ConfigurationError("cannot choose from an empty sequence")
        if weights is None:
            return items[int(self._gen.integers(len(items)))]
        w = np.asarray(weights, dtype=float)
        if w.min() < 0 or w.sum() <= 0:
            raise ConfigurationError("weights must be non-negative with positive sum")
        return items[int(self._gen.choice(len(items), p=w / w.sum()))]

    def zipf(self, n: int, s: float = 1.0) -> int:
        """Zipf-distributed rank in [0, n): P(k) ∝ 1/(k+1)^s.

        The file-popularity law OptorSim-style replication studies assume.
        Computed by inverse-CDF over the finite support (exact, no rejection).
        """
        if n < 1:
            raise ConfigurationError(f"zipf support size must be >= 1, got {n}")
        cdf = self._zipf_cdf(n, s)
        if cdf is None:
            # let numpy reject the degenerate pmf with its own error
            pmf = np.arange(1, n + 1, dtype=float) ** (-s)
            return int(self._gen.choice(n, p=pmf / pmf.sum()))
        # Generator.choice(n, p=pmf) draws one double and bisects: the same
        # rank and generator state, without its per-call validation.
        return int(cdf.searchsorted(self._gen.random(), "right"))

    def _zipf_cdf(self, n: int, s: float) -> np.ndarray | None:
        """The CDF ``Generator.choice`` builds from the Zipf(n, s) pmf, bit
        for bit (None when that pmf is degenerate)."""
        cached = self._zipf_weights
        if cached is None or cached[0] != s or len(cached[1]) < n:
            size = n if cached is None or cached[0] != s \
                else max(n, 2 * len(cached[1]))
            cached = self._zipf_weights = (
                s, np.arange(1, size + 1, dtype=float) ** (-s))
        weights = cached[1][:n]
        total = weights.sum()
        if not 0.0 < total < math.inf:
            return None
        cdf = (weights / total).cumsum()
        cdf /= cdf[-1]
        return cdf

    def zipf_sampler(self, n: int, s: float = 1.0):
        """Return a zero-arg callable sampling Zipf ranks with a cached CDF.

        Use when drawing many ranks from the same (n, s) — avoids the
        O(n) pmf rebuild per draw of :meth:`zipf`.
        """
        if n < 1:
            raise ConfigurationError(f"zipf support size must be >= 1, got {n}")
        ranks = np.arange(1, n + 1, dtype=float)
        pmf = ranks ** (-s)
        cdf = np.cumsum(pmf / pmf.sum())

        def sample() -> int:
            return int(np.searchsorted(cdf, self._gen.random(), side="right"))

        return sample

    def poisson(self, lam: float) -> int:
        """Poisson counting variate (used for batch sizes)."""
        if lam < 0:
            raise ConfigurationError(f"poisson rate must be >= 0, got {lam}")
        return int(self._gen.poisson(lam))

    def empirical(self, samples: Sequence[float]) -> float:
        """Resample uniformly from observed data (monitored-input path)."""
        if not len(samples):
            raise ConfigurationError("empirical distribution needs at least one sample")
        return float(samples[int(self._gen.integers(len(samples)))])

    def bernoulli(self, p: float) -> bool:
        """True with probability *p*."""
        if not 0.0 <= p <= 1.0:
            raise ConfigurationError(f"bernoulli p must be in [0,1], got {p}")
        return bool(self._gen.random() < p)

    def shuffle(self, items: list) -> list:
        """Return a new list with *items* in random order (input untouched)."""
        out = list(items)
        self._gen.shuffle(out)
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Stream {self.name!r}>"


class StreamFactory:
    """Spawns named, mutually independent :class:`Stream` objects from one seed.

    The same (seed, spawn order) always yields the same streams; streams are
    cached by name so asking twice returns the *same* stream object.
    """

    def __init__(self, seed: int = 0, spawn_key: str | None = None) -> None:
        self.seed = int(seed)
        self.spawn_key = spawn_key
        self._root = np.random.SeedSequence(self.seed)
        self._streams: dict[str, Stream] = {}

    def stream(self, name: str) -> Stream:
        """Get (or create) the stream with the given *name*.

        Stream identity is derived from the name's stable hash, not spawn
        order, so the set of *other* streams requested never affects the
        variates a given name produces.
        """
        st = self._streams.get(name)
        if st is None:
            digest = _stable_hash(name)
            seq = np.random.SeedSequence([self.seed, digest])
            st = Stream(name, seq)
            self._streams[name] = st
        return st

    def spawn(self, key: str | int) -> "StreamFactory":
        """Derive an independent child factory keyed by *key*.

        The child's root seed is a stable 63-bit hash of ``(seed, key)``, so
        the same (seed, key) pair names the same child on every machine and
        in every process — this is how campaign runs get per-replication
        RNG universes that a worker can reconstruct from two plain values.

        Child streams are drawn from ``SeedSequence([child_seed, name])``
        while in-run streams use ``SeedSequence([seed, name])``; distinct
        roots keep the two universes from ever sharing a stream, and
        spawning is composable (``spawn(a).spawn(b)`` is itself stable).
        """
        child_seed = _stable_hash(f"{self.seed}\x1fspawn\x1f{key}") \
            & 0x7FFFFFFFFFFFFFFF
        return StreamFactory(child_seed, spawn_key=str(key))

    def __repr__(self) -> str:  # pragma: no cover
        key = f" key={self.spawn_key!r}" if self.spawn_key is not None else ""
        return f"<StreamFactory seed={self.seed}{key} streams={len(self._streams)}>"


def _stable_hash(name: str) -> int:
    """64-bit FNV-1a of *name* — stable across processes (unlike ``hash``)."""
    h = 0xCBF29CE484222325
    for byte in name.encode("utf-8"):
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h
