"""Tests for reproducible random streams and distributions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ConfigurationError, StreamFactory


class TestReproducibility:
    def test_same_seed_same_sequence(self):
        a = StreamFactory(42).stream("svc")
        b = StreamFactory(42).stream("svc")
        assert [a.exponential(1.0) for _ in range(20)] == [b.exponential(1.0) for _ in range(20)]

    def test_streams_cached_by_name(self):
        f = StreamFactory(1)
        assert f.stream("x") is f.stream("x")

    def test_stream_independent_of_request_order(self):
        """Asking for extra streams must not perturb an existing one."""
        f1 = StreamFactory(7)
        s1 = f1.stream("jobs")
        ref = [s1.uniform() for _ in range(5)]

        f2 = StreamFactory(7)
        f2.stream("noise-a")  # extra streams requested first
        f2.stream("noise-b")
        s2 = f2.stream("jobs")
        assert [s2.uniform() for _ in range(5)] == ref

    def test_different_names_differ(self):
        f = StreamFactory(3)
        xs = [f.stream("a").uniform() for _ in range(10)]
        ys = [f.stream("b").uniform() for _ in range(10)]
        assert xs != ys

    def test_different_seeds_differ(self):
        assert StreamFactory(1).stream("s").uniform() != StreamFactory(2).stream("s").uniform()


class TestDistributionMoments:
    """Sample-mean sanity checks, generous tolerances (n=20000)."""

    N = 20_000

    def draw(self, fn):
        return np.array([fn() for _ in range(self.N)])

    def test_exponential_mean(self):
        s = StreamFactory(11).stream("d")
        x = self.draw(lambda: s.exponential(4.0))
        assert abs(x.mean() - 4.0) < 0.15
        assert (x >= 0).all()

    def test_erlang_mean_and_lower_cv(self):
        s = StreamFactory(12).stream("d")
        x = self.draw(lambda: s.erlang(4, 10.0))
        assert abs(x.mean() - 10.0) < 0.3
        # Erlang-4 CV = 1/2 < exponential's 1
        assert x.std() / x.mean() < 0.7

    def test_pareto_min_and_mean(self):
        s = StreamFactory(13).stream("d")
        x = self.draw(lambda: s.pareto(3.0, xmin=2.0))
        assert x.min() >= 2.0
        assert abs(x.mean() - 3.0) < 0.2  # alpha*xmin/(alpha-1) = 3

    def test_lognormal_mean_parameterisation(self):
        s = StreamFactory(14).stream("d")
        x = self.draw(lambda: s.lognormal(5.0, 0.5))
        assert abs(x.mean() - 5.0) < 0.25

    def test_weibull_positive(self):
        s = StreamFactory(15).stream("d")
        x = self.draw(lambda: s.weibull(1.5, 3.0))
        assert (x >= 0).all() and x.mean() > 0

    def test_hyperexponential_mixture_mean(self):
        s = StreamFactory(16).stream("d")
        x = self.draw(lambda: s.hyperexponential([1.0, 10.0], [0.9, 0.1]))
        assert abs(x.mean() - (0.9 * 1 + 0.1 * 10)) < 0.2

    def test_uniform_bounds(self):
        s = StreamFactory(17).stream("d")
        x = self.draw(lambda: s.uniform(2.0, 5.0))
        assert x.min() >= 2.0 and x.max() <= 5.0
        assert abs(x.mean() - 3.5) < 0.1

    def test_normal_floor_truncation(self):
        s = StreamFactory(18).stream("d")
        x = self.draw(lambda: s.normal(1.0, 5.0, floor=0.0))
        assert x.min() >= 0.0


class TestDiscrete:
    def test_randint_inclusive_bounds(self):
        s = StreamFactory(20).stream("d")
        vals = {s.randint(1, 3) for _ in range(500)}
        assert vals == {1, 2, 3}

    def test_choice_uniform_and_weighted(self):
        s = StreamFactory(21).stream("d")
        assert s.choice(["only"]) == "only"
        picks = [s.choice(["a", "b"], weights=[0.0, 1.0]) for _ in range(50)]
        assert set(picks) == {"b"}

    def test_zipf_rank_range_and_skew(self):
        s = StreamFactory(22).stream("d")
        ranks = [s.zipf(100, 1.2) for _ in range(3000)]
        assert min(ranks) >= 0 and max(ranks) < 100
        # rank 0 must dominate any deep rank under Zipf
        assert ranks.count(0) > ranks.count(50)

    @pytest.mark.parametrize("exponent", [0.8, 1.0, 1.1])
    def test_zipf_draws_equal_generator_choice(self, exponent):
        """Draw for draw, and in the generator state left behind, zipf equals
        ``Generator.choice(n, p=pmf)`` over the pmf it used to rebuild, and
        its CDF is the one choice computes, bit for bit — whether its cached
        weights were built at length n or are a prefix of a longer array."""
        sizes = list(range(1, 3001)) + list(range(3000, 0, -7))
        for seed in (0, 1, 7):
            stream = StreamFactory(seed).stream("zipf")
            ref = np.random.Generator(np.random.PCG64())
            ref.bit_generator.state = stream._gen.bit_generator.state
            for n in sizes:
                pmf = np.arange(1, n + 1, dtype=float) ** (-exponent)
                pmf /= pmf.sum()
                if seed == 0:
                    cdf = pmf.cumsum()
                    cdf /= cdf[-1]
                    got = stream._zipf_cdf(n, exponent)
                    assert got.tobytes() == cdf.tobytes(), n
                want = int(ref.choice(n, p=pmf))
                assert stream.zipf(n, exponent) == want, (seed, n)
            assert stream._gen.bit_generator.state == ref.bit_generator.state

    def test_zipf_degenerate_exponent_rejected_like_choice(self):
        s = StreamFactory(24).stream("d")
        with pytest.raises(ValueError):
            s.zipf(10, float("nan"))

    def test_zipf_sampler_matches_support(self):
        s = StreamFactory(23).stream("d")
        sample = s.zipf_sampler(10, 1.0)
        ranks = [sample() for _ in range(1000)]
        assert min(ranks) >= 0 and max(ranks) < 10

    def test_poisson_nonnegative(self):
        s = StreamFactory(24).stream("d")
        assert all(s.poisson(3.0) >= 0 for _ in range(100))

    def test_empirical_resamples_input(self):
        s = StreamFactory(25).stream("d")
        data = [1.5, 2.5, 3.5]
        assert all(s.empirical(data) in data for _ in range(50))

    def test_bernoulli_extremes(self):
        s = StreamFactory(26).stream("d")
        assert not any(s.bernoulli(0.0) for _ in range(20))
        assert all(s.bernoulli(1.0) for _ in range(20))

    def test_shuffle_preserves_multiset(self):
        s = StreamFactory(27).stream("d")
        items = list(range(10))
        out = s.shuffle(items)
        assert sorted(out) == items
        assert items == list(range(10))  # input untouched


class TestValidation:
    @pytest.mark.parametrize("call", [
        lambda s: s.exponential(0.0),
        lambda s: s.exponential(-1.0),
        lambda s: s.erlang(0, 1.0),
        lambda s: s.pareto(0.0),
        lambda s: s.pareto(1.0, xmin=-1),
        lambda s: s.weibull(0, 1),
        lambda s: s.lognormal(-1, 0.5),
        lambda s: s.hyperexponential([1.0], [0.5]),
        lambda s: s.hyperexponential([], []),
        lambda s: s.zipf(0),
        lambda s: s.poisson(-1),
        lambda s: s.empirical([]),
        lambda s: s.bernoulli(1.5),
        lambda s: s.choice([]),
        lambda s: s.choice([1, 2], weights=[-1, 2]),
    ])
    def test_bad_parameters_rejected(self, call):
        s = StreamFactory(0).stream("v")
        with pytest.raises(ConfigurationError):
            call(s)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31), name=st.text(min_size=1, max_size=30))
def test_property_stable_hash_reproducible(seed, name):
    """Any (seed, name) pair reproduces across factory instances."""
    a = StreamFactory(seed).stream(name).uniform()
    b = StreamFactory(seed).stream(name).uniform()
    assert a == b and 0.0 <= a < 1.0


@settings(max_examples=20, deadline=None)
@given(mean=st.floats(min_value=0.01, max_value=1e4))
def test_property_exponential_positive(mean):
    s = StreamFactory(5).stream("e")
    assert s.exponential(mean) >= 0.0


def test_exponential_is_memoryless_shape():
    """KS-style check: P(X > 2m) ≈ e^-2 for mean m."""
    s = StreamFactory(99).stream("ks")
    m = 3.0
    xs = np.array([s.exponential(m) for _ in range(20000)])
    frac = (xs > 2 * m).mean()
    assert abs(frac - math.exp(-2)) < 0.02


class TestSpawn:
    def test_spawn_deterministic(self):
        a = StreamFactory(11).spawn("rep:0").stream("arrivals")
        b = StreamFactory(11).spawn("rep:0").stream("arrivals")
        assert [a.uniform() for _ in range(10)] == [b.uniform() for _ in range(10)]

    def test_different_spawn_keys_share_no_leading_values(self):
        """Children spawned under different keys must be independent:
        the leading draws of every stream are pairwise disjoint."""
        parent = StreamFactory(42)
        children = [parent.spawn(f"rep:{r}") for r in range(8)]
        leads = [
            tuple(child.stream("svc").uniform() for _ in range(32))
            for child in children
        ]
        flat = [v for lead in leads for v in lead]
        assert len(set(flat)) == len(flat), "spawned streams overlap"

    def test_child_differs_from_parent(self):
        parent = StreamFactory(7)
        child = parent.spawn("rep:0")
        px = [parent.stream("x").uniform() for _ in range(16)]
        cx = [child.stream("x").uniform() for _ in range(16)]
        assert not set(px) & set(cx)

    def test_spawn_int_and_str_keys_distinct_namespaces(self):
        parent = StreamFactory(3)
        a = parent.spawn(0).stream("s").uniform()
        b = parent.spawn("0").stream("s").uniform()
        # int keys are stringified: same key text, same child
        assert a == b

    def test_spawn_key_recorded(self):
        child = StreamFactory(1).spawn("gen:4")
        assert child.spawn_key == "gen:4"
        assert "gen:4" in repr(child)
