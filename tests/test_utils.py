"""Utility helpers: rng plumbing, math helpers, error hierarchy."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.errors import (
    GraphValidationError,
    ModelViolationError,
    PackingConstructionError,
    PackingValidationError,
    ReproError,
    SimulationError,
)
from repro.utils.mathutil import ceil_div, ceil_log2, ilog2, int_log, whp_repeats
from repro.utils.rng import child_rng, ensure_rng, fresh_seed, spawn_rngs


class TestRngPlumbing:
    def test_none_gives_fresh(self):
        assert isinstance(ensure_rng(None), random.Random)

    def test_int_is_deterministic(self):
        assert ensure_rng(7).random() == ensure_rng(7).random()

    def test_instance_passthrough(self):
        r = random.Random(1)
        assert ensure_rng(r) is r

    def test_rejects_bool_and_junk(self):
        with pytest.raises(TypeError):
            ensure_rng(True)
        with pytest.raises(TypeError):
            ensure_rng("seed")

    def test_spawn_independent(self):
        children = spawn_rngs(5, 3)
        assert len(children) == 3
        draws = [c.random() for c in children]
        assert len(set(draws)) == 3

    def test_spawn_rejects_negative(self):
        with pytest.raises(ValueError):
            spawn_rngs(1, -1)

    def test_fresh_seed_in_range(self):
        seed = fresh_seed(random.Random(2))
        assert 0 <= seed < 2**63

    def test_child_rng_is_a_pure_function_of_root_and_path(self):
        assert child_rng(5, 3).random() == child_rng(5, 3).random()
        firsts = {
            child_rng(seed, *path).random()
            for seed, path in [
                (5, (3,)), (5, (4,)), (5, (3, 4)), (5, (34,)), (6, (3,)),
                (5, ()),
            ]
        }
        assert len(firsts) == 6


class TestMathHelpers:
    def test_ceil_div(self):
        assert ceil_div(7, 2) == 4
        assert ceil_div(8, 2) == 4
        assert ceil_div(0, 3) == 0
        with pytest.raises(ValueError):
            ceil_div(1, 0)

    def test_ilog2(self):
        assert ilog2(1) == 0
        assert ilog2(8) == 3
        assert ilog2(9) == 3
        with pytest.raises(ValueError):
            ilog2(0)

    def test_ceil_log2(self):
        assert ceil_log2(1) == 0
        assert ceil_log2(8) == 3
        assert ceil_log2(9) == 4

    def test_int_log_clamps(self):
        assert int_log(0) == math.log(2)
        assert int_log(100) == pytest.approx(math.log(100))

    def test_whp_repeats_grows(self):
        assert whp_repeats(2) >= 1
        assert whp_repeats(10**6) > whp_repeats(10)


class TestErrors:
    def test_hierarchy(self):
        for exc in (
            GraphValidationError,
            PackingValidationError,
            PackingConstructionError,
            SimulationError,
            ModelViolationError,
        ):
            assert issubclass(exc, ReproError)
        assert issubclass(ModelViolationError, SimulationError)

    def test_package_exports(self):
        assert repro.__version__
        assert repro.ReproError is ReproError


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 2**40))
def test_log_identities_property(n):
    assert 2 ** ilog2(n) <= n < 2 ** (ilog2(n) + 1)
    assert 2 ** ceil_log2(n) >= n
