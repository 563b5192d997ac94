"""Batched sampling and decoding against the per-row reference loop.

``ConfigurationSpace.sample_configurations`` draws whole batches and
decodes them column by column; ``from_array`` decodes once and builds a
trusted configuration.  These properties pin both to the plain loop
they replace — ``{p.name: p.sample(rng) ...}`` rows, ``is_feasible``, a
validating ``Configuration`` and per-parameter ``to_unit`` — on
generated spaces that mix every parameter kind: equal values, types and
reprs, equal unit bytes, and the generator left in the same state.
"""

import math
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.parameters import (
    BooleanParameter,
    CategoricalParameter,
    Configuration,
    ConfigurationSpace,
    NumericParameter,
    make_constraint,
)
from repro.exceptions import ConstraintViolation, ValidationError
from repro.tuners.common import candidate_pool

_SETTINGS = dict(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Choice lists, including equal-but-distinct choices (``0 == False``),
#: whose unit code is the index of the first equal choice.
_CHOICES = [
    ["a", "b"],
    ["x", "y", "z"],
    [1, 2, 4, 8, 16],
    [0, False, "off"],
    [0.5, None, "auto", 3],
]


# -- the reference: the per-row loop ----------------------------------------------
def reference_sample(space, rng, max_tries=256):
    for _ in range(max_tries):
        values = {p.name: p.sample(rng) for p in space.parameters()}
        if space.is_feasible(values):
            return Configuration(space, values)
    raise ValidationError(f"no feasible row in {max_tries} tries")


def reference_pool(space, rng, n):
    """``n`` slots of the loop; a slot that exhausts its tries is dropped."""
    pool = []
    for _ in range(n):
        try:
            pool.append(reference_sample(space, rng))
        except ValidationError:
            continue
    return pool


def reference_unit(config):
    return np.array(
        [p.to_unit(config[p.name]) for p in config.space.parameters()],
        dtype=float,
    )


def assert_same(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert ([(k, type(v), repr(v)) for k, v in g.items()]
                == [(k, type(v), repr(v)) for k, v in w.items()])
        assert repr(g) == repr(w)
        assert g == w and hash(g) == hash(w)
        assert g.to_array().tobytes() == reference_unit(w).tobytes()


# -- generated spaces ----------------------------------------------------------------
@st.composite
def numeric_parameters(draw, name):
    integer, log_scale = draw(st.booleans()), draw(st.booleans())
    if log_scale:
        low = draw(st.floats(1e-3, 1e3))
        high = low * draw(st.floats(2.0, 1e4))
    else:
        # spans zero often, so integer rounding meets -0.0
        low = draw(st.floats(-1e3, 1e3))
        high = low + draw(st.floats(2.0, 1e4))
    if integer:
        high = max(high, math.ceil(low) + 1.0)
    return NumericParameter(name, low, low, high, integer=integer,
                            log_scale=log_scale)


@st.composite
def parameters(draw, name):
    kind = draw(st.sampled_from(["numeric", "numeric", "categorical", "boolean"]))
    if kind == "numeric":
        return draw(numeric_parameters(name))
    if kind == "boolean":
        return BooleanParameter(name, draw(st.booleans()))
    choices = draw(st.sampled_from(_CHOICES))
    return CategoricalParameter(name, choices[0], choices)


def _accept_share(percent):
    def predicate(values):
        key = repr(sorted(values.items())).encode()
        return zlib.crc32(key) % 1000 < percent * 10
    return predicate


@st.composite
def spaces(draw, min_accept=20):
    """A mixed space whose constraint rejects ``100 - accept`` % of rows.

    One real-valued knob sits at a random position, so rows are distinct
    and the share holds; a space of a few booleans could reject all.
    """
    d = draw(st.integers(min_value=0, max_value=7))
    params = [draw(parameters(f"p{i}")) for i in range(d)]
    params.insert(draw(st.integers(min_value=0, max_value=d)),
                  NumericParameter("real", 0.5, 0.0, 1.0))
    space = ConfigurationSpace(params, name="generated")
    accept = draw(st.integers(min_value=min_accept, max_value=100))
    space.add_constraint(
        make_constraint("share", space.names(), _accept_share(accept))
    )
    return space


def _fixed_space(accept_percent):
    space = ConfigurationSpace([
        NumericParameter("mem", 64, 1, 4096, integer=True, log_scale=True),
        CategoricalParameter("codec", "lz4", ["lz4", "zstd", "none"]),
        NumericParameter("frac", 0.5, 0.0, 1.0),
        BooleanParameter("spec", False),
        NumericParameter("delta", 0, -3.5, 3.5, integer=True),
    ])
    space.add_constraint(
        make_constraint("share", space.names(), _accept_share(accept_percent))
    )
    return space


# -- properties ----------------------------------------------------------------------
class TestBatchedSampling:
    @given(space=spaces(), n=st.integers(min_value=0, max_value=64),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(**_SETTINGS)
    def test_batch_equals_per_row_loop(self, space, n, seed):
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = space.sample_configurations(n, got_rng)
        want = reference_pool(space, want_rng, n)
        assert_same(got, want)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @given(space=spaces(), seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(**_SETTINGS)
    def test_single_samples_equal_per_row_loop(self, space, seed):
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = [space.sample_configuration(got_rng) for _ in range(4)]
        want = [reference_sample(space, want_rng) for _ in range(4)]
        assert_same(got, want)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @given(space=spaces(), seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(**_SETTINGS)
    def test_candidate_pool_stacks_the_sampled_rows(self, space, seed):
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        pool, X = candidate_pool(space, got_rng, n_random=16)
        assert_same(pool, reference_pool(space, want_rng, 16))
        assert X.shape == (len(pool), space.dimension)
        assert X.tobytes() == b"".join(reference_unit(c).tobytes() for c in pool)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


class TestExhaustedSlots:
    def test_rejecting_every_row_drops_slots_and_raises_like_loop(self):
        space = _fixed_space(accept_percent=0)
        got_rng, want_rng = np.random.default_rng(3), np.random.default_rng(3)
        pool, X = candidate_pool(space, got_rng, n_random=3)
        assert pool == [] and X.shape == (0, space.dimension)
        assert reference_pool(space, want_rng, 3) == []
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        with pytest.raises(ValidationError):
            space.sample_configuration(got_rng)
        with pytest.raises(ValidationError):
            reference_sample(space, want_rng)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_rare_acceptance_drops_only_exhausted_slots(self):
        # 0.3% acceptance: about half the slots use up their 256 tries
        space = _fixed_space(accept_percent=0.3)
        got_rng, want_rng = np.random.default_rng(5), np.random.default_rng(5)
        got = space.sample_configurations(8, got_rng)
        want = reference_pool(space, want_rng, 8)
        assert 0 < len(want) < 8
        assert_same(got, want)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_no_tries_draws_nothing(self):
        space = _fixed_space(accept_percent=100)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        assert space.sample_configurations(4, rng, max_tries=0) == []
        with pytest.raises(ValidationError):
            space.sample_configuration(rng, max_tries=0)
        assert rng.bit_generator.state == before


_UNIT_ENTRIES = st.one_of(
    st.floats(min_value=-0.5, max_value=1.5),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1.0]),
)


class TestDecodeOnce:
    @given(space=spaces(min_accept=50), data=st.data())
    @settings(**_SETTINGS)
    def test_from_array_equals_decode_then_validate(self, space, data):
        x = data.draw(st.lists(_UNIT_ENTRIES, min_size=space.dimension,
                               max_size=space.dimension))
        values = {p.name: p.from_unit(float(u))
                  for p, u in zip(space.parameters(), x)}
        try:
            want = Configuration(space, values)
        except ConstraintViolation:
            with pytest.raises(ConstraintViolation):
                space.from_array(x)
            return
        assert_same([space.from_array(x)], [want])

    @given(space=spaces(), seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(**_SETTINGS)
    def test_trusted_and_validated_configurations_agree(self, space, seed):
        for trusted in space.sample_configurations(8, np.random.default_rng(seed)):
            validated = Configuration(space, dict(trusted))
            assert trusted == validated and validated == trusted
            assert hash(trusted) == hash(validated)
            assert {validated: "hit"}[trusted] == "hit"
            assert trusted.to_array().tobytes() == validated.to_array().tobytes()


class TestColumnDecode:
    @pytest.mark.parametrize("low, high", [(-0.0, 4.0), (-3.0, -0.0), (0.0, 2.5)])
    @pytest.mark.parametrize("integer", [False, True])
    def test_zero_bounds_keep_their_sign(self, low, high, integer):
        # a draw of exactly 0.0 meets a signed-zero bound, where the
        # clamp must pick the operand Python's max/min pick
        param = NumericParameter("z", low, low, high, integer=integer)
        draws = np.array([0.0, 0.25, 0.5, 1.0 - 2.0**-53])
        values, unit = param._decode_column(draws)
        want = [param.from_unit(u) for u in draws.tolist()]
        assert [repr(v) for v in values] == [repr(v) for v in want]
        assert unit.tobytes() == np.array([param.to_unit(v) for v in want]).tobytes()


class TestUnitMemo:
    def _configs(self):
        space = _fixed_space(accept_percent=100)
        rng = np.random.default_rng(11)
        sampled = space.sample_configurations(4, rng)
        return sampled + [
            space.sample_configuration(rng),
            Configuration(space, dict(sampled[0])),
            space.from_array(np.full(space.dimension, 0.3)),
        ]

    def test_writing_the_returned_array_leaves_the_memo(self):
        for config in self._configs():
            first = config.to_array()
            first[:] = -1.0
            assert config.to_array().tobytes() == reference_unit(config).tobytes()

    def test_memo_is_its_own_row(self):
        # a view would keep the whole batch's unit matrix alive
        for config in self._configs():
            config.to_array()
            assert config._unit.base is None
