"""Batched sampling and decoding against the per-row reference loop.

``ConfigurationSpace.sample_configurations`` draws whole batches (for
``PCG64``, from one block of raw words), decodes them column by column
and returns a ``ConfigurationBatch`` that builds a row's configuration
only when it is taken; ``from_array`` decodes once and builds a trusted
configuration; ``from_arrays_feasible`` decodes a matrix of given rows.
These properties pin them to the plain loops they replace —
``{p.name: p.sample(rng) ...}`` rows, ``is_feasible``, a validating
``Configuration``, per-parameter ``to_unit`` and one
``from_array_feasible`` call per row — on generated spaces that mix
every parameter kind: equal values, types, reprs and identity strings,
equal unit bytes, and the generator left in the same state.
"""

import importlib
import math
import types
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import make_tuner
from repro.bench.harness import standard_cluster
from repro.core import Budget
from repro.core import parameters as core_parameters
from repro.core.parameters import (
    BooleanParameter,
    CategoricalParameter,
    Configuration,
    ConfigurationSpace,
    Constraint,
    NumericParameter,
    make_constraint,
)
from repro.exceptions import ConstraintViolation, ParameterError, ValidationError
from repro.systems.dbms import DbmsSimulator, htap_mixed
from repro.tuners.common import candidate_pool
from repro.tuners.ml.ottertune import build_repository

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
        assert repr(g) == repr(w) and g.identity() == w.identity()
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


def _subset_share(names, percent):
    """Like :func:`_accept_share`, reading only ``names``."""
    def predicate(values):
        key = repr([(name, values[name]) for name in names]).encode()
        return zlib.crc32(key) % 1000 < percent * 10
    return predicate


@st.composite
def constrained_spaces(draw):
    """A generated space that also has a constraint touching a random
    subset of its names, listed in random order, and a plain
    :class:`Constraint`, which sees the whole row.

    The subset keeps the real-valued knob, so its rows are distinct.
    """
    space = draw(spaces(min_accept=50))
    subset = [n for n in space.names() if n == "real" or draw(st.booleans())]
    touches = draw(st.permutations(subset))
    shares = st.integers(min_value=50, max_value=100)
    space.add_constraint(
        make_constraint("subset", touches, _subset_share(touches, draw(shares)))
    )
    space.add_constraint(Constraint("plain", _accept_share(draw(shares))))
    return space


def _indices(n):
    """Every index of ``n`` rows once, in random order, each as a
    Python or numpy integer, non-negative or negative."""
    return st.permutations(range(n)).flatmap(lambda order: st.tuples(*(
        st.sampled_from([i, i - n, np.int64(i), np.intp(i - n)]) for i in order
    )))


class TestLazyBatch:
    @given(space=constrained_spaces(), n=st.integers(min_value=0, max_value=64),
           seed=st.integers(min_value=0, max_value=2**32 - 1), data=st.data())
    @settings(**_SETTINGS)
    def test_rows_taken_in_any_way_equal_per_row_loop(self, space, n, seed, data):
        want_rng = np.random.default_rng(seed)
        want = reference_pool(space, want_rng, n)
        got_rng = np.random.default_rng(seed)
        batch = space.sample_configurations(n, got_rng)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        indices = data.draw(_indices(len(want)))
        taken = {int(i) % len(want): batch[i] for i in indices}
        assert_same([taken[i] for i in range(len(want))], want)
        assert_same(list(space.sample_configurations(n, np.random.default_rng(seed))), want)
        rows = slice(*data.draw(st.tuples(*[st.none() | st.integers(-70, 70)] * 2)),
                     data.draw(st.none() | st.sampled_from([1, 2, 3, -1, -2])))
        batch = space.sample_configurations(n, np.random.default_rng(seed))
        assert_same(batch[rows], want[rows])

    def test_constraints_see_their_columns_in_parameter_order(self):
        space = _fixed_space(accept_percent=100)
        seen = {"touched": set(), "plain": set()}

        def recorder(key):
            def predicate(values):
                seen[key].add(tuple(values))
                return True
            return predicate

        space.add_constraint(
            make_constraint("touched", ["delta", "mem", "spec"], recorder("touched"))
        )
        space.add_constraint(Constraint("plain", recorder("plain")))
        space.sample_configurations(64, np.random.default_rng(3))
        space.from_arrays_feasible(np.full((4, space.dimension), 0.4),
                                   np.random.default_rng(3))
        assert seen == {"touched": {("mem", "spec", "delta")},
                        "plain": {tuple(space.names())}}

    def test_add_constraint_refuses_unknown_touches(self):
        space = _fixed_space(accept_percent=100)
        with pytest.raises(ParameterError, match="nope"):
            space.add_constraint(make_constraint("bad", ["mem", "nope"], bool))
        assert [c.name for c in space.constraints()] == ["share"]

    def test_unit_matrix_is_read_only(self):
        pool, X = candidate_pool(_fixed_space(accept_percent=100),
                                 np.random.default_rng(2), n_random=8)
        with pytest.raises(ValueError):
            X[0, 0] = 0.5
        row = pool[0].to_array()
        row[0] = 0.5  # a configuration's own row stays writable


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
        column, unit = param._decode_column(draws)
        want = [param.from_unit(u) for u in draws.tolist()]
        for values in (param._python_column(column),
                       [param._python_value(x) for x in column.tolist()]):
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


# -- the bulk draw and its fallbacks ---------------------------------------------------
def assert_same_draws(got, want):
    for g, w in zip(got, want):
        assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes())


def state_of(rng):
    """``bit_generator.state`` with its arrays (MT19937, Philox) as bytes."""
    def plain(value):
        if isinstance(value, dict):
            return {k: plain(v) for k, v in value.items()}
        if isinstance(value, np.ndarray):
            return (value.dtype.str, value.tobytes())
        return value
    return plain(rng.bit_generator.state)


def _generators(seed, buffered, kind=np.random.PCG64):
    """Two equal generators; ``buffered`` leaves a half-word in each
    one's 32-bit buffer, as an odd number of categorical draws does."""
    pair = [np.random.Generator(kind(seed)) for _ in range(2)]
    for rng in pair:
        if buffered:
            rng.integers(5)
    return pair


@pytest.fixture
def bulk_calls(monkeypatch):
    """Each bulk draw's outcome: True if it returned draws, False if it
    fell back."""
    # settle the one-time check first, so the spy sees only the draws
    # under test whatever the test order
    monkeypatch.setattr(core_parameters, "_bulk_agrees", core_parameters._check_bulk())
    calls = []
    real = core_parameters._draw_bulk

    def spy(*args):
        drawn = real(*args)
        calls.append(drawn is not None)
        return drawn

    monkeypatch.setattr(core_parameters, "_draw_bulk", spy)
    return calls


def _assert_pool_matches_loop(space, got_rng, want_rng, n):
    got = space.sample_configurations(n, got_rng)
    assert_same(got, reference_pool(space, want_rng, n))
    assert state_of(got_rng) == state_of(want_rng)


class TestBulkDraw:
    @given(space=spaces(), k=st.integers(min_value=1, max_value=48),
           seed=st.integers(min_value=0, max_value=2**32 - 1),
           buffered=st.booleans())
    @settings(**_SETTINGS)
    def test_bulk_equals_scalar_loop(self, space, k, seed, buffered):
        got_rng, want_rng = _generators(seed, buffered)
        before = got_rng.bit_generator.state
        got = core_parameters._draw_bulk(space.parameters(), k, got_rng)
        want = core_parameters._draw_loop(space.parameters(), k, want_rng)
        if got is None:
            assert got_rng.bit_generator.state == before
        else:
            assert_same_draws(got, want)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @pytest.mark.parametrize("buffered", [False, True])
    def test_both_buffer_parities_on_entry(self, buffered, bulk_calls):
        space = _fixed_space(accept_percent=60)
        got_rng, want_rng = _generators(17, buffered)
        assert got_rng.bit_generator.state["has_uint32"] == buffered
        _assert_pool_matches_loop(space, got_rng, want_rng, 64)
        assert bulk_calls[0] is True

    def test_lemire_rejection_restores_state_and_takes_the_loop(self, bulk_calls):
        space = _fixed_space(accept_percent=100)  # first categorical: 3 choices
        probe, got_rng, want_rng = (np.random.default_rng(23) for _ in range(3))
        for rng in (probe, got_rng, want_rng):
            state = rng.bit_generator.state
            state.update(has_uint32=1, uinteger=0)
            rng.bit_generator.state = state
        # a buffered 0 is rejected for 3 choices: the scalar call takes
        # a fresh word and buffers its high half
        probe.integers(3)
        assert probe.bit_generator.state["has_uint32"] == 1
        _assert_pool_matches_loop(space, got_rng, want_rng, 400)
        assert bulk_calls == [False]

    @pytest.mark.parametrize("kind", [np.random.MT19937, np.random.Philox])
    def test_other_bit_generators_take_the_loop(self, kind, bulk_calls):
        space = _fixed_space(accept_percent=60)
        for buffered in (False, True):
            got_rng, want_rng = _generators(29, buffered, kind)
            _assert_pool_matches_loop(space, got_rng, want_rng, 64)
        assert bulk_calls == []

    def test_failed_check_takes_the_loop(self, monkeypatch, bulk_calls):
        monkeypatch.setattr(core_parameters, "_bulk_agrees", None)
        monkeypatch.setattr(core_parameters, "_check_bulk", lambda: False)
        space = _fixed_space(accept_percent=60)
        got_rng, want_rng = _generators(31, False)
        _assert_pool_matches_loop(space, got_rng, want_rng, 400)
        assert core_parameters._bulk_agrees is False and bulk_calls == []

    def test_few_rows_take_the_loop(self, bulk_calls):
        space = _fixed_space(accept_percent=100)
        got_rng, want_rng = _generators(37, False)
        _assert_pool_matches_loop(space, got_rng, want_rng, core_parameters._BULK_MIN_ROWS - 1)
        assert bulk_calls == []

    def test_installed_numpy_takes_the_bulk_path(self, monkeypatch):
        # Tripwire: a numpy whose raw words no longer match its scalar
        # calls fails the one-time check, which would silently route
        # every draw through the slow loop.
        monkeypatch.setattr(core_parameters, "_bulk_agrees", core_parameters._check_bulk())
        assert core_parameters._bulk_agrees

        def no_loop(*args):
            raise AssertionError("400 rows from default_rng took the scalar loop")

        monkeypatch.setattr(core_parameters, "_draw_loop", no_loop)
        space = _fixed_space(accept_percent=100)
        pool = space.sample_configurations(400, np.random.default_rng(41))
        assert_same(pool, reference_pool(space, np.random.default_rng(41), 400))
        dbms = DbmsSimulator(standard_cluster()).config_space.parameters()
        core_parameters._draw(dbms, 400, np.random.default_rng(43))


# -- the batched decode ----------------------------------------------------------------
def reference_decode(space, X, rng):
    return [space.from_array_feasible(x, rng) for x in X]


def _share_or_default(space, percent):
    """Accept ``percent`` % of rows, and always the default."""
    share = _accept_share(percent)
    default = dict(space.default_configuration())
    return make_constraint("share-or-default", space.names(),
                           lambda values: values == default or share(values))


@st.composite
def repairable_spaces(draw):
    space = draw(spaces(min_accept=100))
    space.add_constraint(
        _share_or_default(space, draw(st.integers(min_value=0, max_value=100)))
    )
    return space


class TestBatchedDecode:
    @given(space=repairable_spaces(), data=st.data(),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(**_SETTINGS)
    def test_equals_per_row_loop(self, space, data, seed):
        n = data.draw(st.integers(min_value=0, max_value=12))
        X = np.array(data.draw(st.lists(
            st.lists(_UNIT_ENTRIES, min_size=space.dimension, max_size=space.dimension),
            min_size=n, max_size=n,
        )), dtype=float).reshape(n, space.dimension)
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = space.from_arrays_feasible(X, got_rng)
        assert_same(got, reference_decode(space, X, want_rng))
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_repairs_only_infeasible_rows_in_order(self):
        space = _fixed_space(accept_percent=100)
        space.add_constraint(_share_or_default(space, 30))
        X = np.vstack([
            [[-0.0, math.nan, 0.5, 2.0, -math.inf], [0.2, 0.9, math.inf, -1.0, 0.5]],
            np.random.default_rng(1).uniform(-0.2, 1.2, (10, space.dimension)),
        ])
        feasible = [space.is_feasible({p.name: p.from_unit(u)
                                       for p, u in zip(space.parameters(), x)})
                    for x in X]
        assert any(feasible) and not all(feasible)
        got_rng, want_rng = np.random.default_rng(5), np.random.default_rng(5)
        got = space.from_arrays_feasible(X, got_rng)
        assert_same(got, reference_decode(space, X, want_rng))
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_exhausted_row_gets_the_default(self):
        space = _fixed_space(accept_percent=100)
        space.add_constraint(_share_or_default(space, 0))
        X = np.full((2, space.dimension), 0.37)
        got_rng, want_rng = np.random.default_rng(9), np.random.default_rng(9)
        got = space.from_arrays_feasible(X, got_rng)
        assert got == [space.default_configuration()] * 2
        assert_same(got, reference_decode(space, X, want_rng))
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_rejects_rows_of_the_wrong_width(self):
        space = _fixed_space(accept_percent=100)
        for X in (np.zeros(space.dimension), np.zeros((2, space.dimension + 1))):
            with pytest.raises(ValidationError):
                space.from_arrays_feasible(X, np.random.default_rng(0))


def _ottertune():
    repository = build_repository(
        DbmsSimulator(standard_cluster()), [htap_mixed(0.6)],
        n_samples=12, rng=np.random.default_rng(7),
    )
    return make_tuner("ottertune", repository=repository, n_init=4, n_candidates=40)


_TUNERS = {
    "bayesopt": lambda: make_tuner("bayesopt", n_init=5, n_candidates=40),
    "genetic": lambda: make_tuner("genetic", population=6, elite=2),
    "ituned": lambda: make_tuner("ituned", n_init=5, batch_size=3, n_candidates=40),
    "ottertune": _ottertune,
    "ensemble": lambda: make_tuner("ensemble", n_init=5, mlp_epochs=20, n_candidates=40),
    "nn-tuner": lambda: make_tuner(
        "nn-tuner", n_init=5, epochs=20, hidden=(8, 8), n_candidates=40
    ),
    "adaptive-sampling": lambda: make_tuner(
        "adaptive-sampling", n_bootstrap=6, n_candidates=40
    ),
    "sard": lambda: make_tuner("sard", batch_size=2),
}

#: Every tuner whose whole-design decode moved to ``from_arrays_feasible``.
_PORTED = sorted(set(_TUNERS) - {"bayesopt"})

#: Every tuner that scores a candidate pool, with the module that
#: imports ``candidate_pool``.
_POOL_USERS = {
    "adaptive-sampling": "repro.tuners.experiment.adaptive_sampling",
    "bayesopt": "repro.tuners.ml.gp_tuner",
    "ensemble": "repro.tuners.ml.ensemble",
    "ituned": "repro.tuners.experiment.ituned",
    "nn-tuner": "repro.tuners.ml.nn_tuner",
    "ottertune": "repro.tuners.ml.ottertune",
}


def _session_digest(name):
    result = _TUNERS[name]().tune(
        DbmsSimulator(standard_cluster()), htap_mixed(0.3), Budget(max_runs=14),
        rng=np.random.default_rng(7),
    )
    return result.history.digest()


@pytest.mark.parametrize("name", _PORTED)
def test_ported_tuner_digest_equals_per_row_decode(name, monkeypatch):
    batched = _session_digest(name)
    monkeypatch.setattr(ConfigurationSpace, "from_arrays_feasible", reference_decode)
    assert _session_digest(name) == batched


def reference_candidate_pool(space, rng, n_random=256, anchors=None, jitter=0.08):
    """``candidate_pool`` built eagerly: the per-row loop's pool, then the
    anchors' repaired perturbations, and every ``to_array`` row stacked."""
    candidates = reference_pool(space, rng, n_random)
    for anchor in anchors or []:
        base = anchor.to_array()
        for _ in range(16):
            x = np.clip(base + rng.normal(scale=jitter, size=base.shape), 0.0, 1.0)
            candidates.append(space.from_array_feasible(x, rng))
    X = np.array([c.to_array() for c in candidates]).reshape(-1, space.dimension)
    return candidates, X


@pytest.mark.parametrize("name", sorted(_POOL_USERS))
def test_pool_user_digest_equals_eager_pool(name, monkeypatch):
    lazy = _session_digest(name)
    calls = []

    def eager(*args, **kwargs):
        calls.append(name)
        return reference_candidate_pool(*args, **kwargs)

    monkeypatch.setattr(importlib.import_module(_POOL_USERS[name]), "candidate_pool", eager)
    assert _session_digest(name) == lazy
    assert calls


def test_sequential_ei_ask_builds_only_the_proposed_configuration(monkeypatch):
    built = []
    trusted = Configuration._trusted.__func__

    def counting(cls, *args, **kwargs):
        built.append(args[1])
        return trusted(cls, *args, **kwargs)

    monkeypatch.setattr(Configuration, "_trusted", classmethod(counting))
    tuner = make_tuner("ituned", n_init=5, n_candidates=400)
    asks = []
    ask = type(tuner).ask

    def counted_ask(self, state):
        before = len(built)
        proposed = ask(self, state)
        asks.append(([c.tag for c in proposed], len(built) - before))
        return proposed

    monkeypatch.setattr(type(tuner), "ask", counted_ask)
    tuner.tune(DbmsSimulator(standard_cluster()), htap_mixed(0.3), Budget(max_runs=8),
               rng=np.random.default_rng(7))
    ei = [n for tags, n in asks if tags[0].startswith("ei-")]
    assert len(ei) == 2 and set(ei) == {1}


def test_genetic_generation_zero_raises_on_a_dropped_slot():
    tuner = make_tuner("genetic", population=4, elite=1)
    state = types.SimpleNamespace(space=_fixed_space(accept_percent=0),
                                  rng=np.random.default_rng(0))
    tuner.setup(state)
    with pytest.raises(ValidationError):
        tuner.ask(state)
