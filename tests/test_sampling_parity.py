"""Batched sampling and decoding against the per-row reference loop.

``ConfigurationSpace.sample_configurations`` draws whole batches (for
``PCG64``, from one block of raw words), decodes the whole matrix at
once and returns a ``ConfigurationBatch`` that builds a row's
configuration only when it is taken; ``from_array`` decodes value by
value and builds a trusted configuration with its unit row;
``from_arrays_feasible`` decodes a matrix of given rows.  These
properties pin them to the plain loops they replace —
``{p.name: p.sample(rng) ...}`` rows, ``is_feasible``, a validating
``Configuration``, per-parameter ``to_unit``, the column-by-column
decode and one ``from_array_feasible`` call per row — on generated
spaces that mix every parameter kind: equal values, types, reprs and
identity strings, equal unit bytes, and the generator left in the same
state.
"""

import importlib
import math
import types
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import make_tuner
from repro.bench.harness import standard_cluster
from repro.core import Budget
from repro.core import parameters as core_parameters
from repro.core.driver import Candidate
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
from repro.exec.cache import fingerprint
from repro.systems.dbms import DbmsSimulator, htap_mixed
from repro.tuners.common import candidate_pool
from repro.tuners.experiment.rrs import RecursiveRandomSearchTuner
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
        values, units = ConfigurationSpace([param])._decoder().decode(
            draws[:, None], np.empty((len(draws), 0), np.int64)
        )
        column = values[:, 0]
        want = [param.from_unit(u) for u in draws.tolist()]
        for got in (param._python_column(column),
                    [param._python_value(x) for x in column.tolist()],
                    [param.decode(u)[0] for u in draws.tolist()]):
            assert [repr(v) for v in got] == [repr(v) for v in want]
        unit = np.array([param.to_unit(v) for v in want])
        assert units[:, 0].tobytes() == unit.tobytes()
        assert np.array([param.decode(u)[1] for u in draws.tolist()]).tobytes() == unit.tobytes()


# -- the whole-matrix decode against the column-by-column one it replaced -----------
def reference_decode_column(param, u):
    """One column of codes decoded as each parameter once decoded it."""
    if isinstance(param, CategoricalParameter):
        first = np.array([param.choices.index(c) for c in param.choices])
        return u, first[u] / (len(param.choices) - 1)
    if param.log_scale:
        lo = math.log(param.low)
        span = math.log(param.high) - math.log(param.low)
        v = np.fromiter(map(math.exp, (lo + u * span).tolist()), float, len(u))
    else:
        v = param.low + u * (param.high - param.low)
    v = np.where(v > param.low, v, param.low)
    v = np.where(v < param.high, v, param.high)
    if param.integer:
        v = np.clip(np.rint(v), math.ceil(param.low), math.floor(param.high))
    if param.log_scale:
        unit = (np.fromiter(map(math.log, v.tolist()), float, len(v)) - lo) / span
    else:
        unit = (v - param.low) / (param.high - param.low)
    return v, unit


def reference_decode_columns(params, numeric, codes):
    numeric_columns, chosen = iter(numeric.T), iter(codes.T)
    values = np.empty((len(numeric), len(params)))
    units = np.empty_like(values)
    for j, p in enumerate(params):
        source = chosen if isinstance(p, CategoricalParameter) else numeric_columns
        values[:, j], units[:, j] = reference_decode_column(p, next(source))
    return values, units


#: Numeric knobs with bounds at 0.0, -0.0 and below zero, linear or
#: log-scale, real or integer.
_BOUNDS = st.sampled_from([
    (-0.0, 4.0), (0.0, 2.5), (-3.0, -0.0), (-3.0, 0.0), (-7.5, 7.5), (-1e3, -2.0),
]) | st.tuples(st.floats(-1e3, 1e3), st.floats(2.0, 1e4)).map(lambda t: (t[0], t[0] + t[1]))

#: Choice lists with equal-but-distinct choices (``0 == False``).
_UNIT_CHOICES = [[0, False, 2], [0, False, 2, "x"], ["a", "b"], [1, 2, 4, 8, 16]]


@st.composite
def unit_parameters(draw, name):
    kind = draw(st.sampled_from(["linear", "log", "boolean", "categorical"]))
    if kind == "boolean":
        return BooleanParameter(name, draw(st.booleans()))
    if kind == "categorical":
        choices = draw(st.sampled_from(_UNIT_CHOICES))
        return CategoricalParameter(name, choices[0], choices)
    if kind == "log":
        low = draw(st.floats(1e-3, 1e3))
        low, high = low, low * draw(st.floats(2.0, 1e4))
    else:
        low, high = draw(_BOUNDS)
    return NumericParameter(name, low, low, high, integer=draw(st.booleans()),
                            log_scale=kind == "log")


@st.composite
def unit_spaces(draw):
    """Up to eight knobs of every kind and a real-valued one, under a
    constraint that accepts half of the rows or more, and the default."""
    d = draw(st.integers(min_value=0, max_value=8))
    params = [draw(unit_parameters(f"p{i}")) for i in range(d)]
    params.insert(draw(st.integers(min_value=0, max_value=d)),
                  NumericParameter("real", 0.5, 0.0, 1.0))
    space = ConfigurationSpace(params, name="unit-rows")
    space.add_constraint(
        _share_or_default(space, draw(st.integers(min_value=50, max_value=100)))
    )
    return space


#: Codes a decode meets: any in [0, 1], the ends, -0.0, and NaN.
_CODES = st.floats(min_value=0.0, max_value=1.0) | st.sampled_from([0.0, 1.0, -0.0, math.nan])


def _unit_matrix(data, space, n, entries=_UNIT_ENTRIES):
    return np.array(data.draw(st.lists(
        st.lists(entries, min_size=space.dimension, max_size=space.dimension),
        min_size=n, max_size=n,
    )), dtype=float).reshape(n, space.dimension)


class TestMatrixDecode:
    @given(space=unit_spaces(), data=st.data(),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(**_SETTINGS)
    def test_equals_column_by_column_decode(self, space, data, seed):
        params = space.parameters()
        numeric = [p for p in params if not isinstance(p, CategoricalParameter)]
        categorical = [p for p in params if isinstance(p, CategoricalParameter)]
        rng = np.random.default_rng(seed)
        n = data.draw(st.sampled_from([0, 1, 6, 400]))
        codes = np.array(
            [rng.integers(len(p.choices), size=n) for p in categorical], np.int64
        ).T.reshape(n, len(categorical))
        matrix = rng.random((n, len(numeric)))
        # sprinkle the edge codes, and drawn ones in the first rows
        edges = rng.random(matrix.shape) < 0.2
        matrix[edges] = rng.choice([0.0, 1.0, -0.0, math.nan], size=int(edges.sum()))
        head = min(n, 6)
        matrix[:head] = np.array(data.draw(st.lists(
            st.lists(_CODES, min_size=len(numeric), max_size=len(numeric)),
            min_size=head, max_size=head,
        )), dtype=float).reshape(head, len(numeric))
        got = space._decoder().decode(matrix, codes)
        want = reference_decode_columns(params, matrix, codes)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()

    def test_decoding_leaves_the_simulator_fingerprint(self):
        system = DbmsSimulator(standard_cluster())
        before = fingerprint(system)
        space = system.config_space
        space.sample_configurations(8, np.random.default_rng(1))
        space.from_arrays_feasible(np.full((3, space.dimension), 0.4),
                                   np.random.default_rng(1))
        assert space._repro_decoder is not None
        assert fingerprint(system) == before == fingerprint(DbmsSimulator(standard_cluster()))

    def test_decoder_follows_add(self):
        space = _fixed_space(accept_percent=100)
        space.sample_configurations(8, np.random.default_rng(1))
        space.add(NumericParameter("late", 2.0, 1.0, 64.0, integer=True, log_scale=True))
        space.add(CategoricalParameter("mode", 0, [0, False, 2]))
        got_rng, want_rng = np.random.default_rng(2), np.random.default_rng(2)
        assert_same(space.sample_configurations(16, got_rng),
                    reference_pool(space, want_rng, 16))
        X = np.random.default_rng(3).random((5, space.dimension))
        assert_same(space.from_arrays_feasible(X, got_rng),
                    reference_decode(space, X, want_rng))


def _assert_values_from_unit(config, x):
    want = [(p.name, p.from_unit(u)) for p, u in zip(config.space.parameters(), x.tolist())]
    assert [(k, type(v), repr(v)) for k, v in config.items()] == [
        (k, type(v), repr(v)) for k, v in want
    ]


class TestUnitRows:
    """Every configuration the space decodes holds its unit row from
    construction on, as its own array, byte-equal to encoding it."""

    @given(space=unit_spaces(), data=st.data(),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(**dict(_SETTINGS, max_examples=30))
    def test_every_decode_carries_its_unit_row(self, space, data, seed):
        X = _unit_matrix(data, space, 6)
        params = space.parameters()

        def feasible(x):
            return space.is_feasible(
                {p.name: p.from_unit(u) for p, u in zip(params, x.tolist())}
            )

        built, from_unit_rows, defaults = [], [], []
        default_configuration = ConfigurationSpace.default_configuration

        def default(self):
            # a repair that finds no feasible neighbour returns the
            # default, built from outside values: it encodes on first use
            defaults.append(default_configuration(self))
            return defaults[-1]

        # no decode encodes a row again (a batch stacks its built rows'
        # to_array, which would)
        with mock.patch.object(ConfigurationSpace, "to_array",
                               side_effect=AssertionError("a decode re-encoded a row")), \
                mock.patch.object(ConfigurationSpace, "default_configuration", default):
            for x in X:
                if feasible(x):
                    built.append(space.from_array(x))
                    from_unit_rows.append((built[-1], x))
                else:
                    with pytest.raises(ConstraintViolation):
                        space.from_array(x)
            rng = np.random.default_rng(seed)
            built += [space.from_array_feasible(x, rng) for x in X]
            decoded = space.from_arrays_feasible(X, rng)
            built += decoded
            from_unit_rows += [(c, x) for c, x in zip(decoded, X) if feasible(x)]
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            sampled = [space.sample_configuration(got_rng) for _ in range(3)]
            want = [reference_sample(space, want_rng) for _ in range(3)]
            for n in (1, 6, 400):
                sampled += list(space.sample_configurations(n, got_rng))
                want += reference_pool(space, want_rng, n)
        built += sampled
        # the rows are there before anything asks for them
        for config in built:
            if any(config is d for d in defaults):
                continue
            assert config._unit is not None and config._unit.base is None
            assert config._unit.tobytes() == space.to_array(config).tobytes()
        for config, x in from_unit_rows:
            _assert_values_from_unit(config, x)
        # the drawn values are from_unit of each draw, as p.sample's are
        assert_same(sampled, want)


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


def _rrs_digest():
    # one failure a shrink: the local phase ends soon, so bursts recur
    result = RecursiveRandomSearchTuner(local_fail_limit=1).tune(
        DbmsSimulator(standard_cluster()), htap_mixed(0.3), Budget(max_runs=40),
        rng=np.random.default_rng(7),
    )
    return result.history.digest()


def test_rrs_digest_equals_per_slot_global_burst(monkeypatch):
    batched = _rrs_digest()
    bursts = []

    def per_slot(self, state):
        bursts.append(self.n_global)
        self._phase = "global"
        return [
            Candidate(state.space.sample_configuration(state.rng), tag=f"global-{i}")
            for i in range(self.n_global)
        ]

    monkeypatch.setattr(RecursiveRandomSearchTuner, "_global_burst", per_slot)
    assert _rrs_digest() == batched
    assert len(bursts) >= 2


def test_rrs_global_burst_raises_on_a_dropped_slot():
    tuner = RecursiveRandomSearchTuner()
    state = types.SimpleNamespace(space=_fixed_space(accept_percent=0),
                                  rng=np.random.default_rng(0))
    tuner.setup(state)
    with pytest.raises(ValidationError):
        tuner.ask(state)
