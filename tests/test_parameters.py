"""Tests for repro.core.parameters."""

import math

import numpy as np
import pytest

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


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def space():
    return ConfigurationSpace(
        [
            NumericParameter("mem", 64, 1, 1024, integer=True, log_scale=True),
            NumericParameter("frac", 0.5, 0.0, 1.0),
            CategoricalParameter("codec", "lz4", ["lz4", "zlib", "zstd"]),
            BooleanParameter("flag", False),
        ],
        name="test",
    )


class TestNumericParameter:
    def test_default_is_validated(self):
        p = NumericParameter("x", 10, 1, 100)
        assert p.default == 10

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ParameterError):
            NumericParameter("x", 1, 5, 5)
        with pytest.raises(ParameterError):
            NumericParameter("x", 1, 10, 5)

    def test_log_scale_requires_positive_low(self):
        with pytest.raises(ParameterError):
            NumericParameter("x", 1, 0, 10, log_scale=True)

    def test_validate_rejects_out_of_bounds(self):
        p = NumericParameter("x", 10, 1, 100)
        with pytest.raises(ValidationError):
            p.validate(0)
        with pytest.raises(ValidationError):
            p.validate(101)

    def test_validate_rejects_nan_and_junk(self):
        p = NumericParameter("x", 10, 1, 100)
        with pytest.raises(ValidationError):
            p.validate(float("nan"))
        with pytest.raises(ValidationError):
            p.validate("not a number")

    def test_integer_rounding(self):
        p = NumericParameter("x", 10, 1, 100, integer=True)
        assert p.validate(9.6) == 10
        assert isinstance(p.validate(9.6), int)

    def test_unit_roundtrip_linear(self):
        p = NumericParameter("x", 10, 0, 100)
        for v in [0, 25, 50, 100]:
            assert p.from_unit(p.to_unit(v)) == pytest.approx(v)

    def test_unit_roundtrip_log(self):
        p = NumericParameter("x", 8, 1, 1024, log_scale=True)
        assert p.to_unit(1) == pytest.approx(0.0)
        assert p.to_unit(1024) == pytest.approx(1.0)
        assert p.from_unit(0.5) == pytest.approx(32.0, rel=0.01)

    def test_from_unit_clamps(self):
        p = NumericParameter("x", 10, 1, 100)
        assert p.from_unit(-0.5) == 1
        assert p.from_unit(1.5) == 100

    def test_clip(self):
        p = NumericParameter("x", 10, 1, 100, integer=True)
        assert p.clip(1e9) == 100
        assert p.clip(-5) == 1

    def test_grid_spans_domain(self):
        p = NumericParameter("x", 10, 1, 100)
        g = p.grid(5)
        assert g[0] == 1 and g[-1] == 100
        assert len(g) == 5

    def test_grid_deduplicates_integers(self):
        p = NumericParameter("x", 2, 1, 3, integer=True)
        assert p.grid(10) == [1, 2, 3]

    def test_sample_in_bounds(self, rng):
        p = NumericParameter("x", 8, 1, 1024, log_scale=True, integer=True)
        for _ in range(100):
            v = p.sample(rng)
            assert 1 <= v <= 1024


class TestCategoricalParameter:
    def test_needs_two_choices(self):
        with pytest.raises(ParameterError):
            CategoricalParameter("c", "a", ["a"])

    def test_duplicate_choices_rejected(self):
        with pytest.raises(ParameterError):
            CategoricalParameter("c", "a", ["a", "a"])

    def test_validate(self):
        p = CategoricalParameter("c", "a", ["a", "b"])
        assert p.validate("b") == "b"
        with pytest.raises(ValidationError):
            p.validate("z")

    def test_unit_roundtrip(self):
        p = CategoricalParameter("c", "a", ["a", "b", "c"])
        for choice in p.choices:
            assert p.from_unit(p.to_unit(choice)) == choice

    def test_sample_covers_choices(self, rng):
        p = CategoricalParameter("c", "a", ["a", "b", "c"])
        seen = {p.sample(rng) for _ in range(100)}
        assert seen == {"a", "b", "c"}


class TestBooleanParameter:
    def test_accepts_bool_and_int(self):
        p = BooleanParameter("b", True)
        assert p.validate(False) is False
        assert p.validate(1) is True

    def test_rejects_junk(self):
        p = BooleanParameter("b", True)
        with pytest.raises(ValidationError):
            p.validate("yes")

    def test_unit_encoding(self):
        p = BooleanParameter("b", False)
        assert p.to_unit(False) == 0.0
        assert p.to_unit(True) == 1.0


class TestConfigurationSpace:
    def test_duplicate_parameter_rejected(self, space):
        with pytest.raises(ParameterError):
            space.add(NumericParameter("mem", 1, 1, 10))

    def test_lookup(self, space):
        assert space["mem"].name == "mem"
        with pytest.raises(ParameterError):
            space["nope"]

    def test_contains_and_len(self, space):
        assert "mem" in space
        assert "nope" not in space
        assert len(space) == 4

    def test_default_configuration(self, space):
        config = space.default_configuration()
        assert config["mem"] == 64
        assert config["codec"] == "lz4"

    def test_partial_overrides(self, space):
        config = space.partial({"mem": 128})
        assert config["mem"] == 128
        assert config["frac"] == 0.5

    def test_configuration_missing_key(self, space):
        with pytest.raises(ValidationError):
            space.configuration({"mem": 64})

    def test_configuration_unknown_key(self, space):
        values = space.default_configuration().to_dict()
        values["bogus"] = 1
        with pytest.raises(ValidationError):
            space.configuration(values)

    def test_vector_roundtrip(self, space, rng):
        config = space.sample_configuration(rng)
        decoded = space.from_array(space.to_array(config))
        assert decoded == config

    def test_from_array_wrong_shape(self, space):
        with pytest.raises(ValidationError):
            space.from_array([0.5, 0.5])

    def test_sampling_is_feasible_and_seeded(self, space):
        a = space.sample_configurations(5, np.random.default_rng(1))
        b = space.sample_configurations(5, np.random.default_rng(1))
        assert a == b

    def test_constraint_enforced(self, space):
        space.add_constraint(
            Constraint("mem-cap", lambda v: v["mem"] <= 512, "mem <= 512")
        )
        with pytest.raises(ConstraintViolation):
            space.partial({"mem": 1024})
        assert space.is_feasible(space.partial({"mem": 512}).to_dict())

    def test_subspace_keeps_annotated_constraints(self):
        space = ConfigurationSpace([
            NumericParameter("a", 1, 0, 10),
            NumericParameter("b", 1, 0, 10),
            NumericParameter("c", 1, 0, 10),
        ])
        space.add_constraint(
            make_constraint("ab", ["a", "b"], lambda v: v["a"] + v["b"] <= 15)
        )
        sub = space.subspace(["a", "b"])
        assert len(sub.constraints()) == 1
        sub2 = space.subspace(["a", "c"])
        assert len(sub2.constraints()) == 0

    def test_subspace_unknown_name(self, space):
        with pytest.raises(ParameterError):
            space.subspace(["nope"])

    def test_from_array_feasible_repairs(self):
        space = ConfigurationSpace([
            NumericParameter("a", 1, 0, 10),
            NumericParameter("b", 1, 0, 10),
        ])
        space.add_constraint(
            make_constraint("sum", ["a", "b"], lambda v: v["a"] + v["b"] <= 12)
        )
        config = space.from_array_feasible([1.0, 1.0], np.random.default_rng(0))
        assert config["a"] + config["b"] <= 12


class TestConfiguration:
    def test_mapping_protocol(self, space):
        config = space.default_configuration()
        assert set(config) == {"mem", "frac", "codec", "flag"}
        assert len(config) == 4

    def test_hash_and_equality(self, space):
        a = space.default_configuration()
        b = space.default_configuration()
        assert a == b and hash(a) == hash(b)
        c = a.replace(mem=128)
        assert c != a

    def test_replace_validates(self, space):
        config = space.default_configuration()
        with pytest.raises(ValidationError):
            config.replace(mem=10 ** 9)

    def test_usable_as_dict_key(self, space):
        cache = {space.default_configuration(): 1.0}
        assert cache[space.default_configuration()] == 1.0

    def test_to_array_matches_space(self, space):
        config = space.default_configuration()
        assert np.allclose(config.to_array(), space.to_array(config))

    def test_equal_configurations_hash_equal(self):
        # 0 == False and 0.0 == -0.0, but their reprs differ
        space = ConfigurationSpace([
            CategoricalParameter("c", 0, [0, False, "off"]),
            NumericParameter("x", 0.0, -1.0, 1.0),
        ])
        a = space.configuration({"c": 0, "x": 0.0})
        b = space.configuration({"c": False, "x": -0.0})
        c = space.configuration({"c": np.int64(0), "x": np.float64(0.0)})
        assert a == b == c
        assert hash(a) == hash(b) == hash(c)
        assert len({a, b, c}) == 1
        assert {a: "hit"}[b] == "hit"

    def test_identity_is_the_sorted_repr_string(self):
        space = ConfigurationSpace([
            NumericParameter("x", 0.0, -1.0, 1.0),
            CategoricalParameter("c", 0, [0, False, "off"]),
        ])
        a = space.configuration({"x": -0.0, "c": False})
        assert a.identity() == "c=False\x1fx=-0.0"
        assert a.identity() is a.identity()
        assert a.identity() != space.configuration({"x": 0.0, "c": 0}).identity()
        assert ConfigurationSpace().configuration({}).identity() == ""
