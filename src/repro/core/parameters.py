"""Configuration parameters and configuration spaces.

This module defines the vocabulary every tuner and every system simulator
share: typed parameters (numeric, categorical, boolean), immutable
configurations, cross-parameter constraints, and the
:class:`ConfigurationSpace` that ties them together.

The numeric encoding contract is central: every parameter can map its
values into the unit interval ``[0, 1]`` (``to_unit``) and back
(``from_unit``).  Search algorithms operate on unit-scaled vectors and
remain agnostic of units, log scales, and integrality; the space handles
rounding and snapping.

Random sampling has one path, :meth:`ConfigurationSpace.sample_configurations`.
It draws exactly what a per-row loop of ``p.sample(rng)`` calls would
draw (for numpy's ``PCG64``, from one ``random_raw`` call per round) and
decodes the whole matrix with the same IEEE operations as
``from_unit``/``to_unit``, so a batch of ``n`` is bit-identical to ``n``
single samples.  It returns a :class:`ConfigurationBatch`, which keeps
the decoded values and the unit matrix and builds a row's
configuration only when a caller takes it.
:meth:`ConfigurationSpace.from_arrays_feasible` decodes a matrix of
given unit rows the same way.  A single row decodes value by value
(:meth:`Parameter.decode`), each value with its unit code.
Configurations the space decoded itself skip the second validation and
carry their unit row, so ``to_array`` does not encode them again.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple,
)

import numpy as np

from repro.exceptions import ConstraintViolation, ParameterError, ValidationError

__all__ = [
    "Parameter",
    "NumericParameter",
    "CategoricalParameter",
    "BooleanParameter",
    "Constraint",
    "Configuration",
    "ConfigurationBatch",
    "ConfigurationSpace",
    "identities",
]


class Parameter(ABC):
    """A single tunable knob.

    Attributes:
        name: unique identifier within a configuration space.
        default: the vendor-default value (what an untuned system uses).
        description: human-readable documentation of the knob.
        unit: optional physical unit label (e.g., ``"MiB"``).
    """

    def __init__(self, name: str, default: Any, description: str = "", unit: str = ""):
        if not name or not isinstance(name, str):
            raise ParameterError("parameter name must be a non-empty string")
        self.name = name
        self.description = description
        self.unit = unit
        self.default = default

    @abstractmethod
    def validate(self, value: Any) -> Any:
        """Return a normalized copy of ``value`` or raise ValidationError."""

    @abstractmethod
    def to_unit(self, value: Any) -> float:
        """Encode ``value`` into the unit interval [0, 1]."""

    @abstractmethod
    def decode(self, u: float) -> Tuple[Any, float]:
        """:meth:`from_unit` of ``u`` and that value's :meth:`to_unit`
        code, bit-identical to the two calls, in one pass."""

    def from_unit(self, u: float) -> Any:
        """Decode a unit-interval coordinate into a domain value."""
        return self.decode(u)[0]

    @abstractmethod
    def sample(self, rng: np.random.Generator) -> Any:
        """Draw a uniform random value from the domain."""

    @abstractmethod
    def grid(self, k: int) -> List[Any]:
        """Return up to ``k`` representative values spanning the domain."""

    @property
    def is_numeric(self) -> bool:
        return isinstance(self, NumericParameter)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r}, default={self.default!r})"


class NumericParameter(Parameter):
    """An integer- or real-valued knob on a bounded interval.

    Args:
        low, high: inclusive bounds of the domain.
        integer: round values to integers when True.
        log_scale: interpolate geometrically in unit space (requires
            ``low > 0``); appropriate for sizes spanning decades, e.g.,
            buffer sizes from 1 MiB to 64 GiB.
    """

    def __init__(
        self,
        name: str,
        default: float,
        low: float,
        high: float,
        integer: bool = False,
        log_scale: bool = False,
        description: str = "",
        unit: str = "",
    ):
        if not (low < high):
            raise ParameterError(f"{name}: low ({low}) must be < high ({high})")
        if log_scale and low <= 0:
            raise ParameterError(f"{name}: log scale requires low > 0, got {low}")
        if integer and math.floor(high) < math.ceil(low):
            raise ParameterError(
                f"{name}: no integer lies in [{low}, {high}]"
            )
        self.low = float(low)
        self.high = float(high)
        self.integer = integer
        self.log_scale = log_scale
        super().__init__(name, default, description, unit)
        self.default = self.validate(default)

    def validate(self, value: Any) -> Any:
        try:
            v = float(value)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{self.name}: {value!r} is not numeric") from exc
        if math.isnan(v):
            raise ValidationError(f"{self.name}: NaN is not a valid value")
        if not (self.low <= v <= self.high):
            raise ValidationError(
                f"{self.name}: {v} outside [{self.low}, {self.high}]"
            )
        if self.integer:
            # Rounding may leave fractional bounds; snap back inside.
            v = int(
                min(math.floor(self.high), max(math.ceil(self.low), round(v)))
            )
        return v

    def clip(self, value: float) -> Any:
        """Clamp into bounds, then validate (rounding if integer)."""
        return self.validate(min(self.high, max(self.low, float(value))))

    def to_unit(self, value: Any) -> float:
        v = float(self.validate(value))
        if self.log_scale:
            return (math.log(v) - math.log(self.low)) / (
                math.log(self.high) - math.log(self.low)
            )
        return (v - self.low) / (self.high - self.low)

    def decode(self, u: float) -> Tuple[Any, float]:
        u = min(1.0, max(0.0, float(u)))
        if self.log_scale:
            lo = math.log(self.low)
            span = math.log(self.high) - lo
            value = self.validate(min(self.high, max(self.low, math.exp(lo + u * span))))
            return value, (math.log(float(value)) - lo) / span
        span = self.high - self.low
        value = self.validate(min(self.high, max(self.low, self.low + u * span)))
        return value, (float(value) - self.low) / span

    def sample(self, rng: np.random.Generator) -> Any:
        return self.from_unit(float(rng.random()))

    def _python_column(self, column: np.ndarray) -> List[Any]:
        """The values of a decoded column as :meth:`from_unit` returns them."""
        return list(map(int, column.tolist())) if self.integer else column.tolist()

    def _python_value(self, x: float) -> Any:
        """One decoded value as :meth:`from_unit` returns it."""
        return int(x) if self.integer else x

    def grid(self, k: int) -> List[Any]:
        if k < 1:
            return []
        if k == 1:
            return [self.from_unit(0.5)]
        values = [self.from_unit(i / (k - 1)) for i in range(k)]
        # Integer rounding can collapse adjacent grid points; deduplicate
        # while preserving order.
        seen: List[Any] = []
        for v in values:
            if v not in seen:
                seen.append(v)
        return seen


class CategoricalParameter(Parameter):
    """A knob with an explicit finite set of unordered choices."""

    def __init__(
        self,
        name: str,
        default: Any,
        choices: Sequence[Any],
        description: str = "",
    ):
        choices = list(choices)
        if len(choices) < 2:
            raise ParameterError(f"{name}: need at least 2 choices")
        if len(set(map(repr, choices))) != len(choices):
            raise ParameterError(f"{name}: duplicate choices")
        self.choices = choices
        super().__init__(name, default, description)
        self.default = self.validate(default)

    def validate(self, value: Any) -> Any:
        if value in self.choices:
            return value
        raise ValidationError(f"{self.name}: {value!r} not in {self.choices!r}")

    def to_unit(self, value: Any) -> float:
        idx = self.choices.index(self.validate(value))
        if len(self.choices) == 1:
            return 0.0
        return idx / (len(self.choices) - 1)

    def decode(self, u: float) -> Tuple[Any, float]:
        u = min(1.0, max(0.0, float(u)))
        return self.choose(int(round(u * (len(self.choices) - 1))))

    def choose(self, index: int) -> Tuple[Any, float]:
        """The choice at ``index`` and its unit code as :meth:`to_unit`
        gives it: that of the first equal choice."""
        value = self.choices[index]
        return value, self.choices.index(value) / (len(self.choices) - 1)

    def sample(self, rng: np.random.Generator) -> Any:
        return self.choices[int(rng.integers(len(self.choices)))]

    def _python_column(self, column: np.ndarray) -> List[Any]:
        """The choices at a column of decoded indices."""
        return list(map(self.choices.__getitem__, column.astype(np.intp).tolist()))

    def _python_value(self, x: float) -> Any:
        """The choice at one decoded index."""
        return self.choices[int(x)]

    def grid(self, k: int) -> List[Any]:
        return list(self.choices[: max(k, 0)]) if k < len(self.choices) else list(self.choices)


class BooleanParameter(CategoricalParameter):
    """An on/off knob, modeled as the categorical domain {False, True}."""

    def __init__(self, name: str, default: bool, description: str = ""):
        super().__init__(name, bool(default), [False, True], description)

    def validate(self, value: Any) -> Any:
        if isinstance(value, (bool, np.bool_)):
            return bool(value)
        if value in (0, 1):
            return bool(value)
        raise ValidationError(f"{self.name}: {value!r} is not boolean")


class Constraint:
    """A named cross-parameter predicate a configuration must satisfy.

    A plain constraint sees every value of the row it checks.  One
    built by :func:`make_constraint` carries the names it ``touches``;
    its predicate must read only those, and batched feasibility checks
    pass it a mapping of only those names, in parameter order.

    Args:
        name: identifier used in error messages.
        predicate: callable taking a value mapping, returning truthiness.
        description: human-readable statement of the rule.
    """

    def __init__(
        self,
        name: str,
        predicate: Callable[[Mapping[str, Any]], bool],
        description: str = "",
    ):
        self.name = name
        self.predicate = predicate
        self.description = description

    def holds(self, values: Mapping[str, Any]) -> bool:
        return bool(self.predicate(values))

    def __repr__(self) -> str:  # pragma: no cover
        return f"Constraint({self.name!r})"


class Configuration(Mapping[str, Any]):
    """An immutable assignment of values to every parameter of a space.

    Behaves as a read-only mapping; hashable, so configurations can key
    caches of measurements.  The hash and the identity string
    (``identity``) are computed on first use and kept.  A configuration
    the space decoded carries its unit row (``to_array``) from
    construction on; one built from outside values encodes it on first
    use and keeps it.
    """

    __slots__ = ("_values", "_space", "_hash", "_unit", "_identity")

    def __init__(self, space: "ConfigurationSpace", values: Mapping[str, Any]):
        normalized: Dict[str, Any] = {}
        for param in space.parameters():
            if param.name not in values:
                raise ValidationError(f"missing value for parameter {param.name!r}")
            normalized[param.name] = param.validate(values[param.name])
        extra = set(values) - set(normalized)
        if extra:
            raise ValidationError(f"unknown parameters: {sorted(extra)}")
        space.check_constraints(normalized)
        self._values = normalized
        self._space = space
        self._hash: Optional[int] = None
        self._unit: Optional[np.ndarray] = None
        self._identity: Optional[str] = None

    @classmethod
    def _trusted(
        cls, space: "ConfigurationSpace", values: Dict[str, Any], unit: np.ndarray
    ) -> "Configuration":
        """A configuration of values ``space`` decoded itself.

        ``values`` must be validated, feasible and in parameter order.
        ``unit`` is their ``to_array`` row, which every decode of the
        space yields with the values: pass it as its own array, not a
        view into a larger one, so the configuration does not keep that
        array alive.  Values from outside go through
        ``Configuration(space, values)``.
        """
        self = cls.__new__(cls)
        self._values = values
        self._space = space
        self._hash = None
        self._unit = unit
        self._identity = None
        return self

    @property
    def space(self) -> "ConfigurationSpace":
        return self._space

    def __getitem__(self, key: str) -> Any:
        return self._values[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __hash__(self) -> int:
        # The values themselves, as ``==`` compares them: 0, False and
        # -0.0 hash alike, and numpy scalars as their Python twins.
        if self._hash is None:
            self._hash = hash(tuple(sorted(self._values.items())))
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        return self._values == other._values

    def replace(self, **updates: Any) -> "Configuration":
        """Return a new configuration with some values replaced."""
        merged = dict(self._values)
        merged.update(updates)
        return Configuration(self._space, merged)

    def to_dict(self) -> Dict[str, Any]:
        return dict(self._values)

    def identity(self) -> str:
        """The sorted ``name=repr(value)`` pairs joined by ``"\\x1f"``:
        the bytes that evaluation-cache keys and fidelity distortions
        hash.  Unlike ``==``, it tells ``0`` from ``False``."""
        if self._identity is None:
            identities([self])
        return self._identity

    def to_array(self) -> np.ndarray:
        """Unit-scaled vector in the space's parameter order (a fresh
        copy of the kept row, so callers may write into it)."""
        if self._unit is None:
            self._unit = self._space.to_array(self)
        return self._unit.copy()

    def __repr__(self) -> str:  # pragma: no cover
        body = ", ".join(f"{k}={v!r}" for k, v in sorted(self._values.items()))
        return f"Configuration({body})"


def identities(configs: Sequence[Configuration]) -> List[str]:
    """Each configuration's :meth:`~Configuration.identity`, in order.

    The one formatter of identities.  It builds the missing ones by
    column: configurations with the same parameter names share their
    sorted name order, each value gets one ``repr`` and each row one
    join.  Built identities are kept on their configurations.
    """
    missing: Dict[Tuple[str, ...], List[Configuration]] = {}
    for config in configs:
        if config._identity is None:
            missing.setdefault(tuple(config._values), []).append(config)
    for names, group in missing.items():
        columns = [
            [f"{name}={config._values[name]!r}" for config in group]
            for name in sorted(names)
        ]
        rows = map("\x1f".join, zip(*columns)) if columns else [""] * len(group)
        for config, identity in zip(group, rows):
            config._identity = identity
    return [config._identity for config in configs]


class ConfigurationBatch(Sequence[Configuration]):
    """A read-only sequence of configurations a space decoded by column.

    It holds each column's decoded values (floats for numeric knobs,
    choice indices for categorical ones) and the unit matrix ``X``, and
    builds a row's :class:`Configuration` only when a caller takes that
    row, then keeps it.  A model-based ``ask`` scores every row of ``X``
    but proposes one, so the other rows are never built.  Iterating
    builds every row left with one conversion per column.  Each built
    configuration holds its own copy of its unit row.  Equality with
    any sequence of configurations is element by element.
    """

    __slots__ = ("_space", "_values", "_rows", "X")

    def __init__(
        self,
        space: "ConfigurationSpace",
        values: np.ndarray,
        X: np.ndarray,
        rows: Optional[List[Optional[Configuration]]] = None,
    ):
        # rows past len(values) are built configurations appended by
        # ``+``; their unit rows follow the decoded ones in X
        self._space = space
        self._values = values
        self._rows = [None] * len(values) if rows is None else rows
        self.X = X
        X.flags.writeable = False

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index):
        rows = range(len(self._rows))[index]
        if isinstance(rows, range):
            return [self._row(i) for i in rows]
        return self._row(rows)

    def _row(self, i: int) -> Configuration:
        config = self._rows[i]
        if config is None:
            params = self._space.parameters()
            values = {
                p.name: p._python_value(x) for p, x in zip(params, self._values[i].tolist())
            }
            config = Configuration._trusted(self._space, values, self.X[i].copy())
            self._rows[i] = config
        return config

    def __iter__(self) -> Iterator[Configuration]:
        if any(config is None for config in self._rows):
            params = self._space.parameters()
            names = [p.name for p in params]
            columns = [p._python_column(self._values[:, j]) for j, p in enumerate(params)]
            for i, row in enumerate(_zip_columns(columns, len(self._values))):
                if self._rows[i] is None:
                    self._rows[i] = Configuration._trusted(
                        self._space, dict(zip(names, row)), self.X[i].copy()
                    )
        return iter(self._rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __add__(self, other: Sequence[Configuration]) -> "ConfigurationBatch":
        """This batch followed by ``other``'s configurations, their unit
        rows stacked after ``X``."""
        added = list(other)
        if not added:
            return self
        X = np.concatenate([self.X, [c.to_array() for c in added]])
        return ConfigurationBatch(self._space, self._values, X, self._rows + added)


class ConfigurationSpace:
    """An ordered collection of parameters plus validity constraints.

    The order of parameters is the order of vector encodings used by all
    numeric search code.
    """

    def __init__(
        self,
        parameters: Iterable[Parameter] = (),
        constraints: Iterable[Constraint] = (),
        name: str = "space",
    ):
        self.name = name
        self._params: Dict[str, Parameter] = {}
        self._constraints: List[Constraint] = []
        # built on the first multi-row decode, dropped by add(); the
        # prefix keeps it out of evaluation-cache fingerprints
        self._repro_decoder: Optional[_Decoder] = None
        for p in parameters:
            self.add(p)
        for c in constraints:
            self.add_constraint(c)

    # -- construction ---------------------------------------------------
    def add(self, parameter: Parameter) -> "ConfigurationSpace":
        if parameter.name in self._params:
            raise ParameterError(f"duplicate parameter {parameter.name!r}")
        self._params[parameter.name] = parameter
        self._repro_decoder = None
        return self

    def add_constraint(self, constraint: Constraint) -> "ConfigurationSpace":
        unknown = [n for n in getattr(constraint, "touches", None) or () if n not in self._params]
        if unknown:
            raise ParameterError(
                f"constraint {constraint.name!r} touches unknown parameters {unknown}"
            )
        self._constraints.append(constraint)
        return self

    # -- introspection ---------------------------------------------------
    def parameters(self) -> List[Parameter]:
        return list(self._params.values())

    def names(self) -> List[str]:
        return list(self._params)

    def constraints(self) -> List[Constraint]:
        return list(self._constraints)

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def __getitem__(self, name: str) -> Parameter:
        try:
            return self._params[name]
        except KeyError:
            raise ParameterError(f"no parameter named {name!r}") from None

    @property
    def dimension(self) -> int:
        return len(self._params)

    # -- configurations ---------------------------------------------------
    def configuration(self, values: Mapping[str, Any]) -> Configuration:
        """Build a validated configuration from a full value mapping."""
        return Configuration(self, values)

    def default_configuration(self) -> Configuration:
        return Configuration(self, {p.name: p.default for p in self.parameters()})

    def partial(self, overrides: Mapping[str, Any]) -> Configuration:
        """Default configuration with some values overridden."""
        values = {p.name: p.default for p in self.parameters()}
        values.update(overrides)
        return Configuration(self, values)

    def check_constraints(self, values: Mapping[str, Any]) -> None:
        for c in self._constraints:
            if not c.holds(values):
                raise ConstraintViolation(c.name, c.description or c.name)

    def is_feasible(self, values: Mapping[str, Any]) -> bool:
        return all(c.holds(values) for c in self._constraints)

    def _decoder(self) -> "_Decoder":
        if self._repro_decoder is None:
            self._repro_decoder = _Decoder(self.parameters())
        return self._repro_decoder

    def _feasible_rows(self, values: np.ndarray) -> List[bool]:
        """Whether each row of decoded ``values`` (rows × parameters, as
        :meth:`_Decoder.decode` gives them) satisfies every constraint.

        A constraint sees a mapping of only the columns its ``touches``
        names, in parameter order (every column for a plain
        :class:`Constraint`), for the rows every earlier constraint
        accepted, as :meth:`is_feasible` calls it.  Each touched column
        is converted to Python values once.
        """
        params = self.parameters()
        index = {p.name: j for j, p in enumerate(params)}
        feasible = [True] * len(values)
        columns: Dict[int, List[Any]] = {}
        for c in self._constraints:
            touches = getattr(c, "touches", None)
            touched = range(len(params)) if touches is None else sorted({index[n] for n in touches})
            for j in touched:
                if j not in columns:
                    columns[j] = params[j]._python_column(values[:, j])
            names = [params[j].name for j in touched]
            rows = _zip_columns([columns[j] for j in touched], len(values))
            feasible = [
                ok and c.holds(dict(zip(names, row))) for ok, row in zip(feasible, rows)
            ]
        return feasible

    # -- vector encoding ---------------------------------------------------
    def to_array(self, config: Mapping[str, Any]) -> np.ndarray:
        return np.array(
            [p.to_unit(config[p.name]) for p in self.parameters()], dtype=float
        )

    def from_array(self, x: Sequence[float]) -> Configuration:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,):
            raise ValidationError(
                f"expected vector of length {self.dimension}, got shape {x.shape}"
            )
        params = self.parameters()
        values, unit = _row(params, [p.decode(u) for p, u in zip(params, x.tolist())])
        self.check_constraints(values)
        return Configuration._trusted(self, values, unit)

    def from_array_feasible(
        self, x: Sequence[float], rng: Optional[np.random.Generator] = None, max_tries: int = 64
    ) -> Configuration:
        """Decode a vector, repairing constraint violations by resampling.

        Falls back to the default configuration if no feasible neighbor
        is found — the default is required to be feasible by contract.
        """
        rng = rng or np.random.default_rng(0)
        x = np.asarray(x, dtype=float)
        for attempt in range(max_tries):
            try:
                return self.from_array(x)
            except ConstraintViolation:
                jitter = rng.normal(scale=0.05 * (attempt + 1), size=self.dimension)
                x = np.clip(np.asarray(x, dtype=float) + jitter, 0.0, 1.0)
        return self.default_configuration()

    def from_arrays_feasible(
        self, X: np.ndarray, rng: np.random.Generator
    ) -> List[Configuration]:
        """Decode each row of ``X`` as :meth:`from_array_feasible` would.

        The matrix decodes at once: ``from_unit``'s clamp (NaN and -0.0
        become 0.0), ``rint(u * (n - 1))`` for a categorical, then
        :meth:`_Decoder.decode`.  The feasible rows are built by
        iterating a :class:`ConfigurationBatch` of them.  Only the rows
        that violate a constraint are repaired, in row order, through
        :meth:`from_array_feasible`, so ``rng`` is drawn exactly as a
        per-row loop draws it.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.dimension:
            raise ValidationError(
                f"expected rows of length {self.dimension}, got shape {X.shape}"
            )
        decoder = self._decoder()
        categorical = decoder.categorical
        u = np.where(X > 0.0, X, 0.0)
        u = np.where(u < 1.0, u, 1.0)
        codes = np.rint(u[:, categorical] * (decoder.choices[categorical] - 1)).astype(np.int64)
        values, units = decoder.decode(u[:, ~categorical], codes)
        feasible = self._feasible_rows(values)
        built = iter(ConfigurationBatch(self, values[feasible], units[feasible]))
        return [
            next(built) if ok else self.from_array_feasible(x, rng)
            for x, ok in zip(X, feasible)
        ]

    # -- sampling ---------------------------------------------------------
    def sample_configuration(
        self, rng: np.random.Generator, max_tries: int = 256
    ) -> Configuration:
        """Uniformly sample a feasible configuration (rejection sampling)."""
        sampled = self.sample_configurations(1, rng, max_tries)
        if not sampled:
            raise ValidationError(
                f"could not sample a feasible configuration in {max_tries} tries"
            )
        return sampled[0]

    def sample_configurations(
        self, n: int, rng: np.random.Generator, max_tries: int = 256
    ) -> ConfigurationBatch:
        """Uniformly sample ``n`` feasible configurations (rejection sampling).

        Each of the ``n`` slots draws rows until one is feasible; a slot
        whose ``max_tries`` rows are all infeasible is dropped, so fewer
        than ``n`` configurations may return.  The draws are exactly
        those of ``n`` loops of ``{p.name: p.sample(rng) ...}`` rows:
        each round draws one row per open slot, the fewest the loops
        could still need, so no row is drawn that they would not draw.

        A round of several rows decodes its whole matrix at once
        (:meth:`_Decoder.decode`) and checks feasibility on the touched
        columns (:meth:`_feasible_rows`); a round of one row decodes
        value by value (:meth:`Parameter.decode`), which costs less than
        the matrix operations for one row.  Either way each value comes
        with its unit code.  The feasible rows come back as a
        :class:`ConfigurationBatch`, which builds a configuration only
        for a row a caller takes.
        """
        params = self.parameters()
        empty = np.empty((0, len(params)))
        values, units = [empty], [empty]
        tail: List[Configuration] = []
        open_slots = n if max_tries > 0 else 0
        tries = 0
        while open_slots > 0:
            if open_slots == 1:
                # open slots only decrease, so this is the batch's last row
                row, unit = _draw_row(params, rng)
                feasible = [self.is_feasible(row)]
                if feasible[0]:
                    tail.append(Configuration._trusted(self, row, unit))
            else:
                round_values, round_units = self._decoder().decode(
                    *_draw(params, open_slots, rng)
                )
                feasible = self._feasible_rows(round_values)
                values.append(round_values[feasible])
                units.append(round_units[feasible])
            for ok in feasible:
                tries += 1
                if ok or tries >= max_tries:
                    open_slots -= 1
                    tries = 0
        return ConfigurationBatch(self, np.concatenate(values), np.concatenate(units)) + tail

    # -- derived spaces -----------------------------------------------------
    def subspace(self, names: Sequence[str], name: str = "") -> "ConfigurationSpace":
        """A space over a subset of parameters (constraints that mention
        dropped parameters are omitted — they cannot be evaluated)."""
        missing = [n for n in names if n not in self._params]
        if missing:
            raise ParameterError(f"unknown parameters: {missing}")
        sub = ConfigurationSpace(name=name or f"{self.name}.sub")
        for n in names:
            sub.add(self._params[n])
        kept = set(names)
        for c in self._constraints:
            # Keep constraints that evaluate successfully on the default
            # restricted mapping; heuristic but safe for our catalogs,
            # which register touched-parameter names explicitly.
            touched = getattr(c, "touches", None)
            if touched is not None and set(touched) <= kept:
                sub.add_constraint(c)
        return sub

    def __repr__(self) -> str:  # pragma: no cover
        return f"ConfigurationSpace({self.name!r}, {len(self)} parameters)"


#: Fewest rows a draw needs to take the bulk path; below it, setting up
#: the word layout costs more than the scalar calls it saves.  Measured
#: on a 2-vCPU x86 VM (numpy 2.4): the bulk path costs about as much as
#: the loop at 4 rows of the Spark and Hadoop catalogs and at 6 to 8
#: rows of the DBMS catalog, and wins on all three from 8 rows.
_BULK_MIN_ROWS = 8

#: Whether bulk and scalar draws agree under the installed numpy;
#: checked once per process, on first use.
_bulk_agrees: Optional[bool] = None


def _choice_counts(params: Sequence[Parameter]) -> np.ndarray:
    """Each parameter's number of choices; 0 for a numeric one."""
    return np.array([
        len(p.choices) if isinstance(p, CategoricalParameter) else 0 for p in params
    ], np.int64)


class _Decoder:
    """A space's parameters as arrays, for decoding whole matrices.

    Numeric knobs give arrays of bounds, of the origin and span of the
    interpolation (``log(low)`` and ``log(high) - log(low)`` on a log
    scale), of the integer bounds ``ceil(low)``/``floor(high)``, and
    masks of the log-scale and integer knobs.  Each categorical knob
    gives a row of the choice table: each choice index's unit code.
    """

    def __init__(self, params: Sequence[Parameter]):
        self.choices = _choice_counts(params)
        self.categorical = self.choices > 0
        numeric = [p for p in params if not isinstance(p, CategoricalParameter)]
        self.low = np.array([p.low for p in numeric])
        self.high = np.array([p.high for p in numeric])
        self.log = np.array([p.log_scale for p in numeric], bool)
        self.integer = np.array([p.integer for p in numeric], bool)
        self.origin = np.array([math.log(p.low) if p.log_scale else p.low for p in numeric])
        self.span = np.array([
            math.log(p.high) - math.log(p.low) if p.log_scale else p.high - p.low
            for p in numeric
        ])
        integers = [p for p in numeric if p.integer]
        self.integer_low = np.array([math.ceil(p.low) for p in integers], float)
        self.integer_high = np.array([math.floor(p.high) for p in integers], float)
        categorical = [p for p in params if isinstance(p, CategoricalParameter)]
        self.choice_units = np.zeros((len(categorical), max(self.choices, default=0)))
        for row, p in zip(self.choice_units, categorical):
            row[:len(p.choices)] = [p.choose(k)[1] for k in range(len(p.choices))]

    def decode(self, numeric: np.ndarray, codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Decode rows given as numeric codes in [0, 1] (rows × numeric)
        and choice indices (rows × categorical).

        Returns the decoded values (floats for numeric knobs, choice
        indices for categorical ones; :meth:`NumericParameter._python_column`
        and its kin give the Python objects) and the unit rows, each
        rows × parameters, bit-identical to :meth:`Parameter.decode` of
        each entry: the same IEEE operations in the same order,
        ``math.exp``/``math.log`` per log-scale entry (numpy's SIMD
        kernels may differ in the last ulp), and clamps written as
        ``np.where`` comparisons, which pick between equal operands
        (signed zeros) as Python's ``min``/``max`` do.
        """
        v = self.origin + numeric * self.span
        v[:, self.log] = _map(math.exp, v[:, self.log])
        v = np.where(v > self.low, v, self.low)
        v = np.where(v < self.high, v, self.high)
        v[:, self.integer] = np.clip(
            np.rint(v[:, self.integer]), self.integer_low, self.integer_high
        )
        logged = v.copy()
        logged[:, self.log] = _map(math.log, v[:, self.log])
        values = np.empty((len(numeric), len(self.choices)))
        units = np.empty_like(values)
        values[:, ~self.categorical] = v
        units[:, ~self.categorical] = (logged - self.origin) / self.span
        values[:, self.categorical] = codes
        units[:, self.categorical] = self.choice_units[np.arange(codes.shape[1]), codes]
        return values, units


def _map(f: Callable[[float], float], a: np.ndarray) -> np.ndarray:
    """``f`` of each entry of ``a``, by Python's float operations."""
    return np.fromiter(map(f, a.ravel().tolist()), float, a.size).reshape(a.shape)


def _zip_columns(columns: List[List[Any]], n: int) -> Iterable[Tuple[Any, ...]]:
    """The ``n`` rows of ``columns``, also when there are no columns."""
    return zip(*columns) if columns else [()] * n


def _row(
    params: Sequence[Parameter], decoded: List[Tuple[Any, float]]
) -> Tuple[Dict[str, Any], np.ndarray]:
    """The values and the unit row of one row's ``(value, code)`` pairs."""
    return (
        {p.name: value for p, (value, _) in zip(params, decoded)},
        np.array([code for _, code in decoded]),
    )


def _draw_row(
    params: Sequence[Parameter], rng: np.random.Generator
) -> Tuple[Dict[str, Any], np.ndarray]:
    """One row of :func:`_draw`, decoded value by value, and its unit row."""
    draws, codes = _draw(params, 1, rng)
    numeric, chosen = iter(draws[0].tolist()), iter(codes[0].tolist())
    return _row(params, [
        p.choose(next(chosen))
        if isinstance(p, CategoricalParameter) else p.decode(next(numeric))
        for p in params
    ])


def _draw(
    params: Sequence[Parameter], k: int, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """The raw draws of ``k`` rows of ``p.sample(rng)`` calls, in order.

    Row after row, parameter after parameter: ``rng.random()`` for a
    numeric knob, ``rng.integers(len(choices))`` for a categorical one.
    ``_draw_bulk`` makes them from one block of raw words; ``_draw_loop``
    makes the calls, and is used for fewer than ``_BULK_MIN_ROWS`` rows,
    for a bit generator other than ``PCG64``, when the one-time check
    finds that the two disagree, and when a bulk draw meets a rejection.

    Returns:
        (k × numeric) unit draws and (k × categorical) choice indices,
        columns in parameter order.
    """
    global _bulk_agrees
    if k >= _BULK_MIN_ROWS and type(rng.bit_generator) is np.random.PCG64:
        if _bulk_agrees is None:
            _bulk_agrees = _check_bulk()
        if _bulk_agrees:
            drawn = _draw_bulk(params, k, rng)
            if drawn is not None:
                return drawn
    return _draw_loop(params, k, rng)


def _draw_bulk(
    params: Sequence[Parameter], k: int, rng: np.random.Generator
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """:func:`_draw_loop`'s values and end state from one ``random_raw`` call.

    numpy's ``PCG64`` makes ``random()`` from one fresh 64-bit word ``w``
    as ``(w >> 11) * 2**-53``, and leaves its 32-bit buffer alone.
    ``integers(n)`` takes a 32-bit half-word: the buffered one if the
    state's ``has_uint32`` is set, else the low half of a fresh word,
    buffering its high half.  It maps the half-word ``h`` by Lemire's
    method to ``(h * n) >> 32`` and rejects ``h`` when
    ``(h * n) mod 2**32 < 2**32 mod n``.  The words are laid out in that
    order, and the buffer the scalar calls would leave is written back.

    Returns None, with the generator restored, when any categorical
    draw would be rejected: the scalar calls then take more words.
    """
    choices = _choice_counts(params)
    categorical = choices > 0
    n_choices = choices[categorical].astype(np.uint64)
    n_cat = len(n_choices)
    bitgen = rng.bit_generator
    saved = bitgen.state
    buffered = saved["has_uint32"]
    # One row's layout, by whether it starts with a full buffer: the
    # j-th categorical takes a fresh word when j + full is even, and
    # every draw's word offset within the row.
    takes = np.ones((2, len(params)), np.int64)
    takes[:, categorical] = (np.arange(n_cat) + np.arange(2)[:, None]) % 2 == 0
    offset = np.cumsum(takes, axis=1) - takes
    full = (buffered + np.arange(k) * n_cat) % 2
    row_words = takes.sum(axis=1)[full]
    start = (np.cumsum(row_words) - row_words)[:, None]
    words = bitgen.random_raw(int(row_words.sum()))
    draws = (words[start + offset[:, ~categorical][full]] >> 11) * 2.0**-53
    fresh = takes[:, categorical].astype(bool)[full]
    fresh_words = words[(start + offset[:, categorical][full])[fresh]]
    halves = np.empty(buffered + 2 * len(fresh_words), np.uint64)
    halves[:buffered] = saved["uinteger"]
    halves[buffered::2] = fresh_words & 0xFFFFFFFF
    halves[buffered + 1::2] = fresh_words >> 32
    scaled = halves[:k * n_cat].reshape(k, n_cat) * n_choices
    if ((scaled & 0xFFFFFFFF) < 2**32 % n_choices).any():
        bitgen.state = saved
        return None
    state = bitgen.state
    state["has_uint32"] = len(halves) - k * n_cat
    if len(fresh_words):
        state["uinteger"] = int(halves[-1])
    bitgen.state = state
    return draws, (scaled >> 32).astype(np.int64)


def _check_bulk() -> bool:
    """Whether :func:`_draw_bulk` matches :func:`_draw_loop` in values
    and generator state, from both buffer parities, under this numpy."""
    params = [
        NumericParameter("a", 0.5, 0.0, 1.0),
        CategoricalParameter("b", 0, [0, 1, 2]),
        NumericParameter("c", 0.5, 0.0, 1.0),
        CategoricalParameter("d", 0, [0, 1, 2, 3, 4]),
        BooleanParameter("e", False),
    ]
    bulk_rng, loop_rng = np.random.default_rng(2024), np.random.default_rng(2024)
    try:
        # three categoricals a row: the second draw enters with a full buffer
        for k in (5, 6):
            got = _draw_bulk(params, k, bulk_rng)
            want = _draw_loop(params, k, loop_rng)
            if got is None or any(
                g.dtype != w.dtype or g.shape != w.shape or g.tobytes() != w.tobytes()
                for g, w in zip(got, want)
            ) or bulk_rng.bit_generator.state != loop_rng.bit_generator.state:
                return False
    except (AttributeError, IndexError, KeyError, TypeError, ValueError):
        return False  # a numpy without this generator's raw words or state layout
    return True


def _draw_loop(
    params: Sequence[Parameter], k: int, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`_draw` by numpy's scalar calls.

    A run of consecutive numeric draws, within a row or across a row
    boundary, is one ``rng.random(out=...)`` call, which yields the same
    values and leaves the generator in the same state as that many
    scalar calls.
    """
    layout, run = [], 0  # (numeric draws before it, choices) per categorical
    for p in params:
        if isinstance(p, CategoricalParameter):
            layout.append((run, len(p.choices)))
            run = 0
        else:
            run += 1
    layout.append((run, 0))
    n_numeric = sum(r for r, _ in layout)
    draws = np.empty(k * n_numeric)
    codes: List[int] = []
    uniform, integers, append = rng.random, rng.integers, codes.append
    pos = pending = 0
    for _ in range(k):
        for run, n_choices in layout:
            pending += run
            if n_choices:
                if pending:
                    uniform(out=draws[pos:pos + pending])
                    pos += pending
                    pending = 0
                append(integers(n_choices))
    if pending:
        uniform(out=draws[pos:])
    return (
        draws.reshape(k, n_numeric),
        np.array(codes, dtype=np.int64).reshape(k, len(layout) - 1),
    )


def make_constraint(
    name: str, touches: Sequence[str], predicate: Callable[[Mapping[str, Any]], bool], description: str = ""
) -> Constraint:
    """Build a constraint annotated with the parameter names it touches.

    ``predicate`` must read only the ``touches`` names: a batched
    feasibility check passes it a mapping of only those, in parameter
    order.  The annotation also lets :meth:`ConfigurationSpace.subspace`
    carry the constraint over when all touched parameters survive the
    projection.  A space refuses a constraint that touches a name it
    lacks.
    """
    c = Constraint(name, predicate, description)
    c.touches = tuple(touches)  # type: ignore[attr-defined]
    return c
