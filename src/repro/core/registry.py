"""Name-based registries for tuners and systems.

The benchmark harness and examples construct tuners and systems by name
so experiment definitions stay declarative.  Registration happens at
import time via the :func:`register_tuner` / :func:`register_system`
decorators.
"""

from __future__ import annotations

from typing import Callable, Dict, List, TypeVar

from repro.exceptions import ReproError

__all__ = [
    "register_tuner",
    "register_system",
    "make_tuner",
    "make_system",
    "tuner_names",
    "system_names",
    "tuners_in_category",
]

_TUNERS: Dict[str, Callable[..., object]] = {}
_SYSTEMS: Dict[str, Callable[..., object]] = {}

T = TypeVar("T")


class UnknownName(ReproError):
    """Requested a tuner or system name that was never registered."""


def register_tuner(name: str) -> Callable[[T], T]:
    """Class decorator registering a tuner factory under ``name``.

    Rejects duplicate names and tuners whose ``category`` is not one of
    the paper's canonical :data:`~repro.core.tuner.CATEGORIES` — an
    invalid category would silently vanish from every per-category
    experiment matrix.
    """

    def decorator(cls: T) -> T:
        # Imported lazily: repro.core.tuner imports the session layer,
        # and this module must stay importable before all of core is.
        from repro.core.tuner import CATEGORIES

        if name in _TUNERS:
            raise ReproError(f"tuner {name!r} registered twice")
        category = getattr(cls, "category", None)
        if category not in CATEGORIES:
            raise ReproError(
                f"tuner {name!r} declares category {category!r}; "
                f"must be one of {CATEGORIES}"
            )
        _TUNERS[name] = cls
        return cls

    return decorator


def register_system(name: str) -> Callable[[T], T]:
    """Class decorator registering a system factory under ``name``."""

    def decorator(cls: T) -> T:
        if name in _SYSTEMS:
            raise ReproError(f"system {name!r} registered twice")
        _SYSTEMS[name] = cls
        return cls

    return decorator


def _ensure_loaded() -> None:
    """Import the packages whose import side effects populate the
    registries; deferred to avoid circular imports at package init."""
    import repro.tuners  # noqa: F401
    import repro.systems  # noqa: F401


#: Multi-fidelity options ``make_tuner`` lifts off the constructor
#: kwargs and applies as instance attributes — every ask/tell tuner
#: understands them without any constructor changes.
_FIDELITY_KWARGS = (
    "multi_fidelity", "fidelity_rungs", "fidelity_min", "fidelity_eta",
)


def make_tuner(name: str, **kwargs) -> object:
    """Construct a registered tuner.

    Fidelity options (``multi_fidelity``, ``fidelity_rungs``,
    ``fidelity_min``, ``fidelity_eta``) are recognized for every
    ask/tell tuner uniformly: they are set on the constructed instance
    rather than passed to the constructor.
    Passing any rung/fidelity option implies ``multi_fidelity=True``
    unless it was explicitly disabled.  Validated eagerly, so bad
    values fail here instead of mid-session.
    """
    _ensure_loaded()
    fidelity_opts = {
        key: kwargs.pop(key) for key in _FIDELITY_KWARGS if key in kwargs
    }
    try:
        factory = _TUNERS[name]
    except KeyError:
        raise UnknownName(
            f"unknown tuner {name!r}; known: {sorted(_TUNERS)}"
        ) from None
    tuner = factory(**kwargs)
    if fidelity_opts:
        from repro.core.driver import PromotionScheduler, SearchTuner

        fidelity_opts.setdefault("multi_fidelity", True)
        if fidelity_opts["multi_fidelity"] and not isinstance(
            tuner, SearchTuner
        ):
            raise ReproError(
                f"tuner {name!r} is not an ask/tell search tuner; "
                "multi-fidelity screening needs the SearchDriver"
            )
        for key, value in fidelity_opts.items():
            setattr(tuner, key, value)
        if tuner.multi_fidelity:
            # Surface bad rung parameters now, with the same
            # validation the driver will apply.
            PromotionScheduler.for_strategy(tuner)
    return tuner


def make_system(name: str, **kwargs) -> object:
    _ensure_loaded()
    try:
        factory = _SYSTEMS[name]
    except KeyError:
        raise UnknownName(
            f"unknown system {name!r}; known: {sorted(_SYSTEMS)}"
        ) from None
    return factory(**kwargs)


def tuner_names() -> List[str]:
    _ensure_loaded()
    return sorted(_TUNERS)


def system_names() -> List[str]:
    _ensure_loaded()
    return sorted(_SYSTEMS)


def tuners_in_category(category: str) -> List[str]:
    _ensure_loaded()
    names = []
    for name, factory in _TUNERS.items():
        if getattr(factory, "category", None) == category:
            names.append(name)
    return sorted(names)
