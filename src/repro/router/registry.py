"""Name resolution for routers — the estimator registry's discipline.

Router names resolve exactly the way estimator and generator names do:
case-insensitive canonical names plus aliases, with unknown names
raising a typed :class:`~repro.core.errors.UnknownRouterError` carrying
nearest-match candidates from the shared
:func:`~repro.estimators.registry.nearest_names` engine, so ``"ucb"``,
``"thompson-sampling"`` and ``"Tompson"`` all behave predictably.
"""

from __future__ import annotations

from typing import Any

from repro.core.errors import UnknownRouterError
from repro.estimators.registry import nearest_names
from repro.router.base import (
    Router,
    StaticRouter,
    ThompsonRouter,
    UCB1Router,
)

__all__ = [
    "available_routers",
    "canonical_router_name",
    "resolve_router",
    "nearest_routers",
]

_ROUTERS: dict[str, type[Router]] = {
    "UCB1": UCB1Router,
    "THOMPSON": ThompsonRouter,
    "STATIC": StaticRouter,
}

_ROUTER_ALIASES: dict[str, str] = {
    "UCB": "UCB1",
    "UCB-1": "UCB1",
    "BANDIT": "UCB1",
    "TS": "THOMPSON",
    "THOMPSON-SAMPLING": "THOMPSON",
    "BAYES": "THOMPSON",
    "FIXED": "STATIC",
    "PINNED": "STATIC",
    "NONE": "STATIC",
}


def available_routers() -> tuple[str, ...]:
    """Canonical router names, sorted."""
    return tuple(sorted(_ROUTERS))


def nearest_routers(name: str, limit: int = 3) -> tuple[str, ...]:
    """Canonical router names closest to ``name``, best first."""
    return nearest_names(name, _ROUTERS, _ROUTER_ALIASES, limit=limit)


def canonical_router_name(name: str) -> str:
    """Resolve a router name or alias; raise on unknown names.

    Raises:
        UnknownRouterError: with ``name``/``candidates`` attributes and
            a "did you mean" hint, mirroring the estimator registry; a
            name that is not a string raises it with no candidates.
    """
    if not isinstance(name, str):
        raise UnknownRouterError(
            name, (), f"router name must be a string, got {name!r}"
        )
    key = name.strip().upper()
    key = _ROUTER_ALIASES.get(key, key)
    if key in _ROUTERS:
        return key
    candidates = nearest_routers(name)
    hint = (
        f"; did you mean {', '.join(candidates)}?" if candidates else ""
    )
    raise UnknownRouterError(
        name,
        candidates,
        f"unknown router {name!r} "
        f"(available: {', '.join(available_routers())}){hint}",
    )


def resolve_router(source: "Router | str", **config: Any) -> Router:
    """Construct (or pass through) a router.

    Args:
        source: a :class:`Router` instance (returned as-is; passing
            ``**config`` alongside one is an error) or a name/alias
            :func:`canonical_router_name` accepts.
        **config: constructor arguments for the named router —
            ``candidates=``, ``seed=``, ``latency_weight=``, plus the
            router's own knobs (``exploration=``, ``method=``, ...).
    """
    if isinstance(source, Router):
        if config:
            raise UnknownRouterError(
                str(source),
                (),
                "resolve_router received a Router instance and "
                f"configuration {sorted(config)} — configure the "
                "instance directly instead",
            )
        return source
    return _ROUTERS[canonical_router_name(source)](**config)
