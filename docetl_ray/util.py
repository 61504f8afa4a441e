"""Small shared helpers."""

from __future__ import annotations

from .stages.util_ray import collect_small as collect  # noqa: F401
