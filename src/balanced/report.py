"""Aggregate analysis verdicts for one configuration."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import balance, designs, numerics, symmetry
from .exact import Configuration, inner_product_spectrum, require
from .numerics import CoordinateSet

DEFAULT_CAP = 12


@dataclass(frozen=True)
class AnalysisReport:
    label: Optional[str]
    n_points: int
    ambient_dim: int
    spectrum: tuple[str, ...]
    balanced: bool
    design_cap: int
    design_strength: int
    per_point_distance_counts: tuple[int, ...]
    theorem1_applies: bool
    symmetry_order: Optional[str]
    orbit_sizes: Optional[tuple[int, ...]]
    group_balanced: Optional[bool]
    witnesses: Optional[tuple[int, ...]]
    mode: str = "exact"

    def to_dict(self) -> dict:
        """The fields with "mode" second; tuples are written as JSON lists."""
        doc = dict(vars(self))
        return {"label": doc.pop("label"), "mode": doc.pop("mode"), **doc}


def build_report(c: Configuration, cap: int = DEFAULT_CAP) -> AnalysisReport:
    spectrum = tuple(str(u) for u in inner_product_spectrum(c))
    bal = balance.check_balanced(c)
    t1 = designs.theorem1_check(c, cap)
    group = symmetry.automorphism_group(symmetry.colored_graph_from_config(c))
    orbit_sizes = tuple(len(o) for o in group.orbits())
    gb = symmetry.check_group_balanced(c, group=group)
    # the two sufficient conditions must never contradict the exact check
    require(not t1.applies or bal.balanced, "theorem 1 applies to an unbalanced configuration")
    require(not gb.group_balanced or bal.balanced, "group-balanced but not balanced")
    return AnalysisReport(
        label=c.label,
        n_points=c.size,
        ambient_dim=c.ambient_dim,
        spectrum=spectrum,
        balanced=bal.balanced,
        design_cap=cap,
        design_strength=t1.strength,
        per_point_distance_counts=t1.per_point_k,
        theorem1_applies=t1.applies,
        symmetry_order=str(group.order()),
        orbit_sizes=orbit_sizes,
        group_balanced=gb.group_balanced,
        witnesses=gb.witnesses,
    )


def build_report_float(
    p: CoordinateSet, cap: int = DEFAULT_CAP, tol: float = 1e-9
) -> AnalysisReport:
    """Float-mode report; symmetry verdicts need exact Gram data and stay null."""
    spectrum = tuple(f"{u:.12g}" for u in numerics.spectrum_float(p, tol))
    bal = numerics.check_balanced_float(p, tol)
    per_point, strength, applies = numerics.theorem1_check_float(p, cap, tol)
    require(not applies or bal.balanced, "theorem 1 applies to an unbalanced configuration")
    return AnalysisReport(
        label=p.label,
        n_points=p.size,
        ambient_dim=p.dim,
        spectrum=spectrum,
        balanced=bal.balanced,
        design_cap=cap,
        design_strength=strength,
        per_point_distance_counts=per_point,
        theorem1_applies=applies,
        symmetry_order=None,
        orbit_sizes=None,
        group_balanced=None,
        witnesses=None,
        mode="float",
    )
