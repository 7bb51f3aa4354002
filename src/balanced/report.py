"""Aggregate analysis verdicts for one configuration.

A report decides balance and design strength without their witnesses.  In
float mode it stops at the first confirmed violation; in exact mode it reads
the shell scan and builds no deviations.  Both stop the moments at the first
that does not vanish.  `check balanced` lists every violation and
`check design` every moment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import balance, designs, numerics, symmetry
from .designs import TheoremOneVerdict
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
    # the symmetry verdicts need exact Gram data and stay None in float mode
    symmetry_order: Optional[str] = None
    orbit_sizes: Optional[tuple[int, ...]] = None
    group_balanced: Optional[bool] = None
    witnesses: Optional[tuple[int, ...]] = None
    mode: str = "exact"

    def to_dict(self) -> dict:
        """The fields with "mode" second; tuples are written as JSON lists."""
        doc = dict(vars(self))
        return {"label": doc.pop("label"), "mode": doc.pop("mode"), **doc}


def _assemble(points: Configuration | CoordinateSet, dim: int, spectrum: tuple[str, ...],
              balanced: bool, cap: int, t1: TheoremOneVerdict, **fields) -> AnalysisReport:
    """The report of either mode, from its spectrum, balance and Theorem 1
    verdicts; `fields` are the symmetry verdicts and the mode."""
    # a sufficient condition must never contradict the balance check
    require(not t1.applies or balanced, "theorem 1 applies to an unbalanced configuration")
    return AnalysisReport(
        label=points.label, n_points=points.size, ambient_dim=dim, spectrum=spectrum,
        balanced=balanced, design_cap=cap, design_strength=t1.strength,
        per_point_distance_counts=t1.per_point_k, theorem1_applies=t1.applies, **fields)


def build_report(c: Configuration, cap: int = DEFAULT_CAP) -> AnalysisReport:
    """Exact-mode report; balance and design strength come without their
    witnesses, for which see `check_balanced` and `design_strength`."""
    spectrum = tuple(str(u) for u in inner_product_spectrum(c))
    balanced = not balance._bad_shells(c)
    t1 = designs.theorem1_check(c, cap)
    group = symmetry.automorphism_group(symmetry.colored_graph_from_config(c))
    gb = symmetry._group_balanced(c, group)
    require(not gb.group_balanced or balanced, "group-balanced but not balanced")
    return _assemble(c, c.ambient_dim, spectrum, balanced, cap, t1,
                     symmetry_order=str(group.order()),
                     orbit_sizes=tuple(len(o) for o in group.orbits()),
                     group_balanced=gb.group_balanced, witnesses=gb.witnesses)


def build_report_float(
    p: CoordinateSet, cap: int = DEFAULT_CAP, tol: float = numerics.DEFAULT_TOL
) -> AnalysisReport:
    """Float-mode report.  Balance and design strength come without their
    witnesses, for which see `check_balanced_float` and `design_strength_float`."""
    spectrum = tuple(f"{u:.12g}" for u in numerics.spectrum_float(p, tol))
    balanced = next(numerics._float_violations(p, tol), None) is None
    t1 = numerics.theorem1_check_float(p, cap, tol)
    return _assemble(p, p.dim, spectrum, balanced, cap, t1, mode="float")
