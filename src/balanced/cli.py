"""Command-line surface.

Exit codes: 0 = pass, 1 = checked property is false, 2 = malformed input,
3 = resource limit (use --allow-slow), 4 = an internal soundness check
failed (a defect in this library; no verdict is given).  Reports go to
stdout as JSON with a fixed key order; diagnostics go to stderr.  The
mapping from library errors to exit codes 2 and 4 is applied once, at the
group, so it covers every command.
"""

from __future__ import annotations

import functools
import math
import sys

import click

from . import balance, constructors, designs, files, numerics, report, symmetry
from .exact import Configuration, InvariantError, StructuralError
from .lattice import kissing_configuration
from .numerics import AmbiguousShellError, CoordinateSet

SLOW_LATTICE_DIM = 16


def _echo(doc) -> None:
    click.echo(files.write_json(doc).rstrip("\n"))


def _fail(message: str, code: int):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def input_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (files.InputError, StructuralError, AmbiguousShellError) as exc:
            _fail(str(exc), 2)
        except InvariantError as exc:
            _fail(f"internal invariant violated: {exc}", 4)

    return wrapper


@click.group()
def main():
    """Construct, verify and analyze balanced spherical point configurations."""


main.invoke = input_errors(main.invoke)


def _write_output(built: Configuration | CoordinateSet, out) -> None:
    if isinstance(built, CoordinateSet):
        text = files.write_coordinates(built, out)
    else:
        text = files.write_configuration(built, out)
    if out is None:
        click.echo(text.rstrip("\n"))


# --- construct ---------------------------------------------------------------


@main.group()
def construct():
    """Build a named configuration and write its JSON."""


_out_option = click.option("-o", "--output", type=click.Path(dir_okay=False), default=None)


@construct.command("simplex-midpoints")
@click.argument("n", type=int)
@_out_option
def construct_simplex_midpoints(n, output):
    _write_output(constructors.simplex_midpoints(n), output)


@construct.command("c7prime")
@click.option("--tetra", default=None, help="Four point indices, comma separated.")
@_out_option
def construct_c7prime(tetra, output):
    indices = None
    if tetra is not None:
        try:
            indices = tuple(int(tok) for tok in tetra.split(","))
        except ValueError:
            raise files.InputError(f"bad --tetra value {tetra!r}")
    _write_output(constructors.c7_prime(indices), output)


@construct.command("srg-embedding")
@click.argument("graph", type=click.Path(exists=False))
@click.option("--eigen", type=click.Choice(["r", "s"]), default="r", show_default=True)
@click.option("--complement", is_flag=True, help="Embed the complement graph instead.")
@_out_option
def construct_srg_embedding(graph, eigen, complement, output):
    if graph == "figure1":
        adjacency = constructors.figure1_adjacency()
    else:
        adjacency = files.read_graph(graph)
    if complement:
        adjacency = symmetry.adjacency_complement(adjacency)
    _write_output(constructors.srg_spectral_embedding(adjacency, eigen), output)


@construct.command("kissing")
@click.argument("lattice")
@click.option("--allow-slow", is_flag=True)
@_out_option
def construct_kissing(lattice, allow_slow, output):
    def gate(dim):
        if dim >= SLOW_LATTICE_DIM and not allow_slow:
            _fail(f"lattice dimension {dim} >= {SLOW_LATTICE_DIM}: enumeration is "
                  f"slow; pass --allow-slow", 3)

    gram = files.read_lattice(lattice, gate)
    gate(gram.dim)
    _write_output(kissing_configuration(gram), output)


@construct.command("antipodal-union")
@click.argument("file", type=click.Path(exists=False))
@_out_option
def construct_antipodal_union(file, output):
    _write_output(constructors.antipodal_union(files.read_configuration(file)), output)


@construct.command("polytope")
@click.argument("name")
@click.option("-n", "dim", type=int, default=None, help="Dimension, where required.")
@click.option("-k", "ring", type=int, default=None, help="Ring size for poles-and-ring.")
@_out_option
def construct_polytope(name, dim, ring, output):
    _write_output(constructors.standard_polytope(name, n=dim, k=ring), output)


# --- check -------------------------------------------------------------------


@main.group()
def check():
    """Verdict commands; exit 0 when the property holds, 1 when it fails."""


def _balance_report_dict(rep) -> dict:
    if isinstance(rep, balance.BalanceReport):
        return {"mode": "exact", "balanced": rep.balanced, "violations": [
            {"point": v.point, "shell_value": str(v.shell_value),
             "deviation": [str(x) for x in v.deviation]} for v in rep.violations]}
    return {"mode": "float", "balanced": rep.balanced, "tol": rep.tol, "violations": [
        {"point": v.point, "shell_value": v.shell_value, "deviation_norm": v.deviation_norm}
        for v in rep.violations]}


def _load_points(file, tol):
    """The configuration or coordinates in file, with --tol positive and finite."""
    loaded = files.load_point_input(file)
    numerics._require_positive("tolerance", tol)
    return loaded


@check.command("balanced")
@click.argument("file", type=click.Path(exists=False))
@click.option("--tol", type=float, default=numerics.DEFAULT_TOL, show_default=True,
              help="Float mode only.")
def check_balanced_cmd(file, tol):
    loaded = _load_points(file, tol)
    if isinstance(loaded, Configuration):
        rep = balance.check_balanced(loaded)
    else:
        rep = numerics.check_balanced_float(loaded, tol)
    _echo(_balance_report_dict(rep))
    sys.exit(0 if rep.balanced else 1)


@check.command("design")
@click.argument("file", type=click.Path(exists=False))
@click.option("--cap", type=int, default=report.DEFAULT_CAP, show_default=True)
@click.option("--tol", type=float, default=numerics.DEFAULT_TOL, show_default=True)
def check_design_cmd(file, cap, tol):
    loaded = _load_points(file, tol)
    if isinstance(loaded, Configuration):
        mode, verdict, show = "exact", designs.design_strength(loaded, cap), str
    else:
        mode, verdict, show = "float", numerics.design_strength_float(loaded, cap, tol), float
    _echo({"mode": mode, "cap": cap, "strength": verdict.strength,
           "moments": {str(k): show(v) for k, v in verdict.per_k_moment.items()}})


@check.command("theorem1")
@click.argument("file", type=click.Path(exists=False))
@click.option("--cap", type=int, default=report.DEFAULT_CAP, show_default=True)
@click.option("--tol", type=float, default=numerics.DEFAULT_TOL, show_default=True)
def check_theorem1_cmd(file, cap, tol):
    loaded = _load_points(file, tol)
    if isinstance(loaded, Configuration):
        mode, t1 = "exact", designs.theorem1_check(loaded, cap)
    else:
        mode, t1 = "float", numerics.theorem1_check_float(loaded, cap, tol)
    _echo({"mode": mode, "cap": cap, "per_point_k": list(t1.per_point_k), "strength": t1.strength,
           "applies": t1.applies})
    sys.exit(0 if t1.applies else 1)


@check.command("group-balanced")
@click.argument("file", type=click.Path(exists=False))
def check_group_balanced_cmd(file):
    c = files.read_configuration(file)
    verdict = symmetry.check_group_balanced(c)
    _echo({"group_balanced": verdict.group_balanced, "witnesses": list(verdict.witnesses)})
    sys.exit(0 if verdict.group_balanced else 1)


@check.command("euclidean")
@click.argument("file", type=click.Path(exists=False))
def check_euclidean_cmd(file):
    points, period, cutoff = files.read_euclidean(file)
    rep = balance.check_balanced_euclidean(points, period=period, cutoff=cutoff)
    _echo(_balance_report_dict(rep))
    sys.exit(0 if rep.balanced else 1)


# --- symmetry / numerics / report --------------------------------------------


@main.command("symmetry")
@click.argument("file", type=click.Path(exists=False))
@click.option("--orbits", "show_orbits", is_flag=True)
@click.option("--stabilizer", type=int, default=None, help="Point index.")
def symmetry_cmd(file, show_orbits, stabilizer):
    c = files.read_configuration(file)
    group = symmetry.automorphism_group(symmetry.colored_graph_from_config(c))
    doc = {
        "order": str(group.order()),
        "generators": [list(g) for g in group.generators],
    }
    if show_orbits:
        doc["orbits"] = [list(o) for o in group.orbits()]
    if stabilizer is not None:
        stab = group.point_stabilizer(stabilizer)
        doc["stabilizer"] = {
            "point": stabilizer,
            "order": str(stab.order()),
            "generators": [list(g) for g in stab.generators],
            "fixed_subspace_dim": symmetry._orbit_rank(c, stab.orbits()),  # a subgroup: trusted
        }
    _echo(doc)


def _coordinates_for(file) -> CoordinateSet:
    loaded = files.load_point_input(file)
    if isinstance(loaded, Configuration):
        return numerics.coordinates_from_gram(loaded)
    return loaded


@main.command("energy")
@click.argument("file", type=click.Path(exists=False))
@click.option("-s", "exponent", type=float, required=True)
def energy_cmd(file, exponent):
    p = _coordinates_for(file)
    _echo({"s": exponent, "energy": numerics.energy(p, exponent)})


@main.command("force")
@click.argument("file", type=click.Path(exists=False))
@click.option("-s", "exponent", type=float, required=True)
def force_cmd(file, exponent):
    p = _coordinates_for(file)
    rep = numerics.tangential_force(p, exponent)
    _echo({"s": exponent, "max_tangential_norm": rep.max_tangential_norm,
           "tangential": rep.tangential.tolist()})


@main.command("saddle-demo")
@click.option("-s", "exponent", type=float, default=1.0, show_default=True)
@click.option("--samples", type=click.IntRange(min=1), default=64, show_default=True)
def saddle_demo_cmd(exponent, samples):
    """Rotate a cube facet: the energy is critical at 0 yet drops inside."""
    e0 = numerics.cube_facet_rotation(0.0, exponent)
    h = 1e-6
    slope0 = (numerics.cube_facet_rotation(h, exponent) - e0) / h
    best_theta, best_e = 0.0, e0
    for i in range(1, samples + 1):
        theta = (math.pi / 4) * i / samples
        e = numerics.cube_facet_rotation(theta, exponent)
        if e < best_e:
            best_theta, best_e = theta, e
    _echo({"s": exponent, "energy_at_0": e0, "slope_at_0": slope0, "best_theta": best_theta,
           "best_energy": best_e,
           "energy_at_pi_4": numerics.cube_facet_rotation(math.pi / 4, exponent),
           "drops_below_start": best_e < e0 - 1e-3})


@main.command("report")
@click.argument("file", type=click.Path(exists=False))
@click.option("--cap", type=int, default=report.DEFAULT_CAP, show_default=True)
@click.option("--tol", type=float, default=numerics.DEFAULT_TOL, show_default=True)
def report_cmd(file, cap, tol):
    loaded = _load_points(file, tol)
    if isinstance(loaded, Configuration):
        rep = report.build_report(loaded, cap)
    else:
        rep = report.build_report_float(loaded, cap, tol)
    _echo(rep.to_dict())


if __name__ == "__main__":
    main()
