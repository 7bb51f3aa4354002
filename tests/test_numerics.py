import functools
import math
import random

import numpy as np
import pytest

from conftest import perturbed_square
from reference_numerics import gradient_check, reconstruction_residual
from balanced.balance import check_balanced
from balanced.constructors import (
    antipodal_union,
    c7_prime,
    cross_polytope,
    cube,
    figure1_adjacency,
    simplex,
    simplex_midpoints,
    srg_spectral_embedding,
)
from balanced.exact import Configuration, Scaled, StructuralError
from balanced import numerics
from balanced.lattice import bundled_lattice, kissing_configuration
from balanced.numerics import (
    AmbiguousShellError,
    CoordinateSet,
    check_balanced_float,
    coordinates_from_gram,
    cube_coordinates,
    cube_facet_rotation,
    design_strength_float,
    energy,
    poles_and_ring_coordinates,
    spectrum_float,
    tangential_force,
    theorem1_check_float,
)
from balanced.report import build_report_float

# every configuration the constructors build, up to K12 kissing
CONSTRUCTED = {
    **{f"c{n}": functools.partial(simplex_midpoints, n) for n in range(3, 10)},
    **{f"cross{n}": functools.partial(cross_polytope, n) for n in range(2, 7)},
    **{f"simplex{n}": functools.partial(simplex, n) for n in range(2, 7)},
    "c7p": c7_prime,
    "c7p-alt": functools.partial(c7_prime, (1, 8, 23, 26)),  # pairs 13, 24, 57, 68
    "c7-union": lambda: antipodal_union(simplex_midpoints(7)),
    "c7p-union": lambda: antipodal_union(c7_prime()),
    "cube": cube,
    "paulus_r": lambda: srg_spectral_embedding(figure1_adjacency(), "r"),
    "paulus_s": lambda: srg_spectral_embedding(figure1_adjacency(), "s"),
    **{f"{name}_kissing": functools.partial(kissing_configuration, bundled_lattice(name))
       for name in ("z2", "d4", "e8", "k12")},
}


class TestCoordinates:
    def test_identity_standard_basis(self):
        c = Configuration.from_gram([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        p = coordinates_from_gram(c)
        assert np.allclose(p.points, np.eye(3))

    def test_cube_residual(self, cube_config):
        p = coordinates_from_gram(cube_config)
        assert p.dim == 3
        assert reconstruction_residual(p, cube_config) < 1e-12

    def test_c7p_shape_and_residual(self, c7p):
        p = coordinates_from_gram(c7p)
        assert p.points.shape == (28, 7)
        assert reconstruction_residual(p, c7p) < 1e-10

    def test_points_are_a_read_only_copy(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0]])
        p = CoordinateSet(points=a)
        a[0] = 0
        assert p.points.tolist() == [[1.0, 0.0], [0.0, 1.0]]
        with pytest.raises(ValueError, match="read-only"):
            p.points[0, 0] = 5
        assert p.points.tolist() == [[1.0, 0.0], [0.0, 1.0]]

    def test_fields_cannot_be_assigned(self):
        p = CoordinateSet(points=[[1.0, 0.0], [0.0, 1.0]])
        for field, value in (("points", np.zeros((2, 2))), ("label", "x"), ("_tables", {})):
            with pytest.raises(AttributeError):
                setattr(p, field, value)
        rep = tangential_force(p, 2.0)
        for field, value in (("tangential", np.zeros((2, 2))), ("max_tangential_norm", 0.0)):
            with pytest.raises(AttributeError):
                setattr(rep, field, value)

    def test_bundled_residuals(self, paulus_r, c56, d4_kissing, e8_kissing):
        for c in (paulus_r, c56, d4_kissing, e8_kissing):
            assert reconstruction_residual(coordinates_from_gram(c), c) < 1e-10


class TestEnergy:
    def test_antipodal_pair(self):
        p = CoordinateSet(points=np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]))
        assert energy(p, 1.0) == pytest.approx(0.5)

    def test_square(self):
        p = CoordinateSet(
            points=np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        )
        assert energy(p, 1.0) == pytest.approx(2 * math.sqrt(2) + 1)

    def test_cube_against_independent_sum(self, cube_config):
        p = coordinates_from_gram(cube_config)
        total = 0.0
        pts = p.points
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                total += 1.0 / np.linalg.norm(pts[i] - pts[j])
        assert energy(p, 1.0) == pytest.approx(total, rel=1e-12)

    def test_coincident_points_rejected(self):
        p = CoordinateSet(points=np.array([[1.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(StructuralError):
            energy(p, 2.0)


class TestTangentialForce:
    def test_antipodal_zero(self):
        p = CoordinateSet(points=np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]))
        for s in (1.0, 2.0, 7.5):
            assert tangential_force(p, s).max_tangential_norm < 1e-15

    def test_cube_balanced(self, cube_config):
        p = coordinates_from_gram(cube_config)
        assert tangential_force(p, 3.0).max_tangential_norm < 1e-10

    def test_perturbed_square(self):
        theta0 = math.pi / 2 + 0.1
        pts = np.array(
            [
                [1.0, 0.0],
                [math.cos(theta0), math.sin(theta0)],
                [-1.0, 0.0],
                [0.0, -1.0],
            ]
        )
        rep = tangential_force(CoordinateSet(points=pts), 2.0)
        assert rep.max_tangential_norm > 1e-3

    def test_orthogonality_of_report(self, c7p):
        p = coordinates_from_gram(c7p)
        rep = tangential_force(p, 2.0)
        radial = p.points / np.linalg.norm(p.points, axis=1, keepdims=True)
        assert np.abs((rep.tangential * radial).sum(axis=1)).max() < 1e-12

    def test_balanced_families_have_tiny_forces(self, cube_config, c7p, paulus_r, d4_kissing):
        for c in (cube_config, c7p, paulus_r, d4_kissing):
            assert check_balanced(c).balanced
            p = coordinates_from_gram(c)
            for s in (1.0, 2.0, 3.0, 12.0):
                rep = tangential_force(p, s)
                assert rep.max_tangential_norm < 1e-9 * c.size


class TestGradientCheck:
    def test_cube(self, cube_config):
        p = coordinates_from_gram(cube_config)
        assert gradient_check(p, 2.0) < 1e-5

    def test_random_points_s3(self):
        rng = np.random.default_rng(12)
        pts = rng.normal(size=(10, 4))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        assert gradient_check(CoordinateSet(points=pts), 3.0) < 1e-5

    def test_antipodal_degenerate(self):
        p = CoordinateSet(points=np.array([[0.0, 1.0], [0.0, -1.0]]))
        assert gradient_check(p, 1.0) < 1e-5

    def test_bundled_all_exponents(self, c7p, paulus_r):
        for c in (c7p, paulus_r):
            p = coordinates_from_gram(c)
            for s in (1.0, 2.0, 3.0):
                assert gradient_check(p, s) < 1e-5


class TestSaddleDemo:
    def test_theta_zero_is_cube(self, cube_config):
        p = coordinates_from_gram(cube_config)
        assert cube_facet_rotation(0.0, 1.0) == pytest.approx(energy(p, 1.0), rel=1e-12)

    def test_critical_at_zero(self):
        h = 1e-6
        slope = (cube_facet_rotation(h, 1.0) - cube_facet_rotation(0.0, 1.0)) / h
        assert abs(slope) < 1e-6

    def test_energy_drops_inside(self):
        e0 = cube_facet_rotation(0.0, 1.0)
        assert cube_facet_rotation(math.pi / 4, 1.0) < e0 - 1e-3
        samples = [cube_facet_rotation(math.pi / 4 * i / 32, 1.0) for i in range(1, 33)]
        assert min(samples) < e0 - 1e-3

    def test_domain(self):
        with pytest.raises(StructuralError):
            cube_facet_rotation(-0.1, 1.0)

    def test_domain_ends_at_a_quarter_turn(self):
        """A quarter turn maps the top facet onto itself: the cube again."""
        e0 = cube_facet_rotation(0.0, 1.0)
        assert cube_facet_rotation(math.pi / 2, 1.0) == pytest.approx(e0, rel=1e-12)
        with pytest.raises(StructuralError, match="theta must be in"):
            cube_facet_rotation(math.nextafter(math.pi / 2, 4), 1.0)


class TestFloatBalance:
    def test_poles_and_ring_balanced(self):
        assert check_balanced_float(poles_and_ring_coordinates(5)).balanced

    def test_pole_shells(self):
        p = poles_and_ring_coordinates(5)
        gram = p.points @ p.points.T
        ring = [abs(gram[0][j]) for j in range(2, 7)]
        assert max(ring) < 1e-15  # one equatorial shell at u = 0

    def test_perturbed_cube_unbalanced(self):
        pts = cube_coordinates(0.15)
        assert not check_balanced_float(pts).balanced

    def test_exact_float_agreement(self, cube_config, c7, c7p, paulus_r, c56, d4_kissing):
        for c in (cube_config, c7, c7p, paulus_r, c56, d4_kissing):
            exact = check_balanced(c).balanced
            approx = check_balanced_float(coordinates_from_gram(c), 1e-9).balanced
            assert exact == approx
        ps = perturbed_square()
        coords = coordinates_from_gram(ps)
        assert not check_balanced(ps).balanced
        assert not check_balanced_float(coords, 1e-9).balanced

    @pytest.mark.parametrize("drop", [False, True], ids=["whole", "two-dropped"])
    @pytest.mark.parametrize("name", sorted(CONSTRUCTED))
    def test_exact_float_agreement_on_constructed(self, name, drop):
        """Every configuration the constructors build, up to K12 kissing, and
        the same with two seeded points removed: the float check at tol 1e-9
        finds the violating points the exact check finds.  Clustering is
        unambiguous on every case, so an AmbiguousShellError fails the test."""
        c = CONSTRUCTED[name]()
        if drop:
            keep = sorted(random.Random(name).sample(range(c.size), c.size - 2))
            c = Configuration.from_gram(Scaled(c.gram.den, c.gram.scaled[np.ix_(keep, keep)]))
        exact = check_balanced(c)
        approx = check_balanced_float(coordinates_from_gram(c), 1e-9)
        assert approx.balanced == exact.balanced
        assert {v.point for v in approx.violations} == {v.point for v in exact.violations}

    def test_ambiguity_guard(self):
        # two shells 5*tol apart: between tol and 10*tol, must refuse
        tol = 1e-9
        base = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        eps = 5 * tol
        base[1] = [math.sin(eps), math.cos(eps)]
        with pytest.raises(AmbiguousShellError):
            check_balanced_float(CoordinateSet(points=base), tol)

    @pytest.mark.parametrize("call", [
        check_balanced_float,
        spectrum_float,
        lambda p, tol: design_strength_float(p, 6, tol),
        lambda p, tol: theorem1_check_float(p, 6, tol),
        lambda p, tol: build_report_float(p, 6, tol),
    ], ids=["balanced", "spectrum", "design", "theorem1", "report"])
    def test_coincident_points_rejected(self, call):
        # points 0 and 1 are one point; at tol 1e-3, so are a point and its
        # neighbour 1e-2 radians away
        p = CoordinateSet(points=[[1.0, 0.0], [3.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(StructuralError) as err:
            call(p, 1e-9)
        assert str(err.value) == "points 0 and 1 coincide (inner product >= 1 - 1e-09)"
        t = 1e-2
        p = CoordinateSet(points=[[-1.0, 0.0], [1.0, 0.0], [math.cos(t), math.sin(t)]])
        with pytest.raises(StructuralError) as err:
            call(p, 1e-3)
        assert str(err.value) == "points 1 and 2 coincide (inner product >= 1 - 0.001)"

    def test_coincidence_checked_once_per_tolerance(self, monkeypatch):
        calls = []
        real = numerics._first_pair
        monkeypatch.setattr(numerics, "_first_pair", lambda mask: calls.append(1) or real(mask))
        p = poles_and_ring_coordinates(5)
        build_report_float(p, 6, 1e-9)
        build_report_float(p, 6, 1e-9)
        assert len(calls) == 1
        check_balanced_float(p, 1e-6)
        assert len(calls) == 2


class TestFloatDesigns:
    def test_poles_and_ring_strength(self):
        p = poles_and_ring_coordinates(5)
        strength, moments = design_strength_float(p, 3)
        assert strength == 1
        assert abs(moments[1]) < 1e-9
        assert moments[2] == pytest.approx(0.25, abs=1e-9)

    def test_k4_octahedron(self):
        p = poles_and_ring_coordinates(4)
        strength, _ = design_strength_float(p, 4)
        assert strength == 3

    def test_theorem1_float(self):
        p = poles_and_ring_coordinates(5)
        per_point, strength, applies = theorem1_check_float(p, 3)
        assert strength == 1
        assert max(per_point) == 3
        assert not applies

    def test_spectrum_float(self):
        p = poles_and_ring_coordinates(5)
        spec = spectrum_float(p)
        want = sorted({-1.0, 0.0, math.cos(2 * math.pi / 5), math.cos(4 * math.pi / 5)})
        assert np.allclose(spec, want)

    def test_float_matches_exact_on_rational_configs(self, cube_config, c7p):
        for c, cap in ((cube_config, 4), (c7p, 3)):
            from balanced.designs import design_strength

            coords = coordinates_from_gram(c)
            s_float, _ = design_strength_float(coords, cap)
            assert s_float == design_strength(c, cap).strength


# every float function that reads a CoordinateSet, with the arguments it needs
FLOAT_FUNCTIONS = {
    "check_balanced_float": check_balanced_float,
    "spectrum_float": spectrum_float,
    "design_strength_float": lambda p: design_strength_float(p, 3),
    "theorem1_check_float": lambda p: theorem1_check_float(p, 3),
    "build_report_float": lambda p: build_report_float(p, 3),
    "energy": lambda p: energy(p, 1.0),
    "tangential_force": lambda p: tangential_force(p, 1.0),
}


@pytest.mark.parametrize("row, problem", [
    ([0.0, 0.0, 0.0], "is the zero vector"),
    ([math.nan, 0.0, 1.0], "is not finite"),
    ([math.inf, 0.0, 0.0], "is not finite"),
    ([0.0, -math.inf, 1.0], "is not finite"),
], ids=["zero", "nan", "inf", "-inf"])
@pytest.mark.parametrize("name", sorted(FLOAT_FUNCTIONS))
def test_float_functions_refuse_a_zero_or_non_finite_row(name, row, problem):
    """A point set with such a row is malformed: no verdict, spectrum or
    energy is given for it, in the library as at the CLI."""
    with pytest.raises(StructuralError, match=rf"^coords\[1\] {problem}$"):
        FLOAT_FUNCTIONS[name](CoordinateSet(points=[[1.0, 0.0, 0.0], row, [0.0, 1.0, 0.0]]))
