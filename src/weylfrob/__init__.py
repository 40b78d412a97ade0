"""Exact construction of Frobenius manifolds on extended affine Weyl orbit
spaces of type B/C, with full symbolic verification.

Everything is computed over the rationals: sparse Laurent polynomials on
weighted charts, exact linear solves, unit-pivot determinants.  The main
entry point is :func:`weylfrob.frobenius.build_structure`; the CLI lives in
:mod:`weylfrob.cli`.
"""

from .exactalg import (Chart, ChartMismatch, ExponentOverflow, NonExactDivision,
                       NonUnitLaurentSubstitution, Poly, Rational, VarSpec, solve_linear)
from .frobenius import (CheckFailed, EulerField, FrobeniusStructure, Inconsistent,
                        NoCyclicDirection, OracleMismatch, PotentialF, ShapeMismatch,
                        SymmetryViolation, build_structure, oracle_check,
                        verify_euler_unity, verify_intersection, verify_wdvv)
from .metrics import BilinearForm, ChristoffelContra, FlatPencil, build_pencil
from .rootdata import ExtendedMetric, InvalidSpec, RootSystemSpec, build, dual_index

__all__ = [
    "Chart", "ChartMismatch", "ExponentOverflow", "NonExactDivision",
    "NonUnitLaurentSubstitution", "Poly", "Rational", "VarSpec",
    "solve_linear", "ExtendedMetric", "InvalidSpec",
    "RootSystemSpec", "build", "dual_index", "BilinearForm", "ChristoffelContra",
    "FlatPencil", "build_pencil", "EulerField", "FrobeniusStructure", "PotentialF",
    "build_structure", "oracle_check", "verify_euler_unity", "verify_intersection",
    "verify_wdvv", "CheckFailed", "Inconsistent", "NoCyclicDirection", "OracleMismatch",
    "ShapeMismatch", "SymmetryViolation",
]
