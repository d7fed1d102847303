"""Matrix measures on [-2,2] with point masses: orthonormal matrix
polynomials, Szego spectral factorization, Blaschke-Potapov products,
ratio asymptotics, and sum-rule diagnostics."""

__version__ = "0.1.0"

from .tolerances import DEFAULT, Tolerances
from .linalg import BoundarySampling, midpoint_nodes
from .measure import (
    ArcsineDensity,
    ConjugatedDiagonalDensity,
    MatrixMeasure,
    PolySemicircleDensity,
    SemicircleDensity,
    TableDensity,
    disk_coordinate,
    make_measure,
    szego_weight,
)
from .polynomials import BlockJacobi, PolySequence, stieltjes, to_type
from .outer import OuterFunction, det_szego_check, spectral_factorize
from .blaschke import BlaschkePotapovProduct, construct_product, residue_kernel
from .limits import LimitFunction, asymptotics_report, build_pipeline
from .sumrule import SumRuleLedger, check_sum_rule
from .specio import build_measure, parse_measure_spec, serialize_measure_spec

__all__ = [
    "ArcsineDensity",
    "BlaschkePotapovProduct",
    "BlockJacobi",
    "BoundarySampling",
    "ConjugatedDiagonalDensity",
    "DEFAULT",
    "LimitFunction",
    "MatrixMeasure",
    "OuterFunction",
    "PolySemicircleDensity",
    "PolySequence",
    "SemicircleDensity",
    "SumRuleLedger",
    "TableDensity",
    "Tolerances",
    "asymptotics_report",
    "build_measure",
    "build_pipeline",
    "check_sum_rule",
    "construct_product",
    "det_szego_check",
    "disk_coordinate",
    "make_measure",
    "midpoint_nodes",
    "parse_measure_spec",
    "residue_kernel",
    "serialize_measure_spec",
    "spectral_factorize",
    "stieltjes",
    "szego_weight",
    "to_type",
]
