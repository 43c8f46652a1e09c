"""edgefol: foliations of cuspidal-edge surfaces.

Classify and render the lines of curvature, asymptotic curves and
characteristic curves of a cuspidal edge given by its normal-form jet,
with closed-form invariants cross-checked against independent numerical
oracles.
"""

from .foliations import FoliationKind, build_geometric_bde, classify_edge_foliation
from .jets import EdgeJet, sample_generic_jet

__version__ = "0.1.0"

__all__ = [
    "EdgeJet",
    "FoliationKind",
    "build_geometric_bde",
    "classify_edge_foliation",
    "sample_generic_jet",
]
