"""Corner and edge singularity exponents for incompressible flow on polyhedra.

The package computes the spectra of the wedge operator pencils attached to
the edges of a polyhedral domain, applies a catalogue of eigenvalue-free-strip
rules at the vertices, and mechanically evaluates weighted-space regularity
and small-data existence criteria, reporting admissible exponent ranges with
the binding constraint named.
"""

from .geometry import (BC_INDEX, BC_NAMES, BoundaryAssignment, DomainFileError,
                       Edge, MeshError, Polyhedron, VertexBound, VertexCone,
                       load_polyhedron, loads_polyhedron)
from .edge_pencil import (DihedronPencil, MuValue, Spectrum, WindowError,
                          assemble_pencil, class_bound, dd_nn_residual,
                          edge_exponent, mu_of_edge_point, mu_real_root,
                          solve_spectrum, MU_THRESHOLD_TWO_THIRDS)
from .vertex_pencil import (StripFinding, eigenfree_strip, known_exceptional,
                            strip_condition_holds)
from .spaces import (EmbeddingJudgment, Eps, SpaceDescriptor, embeds,
                     holder_embeds, sigma_exponents)
from .regularity import (DataFlags, DecisionRow, Interval, ProblemSpec,
                         RegularityQuery, RegularityReport, check,
                         decision_table, matching_rows, max_s, sharpness_flags,
                         vertex_findings)
from . import fixtures

__version__ = "0.1.0"

__all__ = [
    "BC_INDEX", "BC_NAMES", "BoundaryAssignment", "DomainFileError", "Edge",
    "MeshError", "Polyhedron", "VertexBound", "VertexCone", "load_polyhedron",
    "loads_polyhedron",
    "DihedronPencil", "MuValue", "Spectrum", "WindowError", "assemble_pencil",
    "class_bound", "dd_nn_residual", "edge_exponent", "mu_of_edge_point",
    "mu_real_root", "solve_spectrum",
    "MU_THRESHOLD_TWO_THIRDS",
    "StripFinding", "eigenfree_strip", "known_exceptional", "strip_condition_holds",
    "EmbeddingJudgment", "Eps", "SpaceDescriptor", "embeds", "holder_embeds",
    "sigma_exponents",
    "DataFlags", "DecisionRow", "Interval", "ProblemSpec", "RegularityQuery",
    "RegularityReport", "check", "decision_table", "matching_rows", "max_s",
    "sharpness_flags", "vertex_findings",
    "fixtures",
]
