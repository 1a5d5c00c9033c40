"""Hierarchical colorings of the dyadic half-plane tiling: sequences,
geometry, invariant-measure machinery, harmonic checks, leafwise diffusion,
and rendering."""

from .errors import (
    BudgetError, CapError, DegeneracyError, DomainError, InconclusiveError,
    ModelError, QuadratureError, SizeError, TilingError, UnsupportedSchemeError,
)
from .exact import exact, pow2
from .geometry import (
    AffineMap, OccurrenceClass, Patch, TileAddress, occurrence_classes,
    patch_partition_check, tile_containing_point,
)
from .harmonic import (
    BoundaryAtoms, TransportCheck, boundary_recover, cylinder_mass_exact,
    herglotz_evaluate, map_rect, transport_scaling_check,
)
from .measures import (
    PAPER, TRIANGLE, ContractionReport, ErgodicCount, FrequencyResult,
    LevelContraction, MassResiduals, TransitionMatrix, birkhoff_factor,
    compose_range, contraction_certificate, ergodic_measure_count,
    hull_contains, hull_membership, mass_conservation_check,
    measure_frequencies, nested_simplex, projective_diameter,
    projective_distance, transition_matrix,
)
from .diffusion import (
    DiffusionConfig, LeafState, PathResult, expected_block_fractions,
    garnett_compare, height_law_test, log_height_samples, log_height_stats,
    run_paths, simulate_path,
)
from .render import render_svg
from .symbolic import (
    AtlasWord, SubstitutionModel, ToeplitzModel, atlas_words,
    block_type_counts, window, word_to_str,
)
from .verification import run_all as run_verification

__version__ = "0.1.0"

__all__ = [
    "BudgetError", "CapError", "DegeneracyError", "DomainError",
    "InconclusiveError", "ModelError", "QuadratureError", "SizeError",
    "TilingError", "UnsupportedSchemeError", "exact", "pow2",
    "AffineMap", "OccurrenceClass", "Patch", "TileAddress",
    "occurrence_classes", "patch_partition_check", "tile_containing_point",
    "BoundaryAtoms", "TransportCheck", "boundary_recover",
    "cylinder_mass_exact", "herglotz_evaluate", "map_rect",
    "transport_scaling_check", "PAPER", "TRIANGLE",
    "ContractionReport", "ErgodicCount", "FrequencyResult", "LevelContraction",
    "MassResiduals", "TransitionMatrix", "birkhoff_factor", "compose_range",
    "contraction_certificate", "ergodic_measure_count",
    "hull_contains", "hull_membership", "mass_conservation_check",
    "measure_frequencies", "nested_simplex", "projective_diameter",
    "projective_distance", "transition_matrix", "DiffusionConfig", "LeafState",
    "PathResult", "expected_block_fractions",
    "garnett_compare", "height_law_test", "log_height_samples",
    "log_height_stats", "run_paths", "simulate_path", "render_svg",
    "AtlasWord", "SubstitutionModel", "ToeplitzModel", "atlas_words",
    "block_type_counts", "window", "word_to_str", "run_verification",
]
