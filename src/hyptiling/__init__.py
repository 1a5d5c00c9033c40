"""Hierarchical colorings of the dyadic half-plane tiling: sequences,
geometry, invariant-measure machinery, harmonic checks, leafwise diffusion,
and rendering.  The first name read from the package beyond the errors and
`exact` imports every layer (PEP 562); `import hyptiling` imports none."""

from .errors import (
    BudgetError, CapError, DegeneracyError, DomainError, InconclusiveError,
    ModelError, QuadratureError, SizeError, TilingError, UnsupportedSchemeError,
)
# Bound here, after the submodule, so that `hyptiling.exact` is the function
# in every import order.
from .exact import exact, pow2

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


def _layers() -> dict:
    """Import every layer; the names of `__all__` they define."""
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
    return locals()


def __getattr__(name):
    """A name of `__all__` or a layer module: imports every layer (which
    binds the modules here) and binds the names, on first use."""
    globals().update(_layers())
    if name not in globals():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals()[name]
