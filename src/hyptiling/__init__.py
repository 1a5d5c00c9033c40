"""Hierarchical colorings of the dyadic half-plane tiling: sequences,
geometry, invariant-measure machinery, harmonic checks, leafwise diffusion,
and rendering.  The first name read from the package beyond the errors and
`exact` imports every layer (PEP 562); `import hyptiling` imports none."""

__version__ = "0.1.0"

#: Each module and the public names it defines, in `__all__` order; "name as
#: alias" makes the module's `name` public as `alias`, as an import does.
_PUBLIC = {
    "errors": ("BudgetError", "CapError", "DegeneracyError", "DomainError",
               "InconclusiveError", "ModelError", "QuadratureError",
               "SizeError", "TilingError", "UnsupportedSchemeError"),
    "exact": ("exact", "pow2"),
    "geometry": ("AffineMap", "OccurrenceClass", "Patch", "TileAddress",
                 "occurrence_classes", "patch_partition_check",
                 "tile_containing_point"),
    "harmonic": ("BoundaryAtoms", "TransportCheck", "boundary_recover",
                 "cylinder_mass_exact", "herglotz_evaluate", "map_rect",
                 "transport_scaling_check"),
    "measures": ("PAPER", "TRIANGLE", "ContractionReport", "ErgodicCount",
                 "FrequencyResult", "LevelContraction", "MassResiduals",
                 "TransitionMatrix", "birkhoff_factor", "compose_range",
                 "contraction_certificate", "ergodic_measure_count",
                 "hull_contains", "hull_membership", "mass_conservation_check",
                 "measure_frequencies", "nested_simplex",
                 "projective_diameter", "projective_distance",
                 "transition_matrix"),
    "diffusion": ("DiffusionConfig", "LeafState", "PathResult",
                  "expected_block_fractions", "garnett_compare",
                  "height_law_test", "log_height_samples", "log_height_stats",
                  "run_paths", "simulate_path"),
    "render": ("render_svg",),
    "symbolic": ("AtlasWord", "SubstitutionModel", "ToeplitzModel",
                 "atlas_words", "block_type_counts", "window", "word_to_str"),
    "verification": ("run_all as run_verification",),
}
__all__ = [entry.split()[-1] for names in _PUBLIC.values() for entry in names]


def _bind(*modules):
    """Import the modules and bind their public names here.  Bound after the
    import of its submodule, `hyptiling.exact` is the function in every
    import order."""
    for module in modules:
        # The import statement's hook, which `-X importtime` reports; the
        # fromlist makes it return the submodule rather than the package.
        layer = __import__(f"{__name__}.{module}", fromlist=["*"])
        for entry in _PUBLIC[module]:
            globals()[entry.split()[-1]] = getattr(layer, entry.split()[0])


_bind("errors", "exact")


def __getattr__(name):
    """A name of `__all__` or a layer module: imports every layer (which
    binds the modules here) and binds the names, on first use."""
    _bind(*_PUBLIC)
    if name not in globals():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals()[name]
