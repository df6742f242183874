"""2D compass codes under uniform coherent Z rotation.

Builds compass codes from cell colorings, decodes X syndromes by exact
minimum-weight matching, computes the exact logical channel from an exact
integer count table (MacWilliams transform or kernel cosets, in NumPy),
provides closed-form channels for the repetition-based families, and
estimates coherence and infidelity thresholds from distance-curve crossings.
"""

__version__ = "0.1.0"

# benchmark results record this label and are compared only when labels match
KERNEL_BACKEND = "fallback"

from .codes import (CompassCode, Coloring, InvalidCodeError, PauliSupport,
                    ValidationReport, build_code, family_rotated_surface,
                    family_x_shor, family_z_shor, family_z_stacked,
                    load_coloring, random_coloring, save_coloring, validate)
from .decoder import (MatchingGraph, build_matching_graph, decode_mwpm,
                      syndrome_of, syndrome_to_mask)
from .exact import (ML, MIN_WEIGHT, ExactBackend, SyndromeDistribution,
                    TooLargeError, logical_channel, syndrome_distribution)
from .families import (closed_form_threshold, repetition_distribution,
                       repetition_exact, repetition_stirling, x_shor_channel,
                       z_shor_channel, z_stacked_channel)
from .ptm import (IDENTITY, LogicalPTM, PolarPTM, compose, diamond_avg,
                  from_polar, kappa, power, pure_rotation, r1, rm_exact,
                  to_polar)
from .experiments import (AnalyticFamilySource, CodeSource, EnsembleSource,
                          SampleEstimate, SweepRow, SweepTable,
                          ThresholdEstimate, ensemble_estimate, find_crossings,
                          interpolation_curve, read_csv, sample_distribution,
                          sweep, write_csv)
