"""Desk-scale simulator for LoS MIMO links crossing a drifting cloud layer.

The package models a thin cloud layer as a field of overlapping spherical
cloudlets, propagates line-of-sight rays through it to accumulate excess
phase, compares the Monte Carlo phase statistics against a closed-form
Laplace/Gaussian model, and evaluates the impact on 2x2 LoS MIMO capacity
and sub-channel correlation.
"""
# Set before the submodules load: experiment records it in manifests.
__version__ = "0.1.0"

from .errors import (ConfigurationError, DegenerateDistributionError,
                     DomainError, GeometryError, ModelValidityError,
                     ModelValidityWarning, NumericError, ResourceLimitError)
from .cloudfield import (CloudConfig, CloudField, cloudlet_radius,
                         generate_field, load_field, save_field, step_field)
from .raygeometry import (LinkGeometry, Ray, Segment2D, broadside_link,
                          build_rays, chord_lengths, map_rays_to_field)
from .phasephysics import (DEFAULT_ICE_SPHERE_VOLUME, PathPhase,
                           PhysicsParams, SPEED_OF_LIGHT,
                           mixture_coefficient, path_phase)
from .analyticmodel import (AnalyticParams, PhaseDistribution,
                            chord_moments, closed_form_stationary,
                            count_weight, drift_length_variance,
                            drift_phase_variance, gaussian_pdf, laplace_pdf,
                            permittivity_moments, phase_moments_for_count,
                            sample_total_phase, stationary_distribution,
                            stationary_report, time_varying_distribution,
                            total_phase_pdf)
from .mimochannel import (ChannelMatrix, MimoScenario, capacity_bits,
                          los_channel, pair_distances, rayleigh_distance)
from .experiment import (CapacityCdf, DistanceSweepResult, ExperimentSpec,
                         MacCountResult, PhaseCompareResult, build_manifest,
                         outage_capacity, run_capacity_cdf,
                         run_compensated_sweep, run_correlation_sweep,
                         run_mac_count, run_phase_compare, run_report,
                         results_csv_text, spec_from_flat, spec_to_flat)

__all__ = [
    "ConfigurationError", "DegenerateDistributionError",
    "DomainError", "GeometryError", "ModelValidityError",
    "ModelValidityWarning", "NumericError", "ResourceLimitError",
    "CloudConfig", "CloudField", "cloudlet_radius",
    "generate_field", "load_field", "save_field", "step_field",
    "LinkGeometry", "Ray", "Segment2D", "broadside_link", "build_rays",
    "chord_lengths", "map_rays_to_field",
    "DEFAULT_ICE_SPHERE_VOLUME", "PathPhase", "PhysicsParams",
    "SPEED_OF_LIGHT", "mixture_coefficient", "path_phase",
    "AnalyticParams", "PhaseDistribution", "chord_moments",
    "closed_form_stationary", "count_weight", "drift_length_variance",
    "drift_phase_variance", "gaussian_pdf", "laplace_pdf",
    "permittivity_moments", "phase_moments_for_count", "sample_total_phase",
    "stationary_distribution", "stationary_report",
    "time_varying_distribution", "total_phase_pdf",
    "ChannelMatrix", "MimoScenario", "capacity_bits", "los_channel",
    "pair_distances", "rayleigh_distance",
    "CapacityCdf", "DistanceSweepResult", "ExperimentSpec", "MacCountResult",
    "PhaseCompareResult", "build_manifest", "outage_capacity",
    "run_capacity_cdf", "run_compensated_sweep", "run_correlation_sweep",
    "run_mac_count", "run_phase_compare", "run_report", "results_csv_text",
    "spec_from_flat", "spec_to_flat",
    "__version__",
]
