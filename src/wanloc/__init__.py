"""Numerical construction of exponentially localized generalized Wannier
bases on finite gapped lattice models, via filter-smoothed projected
position operators."""

from .lattice import (SiteGrid, TightBindingModel, build_atomic,
                      build_disordered_insulator, build_haldane,
                      build_ssh_chain, make_grid, position_operators)
from .spectral import (DecayProfile, Projector, TiltSpec, commutator,
                       fermi_projector, hermitian_norm, kernel_decay_fit,
                       operator_norm, tilt_operator)
from .dichotomy import (BandDecomposition, GapDetectionFailure, GapStructure,
                        GeneralizedWannierBasis, band_projectors,
                        check_bounded_density, detect_uniform_gaps,
                        initial_basis, projected_spectrum, relabel_to_lattice,
                        strip_localization_check, wannierize_band)
from .xhat import (FilterSpec, GapCertificate, SqrtResolvent, XhatOperator,
                   XtildeOperator, build_xhat, build_xtilde, closeness_norm,
                   filter_fourier, gap_certificate, gap_midpoints, in_gap_set,
                   sqrt_resolvent, tilt_lipschitz)
from .diagnostics import (ChernReport, SchurReport, chern_marker,
                          chern_number_kspace, exp_moment, fit_exponential,
                          lemma_decay_check, lemma_prod_sum_check,
                          pointwise_bound_fit, s_moment, schur_row_sums,
                          sqrt_bound_survey, tilted_comm_survey)

__version__ = "0.1.0"
