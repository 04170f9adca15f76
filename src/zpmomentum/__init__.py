"""Zero-point electromagnetic momentum in bianisotropic media.

Computes the radial constants behind the second-order Born momentum of the
quantized field around a small sphere, the closed-form momentum and drift
predictions that follow, and the moving point-dipole mass shift, with
numerical cross-checks for every closed form.
"""

__version__ = "0.1.0"

from .units_materials import (CONSTANTS, FieldConfig, MaterialSpec,
                              PhysicalConstants, SphereSpec,
                              material_from_json, preset_path)
from .special_functions import ConvergenceError, sph_bessel_j
from .contour_frequency import (FreqIntegralResult, compare, freq_closed_form,
                                freq_oracle)
from .oscillatory_integrals import (DEFAULT_SCHEDULE, IntegralResult,
                                    eval_bruteforce, eval_trig,
                                    reconciled_constants, solve_D1_D3)
from .tensor_assembly import (ChiTensor, axial_vector, closed_form_p_rad, eta,
                              eta_consistency, regularized_K,
                              second_born_momentum)
from .point_dipole import (DipoleSpec, mass_shift, p_rad_spectral, p_rad_total,
                           spectral_integral_exact,
                           spectral_integral_quadrature,
                           spectral_integral_target, t0, t_matrix)
from .predictions import (Prediction, empty_vacuum_momentum, first_born,
                          magneto_chiral, me_sphere_velocity, moving_sphere,
                          replay)

__all__ = [
    "__version__",
    "CONSTANTS", "PhysicalConstants", "MaterialSpec", "SphereSpec",
    "FieldConfig", "material_from_json", "preset_path",
    "sph_bessel_j", "ConvergenceError",
    "FreqIntegralResult", "freq_closed_form", "freq_oracle", "compare",
    "DEFAULT_SCHEDULE", "IntegralResult", "eval_trig", "eval_bruteforce",
    "reconciled_constants", "solve_D1_D3",
    "ChiTensor", "axial_vector", "regularized_K", "eta", "eta_consistency",
    "second_born_momentum", "closed_form_p_rad",
    "DipoleSpec", "t0", "t_matrix", "p_rad_spectral", "p_rad_total",
    "spectral_integral_exact", "spectral_integral_quadrature",
    "spectral_integral_target", "mass_shift",
    "Prediction", "first_born", "me_sphere_velocity", "moving_sphere",
    "magneto_chiral", "empty_vacuum_momentum", "replay",
]
