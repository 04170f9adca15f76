"""Zero-point electromagnetic momentum in bianisotropic media.

Computes the radial constants behind the second-order Born momentum of the
quantized field around a small sphere, the closed-form momentum and drift
predictions that follow, and the moving point-dipole mass shift, with
numerical cross-checks for every closed form.

The package re-exports the public names of its seven layer modules; each
module's ``__all__`` is the one declaration of its surface.
"""

__version__ = "0.1.0"

from . import (units_materials, special_functions, contour_frequency,
               oscillatory_integrals, tensor_assembly, point_dipole,
               predictions)
from .units_materials import *  # noqa: F401,F403
from .special_functions import *  # noqa: F401,F403
from .contour_frequency import *  # noqa: F401,F403
from .oscillatory_integrals import *  # noqa: F401,F403
from .tensor_assembly import *  # noqa: F401,F403
from .point_dipole import *  # noqa: F401,F403
from .predictions import *  # noqa: F401,F403

__all__ = ["__version__"] + [
    name for module in (units_materials, special_functions, contour_frequency,
                        oscillatory_integrals, tensor_assembly, point_dipole,
                        predictions)
    for name in module.__all__]
