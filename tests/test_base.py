"""The numpy-free shared pieces: the record base and the plain norm."""

import copy
import importlib
import math

import zpmomentum
from zpmomentum.base import IntegralResult, _norm, _Record


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _one_of_each():
    """One instance of every record class of the package, built through the
    public constructors so that each holds the field types callers see."""
    from zpmomentum.point_dipole import DipoleSpec
    from zpmomentum.predictions import moving_sphere
    from zpmomentum.tensor_assembly import (ChiTensor, eta_consistency,
                                            second_born_momentum)
    from zpmomentum.units_materials import (CONSTANTS, FieldConfig,
                                            MaterialSpec, SphereSpec)
    sphere = SphereSpec(2e-6, MaterialSpec(epsilon=1.4, mass_density=2500.0))
    chi = ChiTensor.magneto_electric((1.0, 2.0, 0.5), (0.0, 1.0, -1.0), 1e-4)
    records = [CONSTANTS, sphere.material, sphere,
               FieldConfig(e0=[1, 0, 0], b0=(0.0, 1.0, 0.0)), chi,
               second_born_momentum(sphere, chi), eta_consistency(),
               IntegralResult(1.5, 0.0, "trig_reduction"),
               DipoleSpec(alpha=2e-6, alpha0=1e-6, gamma=1e-3),
               moving_sphere(sphere, (3.0, 0.0, -1.0))]
    return {type(r): r for r in records}


def test_every_record_equals_a_copy_and_hashes():
    # a record built again from copies of its fields is equal to it and
    # hashes alike; array fields would make == ambiguous and hash() fail
    for layer in zpmomentum._LAYERS:
        importlib.import_module(f"zpmomentum.{layer}")
    records = _one_of_each()
    assert set(records) == set(_subclasses(_Record))
    for cls, record in records.items():
        again = cls(*copy.deepcopy(record._fields()))
        assert again == record and not again != record, cls.__name__
        assert hash(again) == hash(record), cls.__name__
        assert len({record, again}) == 1


def test_norm_is_the_plain_sum_of_squares():
    assert _norm((3.0, 4.0, 12.0)) == 13.0
    v = (0.1, 0.7, -0.3)
    assert _norm(v) == math.sqrt(0.1 * 0.1 + 0.7 * 0.7 + 0.3 * 0.3)
    assert _norm((1e200, 0.0, 0.0)) == math.inf  # the square overflows

