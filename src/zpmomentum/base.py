"""What the layers share without numpy: the record base, ConvergenceError,
IntegralResult, the one Levi-Civita tensor and the 3-tuple arithmetic of the
closed-form path.  Contractions sum from +0.0 in index order, so a zero is
+0.0 and a symmetric matrix's transposed terms cancel exactly."""

import math

__all__ = ["ConvergenceError", "IntegralResult"]


class ConvergenceError(ArithmeticError):
    """A numerical evaluation did not reach its required accuracy."""


class _Record:
    """Base of the package's frozen records.

    A subclass's annotated class attributes are its fields, in order, and a
    value assigned to one is its default.  Fields are given by position or
    keyword; __post_init__ then checks them, and may store a normalised
    value with object.__setattr__.  Records of one class are equal, and hash
    alike, when their fields are (the hash skips a dict field), and a field
    cannot be assigned after construction.
    """

    def __init__(self, *args, **kwargs) -> None:
        cls = type(self)
        names = cls.__annotations__
        given = dict(zip(names, args))
        if len(args) > len(names) or given.keys() & kwargs.keys():
            raise TypeError(f"{cls.__name__}: too many or repeated fields")
        values = {name: getattr(cls, name) for name in names
                  if hasattr(cls, name)}
        values.update(given, **kwargs)
        wrong = values.keys() ^ names.keys()
        if wrong:
            raise TypeError(f"{cls.__name__}: missing or unknown fields "
                            f"{sorted(wrong)}")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _fields(self) -> tuple:
        return tuple(getattr(self, n) for n in type(self).__annotations__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(tuple(f for f in self._fields() if type(f) is not dict))

    def __repr__(self) -> str:
        return f"{type(self).__name__}{self._fields()!r}"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is frozen: {name!r} "
                             "cannot be set or deleted")

    __delattr__ = __setattr__


class IntegralResult(_Record):
    """Outcome of one checked route: a radial constant or a frequency integral.

    value           the route's number (complex for a frequency integral)
    error_estimate  accuracy estimate, >= 0: for a frequency integral the
                    distance from its closed form; for a regulated constant
                    the drop-one difference, which measures a 3-point
                    extrapolation, not the reported 4-point one, and on the
                    default schedule overstates the true error 1100-1600x
    method          'trig_reduction' or 'regulated_quadrature'
    """

    value: float
    error_estimate: float
    method: str

    def __post_init__(self) -> None:
        if self.error_estimate < 0:
            raise ValueError("error_estimate must be >= 0")
        if self.method not in ("trig_reduction", "regulated_quadrature"):
            raise ValueError(f"unknown method {self.method!r}")


# The rank-3 alternating tensor eps_ijk; np.einsum reads it as it is.
_EPS3 = (((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.0, -1.0, 0.0)),
         ((0.0, 0.0, -1.0), (0.0, 0.0, 0.0), (1.0, 0.0, 0.0)),
         ((0.0, 1.0, 0.0), (-1.0, 0.0, 0.0), (0.0, 0.0, 0.0)))


def _dot(a, b) -> float:
    """sum_k a_k b_k, accumulated from +0.0 in index order."""
    total = 0.0
    for x, y in zip(a, b):
        total += x * y
    return total


def _eps_dot(v) -> tuple:
    """The matrix eps_ijk v_k."""
    return tuple(tuple(_dot(row, v) for row in plane) for plane in _EPS3)


def _norm(v) -> float:
    """|v| as the square root of the plain sum of squares."""
    return math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])


def _finite(values: tuple, message: str) -> tuple:
    """values, or FloatingPointError(message) if one is inf or nan."""
    if not all(map(math.isfinite, values)):
        raise FloatingPointError(message)
    return values
