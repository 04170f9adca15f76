"""What the layers share without numpy: the record base, the SI constants,
ConvergenceError, IntegralResult, the one Richardson extrapolation, the one
Levi-Civita tensor, the 3-vector and slow-velocity checks and the 3-tuple
arithmetic of the closed-form and tensor paths.  Sums run from +0.0 in index
order, so a zero is +0.0 and a symmetric matrix's transposed terms cancel
exactly."""

import math

__all__ = ["ConvergenceError", "IntegralResult", "PhysicalConstants",
           "CONSTANTS"]


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


class PhysicalConstants(_Record):
    """Fundamental constants in SI units (CODATA 2018 values)."""

    hbar_si: float = 1.054571817e-34        # J s
    c0_si: float = 2.99792458e8             # m/s
    electron_mass_si: float = 9.1093837015e-31  # kg
    ev_in_joule: float = 1.602176634e-19    # J per eV
    bohr_radius_si: float = 5.29177210903e-11  # m


CONSTANTS = PhysicalConstants()


class IntegralResult(_Record):
    """Outcome of one checked route: a radial constant or a frequency integral.

    value           the route's number (complex for a frequency integral)
    error_estimate  accuracy estimate, >= 0: 0 for a trig reduction, which
                    is exact; for a frequency integral the distance from its
                    closed form; for a regulated constant the drop-one
                    difference, which measures a 3-point extrapolation, not
                    the reported 4-point one, and on the default schedule
                    overstates the true error 1100-1600x
    method          'trig_reduction' or 'regulated_quadrature'
    """

    value: float
    error_estimate: float
    method: str

    def __post_init__(self) -> None:
        if not self.error_estimate >= 0:  # nan too
            raise ValueError("error_estimate must be >= 0")
        if self.method not in ("trig_reduction", "regulated_quadrature"):
            raise ValueError(f"unknown method {self.method!r}")


def _richardson(schedule, values, powers) -> float | complex:
    """Value at regulator 0 of c0 + sum_k c_k eps^powers[k] fitted exactly
    through (schedule, values), one power per schedule point: Gaussian
    elimination with partial pivoting, on floats or complex numbers."""
    rows = [[e ** p for p in powers[:len(schedule)]] + [v]
            for e, v in zip(schedule, values)]
    n = len(rows)
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(rows[r][col]))
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for row in rows[col + 1:]:
            factor = row[col] / rows[col][col]
            for k in range(col, n + 1):
                row[k] -= factor * rows[col][k]
    coeffs = [0.0] * n
    for r in reversed(range(n)):
        tail = sum(rows[r][k] * coeffs[k] for k in range(r + 1, n))
        coeffs[r] = (rows[r][n] - tail) / rows[r][r]
    return coeffs[0]


# The rank-3 alternating tensor eps_ijk.
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


def _as_vec3(value, name: str) -> tuple:
    try:
        vec = tuple(map(float, value))
    except TypeError:  # not a sequence, or an entry that is not a number
        vec = ()
    if len(vec) != 3:
        raise ValueError(f"{name} must be a 3-vector, got {value!r}")
    if not all(map(math.isfinite, vec)):
        raise ValueError(f"{name} must be finite")
    return vec


def _slow_velocity(v) -> tuple:
    """v (m/s) as a 3-tuple of finite floats, refused at |v|/c0 >= 0.01:
    every moving-body formula in the package is first order in v/c0."""
    v_si = _as_vec3(v, "v")
    if _norm(v_si) / CONSTANTS.c0_si >= 0.01:
        raise ValueError("|v|/c0 must stay below 0.01")
    return v_si
