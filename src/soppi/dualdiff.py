"""Minimal forward-mode automatic differentiation with dual numbers.

Used to obtain exact Jacobians of the discrete dynamics without hand-deriving
them.  A :class:`Dual` carries a value and a derivative vector (one slot per
independent input), so a single sweep through the dynamics yields one row of
the tangent at a time.  The dynamics modules call :func:`sin` / :func:`cos` /
:func:`clip` from here so the same step code runs on plain floats, numpy
batches, and duals.
"""

from __future__ import annotations

import numpy as np


class Dual:
    """A dual number ``value + deriv·d`` with an n-vector derivative part."""

    __slots__ = ("value", "deriv")
    __array_priority__ = 100  # win binary ops against numpy scalars

    def __init__(self, value, deriv):
        self.value = float(value)
        self.deriv = np.asarray(deriv, dtype=float)

    @staticmethod
    def seed(values, index, n):
        """Dual for input ``values[index]`` out of ``n`` independent inputs."""
        d = np.zeros(n)
        d[index] = 1.0
        return Dual(values[index], d)

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.value + other.value, self.deriv + other.deriv)
        return Dual(self.value + other, self.deriv)

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.value, -self.deriv)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Dual) else -other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(self.value * other.value,
                        self.value * other.deriv + other.value * self.deriv)
        return Dual(self.value * other, self.deriv * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            v = self.value / other.value
            return Dual(v, (self.deriv - v * other.deriv) / other.value)
        return Dual(self.value / other, self.deriv / other)

    def __rtruediv__(self, other):
        v = other / self.value
        return Dual(v, -v / self.value * self.deriv)

    def __pow__(self, p):
        v = self.value ** p
        return Dual(v, p * self.value ** (p - 1) * self.deriv)

    def __repr__(self):
        return f"Dual({self.value!r}, {self.deriv!r})"


def sin(x):
    if isinstance(x, Dual):
        return Dual(np.sin(x.value), np.cos(x.value) * x.deriv)
    return np.sin(x)


def cos(x):
    if isinstance(x, Dual):
        return Dual(np.cos(x.value), -np.sin(x.value) * x.deriv)
    return np.cos(x)


def sign(x):
    # Derivative of sign is zero almost everywhere; the kink at 0 is ignored.
    if isinstance(x, Dual):
        return Dual(np.sign(x.value), np.zeros_like(x.deriv))
    return np.sign(x)


def clip(x, lo, hi):
    """Saturating clamp; derivative is zero in the saturated region."""
    if isinstance(x, Dual):
        if x.value < lo:
            return Dual(lo, np.zeros_like(x.deriv))
        if x.value > hi:
            return Dual(hi, np.zeros_like(x.deriv))
        return x
    return np.clip(x, lo, hi)
