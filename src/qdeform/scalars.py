"""Exact scalar arithmetic for q-deformed algebra.

The coefficient ring is Laurent polynomials in s = q^(1/2) with Gaussian
rational coefficients.  Keeping half-integer powers of q exact lets rewrite
rules such as T+ x -> q x T+ + q^(-1/2) y live in one ring, and conjugation
(q real, q >= 1) reduces to conjugating coefficients termwise.

Both exact types run on plain integers:

- a GaussRat is (a + b*i)/d with integers a, b and d > 0;
- a QExact is {s-power: (re, im)}, Gaussian-integer numerators over one
  positive integer denominator shared by all terms.

Both are kept canonical, so equal values store equal integers and `==`,
`hash` and `freeze` are value-based: no zero terms, the gcd of the
denominator and every numerator component is 1, and zero has denominator 1.
Arithmetic builds its results through private constructors that do not
re-coerce, and takes a gcd only when the denominator is not 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isfinite, isqrt, lcm


class QExactError(ValueError):
    """Raised for operations that leave the exact scalar ring."""


# ---------------------------------------------------------------------------
# half-integers


@dataclass(frozen=True, order=True)
class HalfInt:
    """An element of (1/2)Z, stored as twice its value."""

    twice: int

    @staticmethod
    def coerce(value) -> "HalfInt":
        if isinstance(value, HalfInt):
            return value
        if isinstance(value, int):
            return HalfInt(2 * value)
        if isinstance(value, Fraction):
            doubled = 2 * value
            if doubled.denominator != 1:
                raise QExactError(f"{value} is not a half-integer")
            return HalfInt(int(doubled))
        if isinstance(value, float):
            doubled = 2.0 * value
            if not doubled.is_integer():
                raise QExactError(f"{value} is not a half-integer")
            return HalfInt(int(doubled))
        raise TypeError(f"cannot interpret {value!r} as a half-integer")

    def is_integer(self) -> bool:
        return self.twice % 2 == 0

    def as_int(self) -> int:
        if not self.is_integer():
            raise QExactError(f"{self} is not an integer")
        return self.twice // 2

    def __add__(self, other):
        return HalfInt(self.twice + HalfInt.coerce(other).twice)

    __radd__ = __add__

    def __sub__(self, other):
        return HalfInt(self.twice - HalfInt.coerce(other).twice)

    def __rsub__(self, other):
        return HalfInt(HalfInt.coerce(other).twice - self.twice)

    def __neg__(self):
        return HalfInt(-self.twice)

    def __mul__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("HalfInt can only be scaled by an integer")
        return HalfInt(self.twice * k)

    __rmul__ = __mul__

    def __float__(self) -> float:
        return self.twice / 2.0

    def __str__(self) -> str:
        if self.is_integer():
            return str(self.twice // 2)
        return f"{self.twice}/2"


def halfint_range_desc(j: HalfInt) -> list[HalfInt]:
    """Magnetic labels j, j-1, ..., -j in descending order."""
    if j.twice < 0:
        raise QExactError("spin label must be nonnegative")
    return [HalfInt(j.twice - 2 * k) for k in range(j.twice + 1)]


# ---------------------------------------------------------------------------
# Gaussian rationals

_new = object.__new__


def _gauss(a: int, b: int, d: int) -> "GaussRat":
    """GaussRat (a + b*i)/d for d > 0, reduced to canonical form."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    z = _new(GaussRat)
    _gr_a(z, a)
    _gr_b(z, b)
    _gr_d(z, d)
    return z


class GaussRat:
    """Gaussian rational re + im*i, stored as (a + b*i)/d in lowest terms.

    Built from two ints or Fractions; `re` and `im` read back as reduced
    Fractions.  Instances are immutable and hashable.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re, im):
        # ints and Fractions carry reduced numerator/denominator already
        if not isinstance(re, (int, Fraction)):
            re = Fraction(re)
        if not isinstance(im, (int, Fraction)):
            im = Fraction(im)
        d = lcm(re.denominator, im.denominator)
        # over the lcm of two reduced denominators the triple is reduced
        _gr_a(self, re.numerator * (d // re.denominator))
        _gr_b(self, im.numerator * (d // im.denominator))
        _gr_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("GaussRat is immutable")

    def __delattr__(self, name):
        raise AttributeError("GaussRat is immutable")

    def __reduce__(self):
        return GaussRat, (self.re, self.im)

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    @staticmethod
    def coerce(value) -> "GaussRat":
        if isinstance(value, GaussRat):
            return value
        if isinstance(value, int):
            return _gauss(int(value), 0, 1)
        if isinstance(value, Fraction):
            return _gauss(value.numerator, 0, value.denominator)
        if isinstance(value, complex):
            raise TypeError("GaussRat is exact; build from int/Fraction instead")
        raise TypeError(f"cannot interpret {value!r} as a Gaussian rational")

    def __add__(self, other):
        if type(other) is not GaussRat:
            other = GaussRat.coerce(other)
        d, e = self._d, other._d
        if d == e:
            return _gauss(self._a + other._a, self._b + other._b, d)
        return _gauss(self._a * e + other._a * d, self._b * e + other._b * d, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -GaussRat.coerce(other)

    def __rsub__(self, other):
        return GaussRat.coerce(other) - self

    def __neg__(self):
        return _gauss(-self._a, -self._b, self._d)

    def __mul__(self, other):
        if type(other) is not GaussRat:
            other = GaussRat.coerce(other)
        a, b, c, e = self._a, self._b, other._a, other._b
        return _gauss(a * c - b * e, a * e + b * c, self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not GaussRat:
            other = GaussRat.coerce(other)
        a, b, c, e = self._a, self._b, other._a, other._b
        norm = c * c + e * e
        if norm == 0:
            raise ZeroDivisionError("division by zero GaussRat")
        f = other._d
        return _gauss((a * c + b * e) * f, (b * c - a * e) * f, self._d * norm)

    def __rtruediv__(self, other):
        return GaussRat.coerce(other) / self

    def __eq__(self, other):
        if type(other) is not GaussRat:
            return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self):
        return hash((self._a, self._b, self._d))

    def __repr__(self):
        return f"GaussRat(re={self.re!r}, im={self.im!r})"

    def conj(self) -> "GaussRat":
        return _gauss(self._a, -self._b, self._d)

    def is_zero(self) -> bool:
        return not (self._a or self._b)

    def is_one(self) -> bool:
        return self._a == 1 and self._b == 0 and self._d == 1

    def to_complex(self) -> complex:
        # int / int is correctly rounded, so this equals float(self.re) etc.
        return complex(self._a / self._d) + 1j * (self._b / self._d)

    def sqrt_exact(self):
        """Exact square root for nonnegative rational squares, else None."""
        if self._b != 0 or self._a < 0:
            return None
        num, den = self._a, self._d
        rn, rd = isqrt(num), isqrt(den)
        if rn * rn != num or rd * rd != den:
            return None
        return _gauss(rn, 0, rd)


# the slot setters bypass the __setattr__ that keeps instances immutable
_gr_a, _gr_b, _gr_d = GaussRat._a.__set__, GaussRat._b.__set__, GaussRat._d.__set__

GR_ZERO = GaussRat(0, 0)
GR_ONE = GaussRat(1, 0)
GR_I = GaussRat(0, 1)


# ---------------------------------------------------------------------------
# Laurent polynomials in s = q^(1/2)


def _frac_str(f: Fraction, as_factor: bool) -> str:
    s = str(f)
    if as_factor and f.denominator != 1:
        return f"({s})"
    return s


def _coeff_str(c: GaussRat, standalone: bool) -> str:
    """Canonical text for a coefficient, either alone or as a '*'-prefix."""
    re, im = c.re, c.im
    if im == 0:
        return _frac_str(re, as_factor=not standalone)
    if re == 0:
        if im == 1:
            return "i"
        if im == -1:
            return "-i"
        sign = "-" if im < 0 else ""
        return f"{sign}{_frac_str(abs(im), as_factor=True)}*i"
    op = "+" if im > 0 else "-"
    mag = abs(im)
    im_part = "i" if mag == 1 else f"{_frac_str(mag, as_factor=False)}*i"
    return f"({_frac_str(re, as_factor=False)}{op}{im_part})"


def _power_str(spow: int):
    """Render s^spow as a power of q; None for spow == 0."""
    if spow == 0:
        return None
    if spow % 2 == 0:
        e = spow // 2
        if e == 1:
            return "q"
        if e > 0:
            return f"q^{e}"
        return f"q^({e})"
    return f"q^({spow}/2)"


def _qx(num: dict, den: int) -> "QExact":
    """QExact from a numerator dict and denominator already canonical."""
    z = _new(QExact)
    _qx_num(z, num)
    _qx_den(z, den)
    return z


def _qx_reduced(num: dict, den: int) -> "QExact":
    """QExact from zero-free numerators, dividing out their common factor."""
    if den != 1:
        g = den
        for a, b in num.values():
            g = gcd(g, a, b)
            if g == 1:
                break
        else:
            if not num:
                return _qx(num, 1)
            num = {k: (a // g, b // g) for k, (a, b) in num.items()}
            den //= g
    return _qx(num, den)


def _qx_mono(k: int, c: GaussRat) -> "QExact":
    if c._a or c._b:
        return _qx({k: (c._a, c._b)}, c._d)
    return _qx({}, 1)


def _qx_combine(x: "QExact", y: "QExact", sign: int) -> "QExact":
    """x + sign*y over the least common denominator."""
    d1, d2 = x._den, y._den
    if d1 == d2:
        out = dict(x._num)
        m, den = sign, d1
    else:
        g = gcd(d1, d2)
        m1 = d2 // g
        out = {k: (a * m1, b * m1) for k, (a, b) in x._num.items()}
        m, den = sign * (d1 // g), d1 * m1
    get = out.get
    for k, (a, b) in y._num.items():
        prev = get(k)
        if prev is None:
            out[k] = (a * m, b * m)
        else:
            a = prev[0] + a * m
            b = prev[1] + b * m
            if a or b:
                out[k] = (a, b)
            else:
                del out[k]
    if den == 1:
        return _qx(out, 1)
    return _qx_reduced(out, den)


class QExact:
    """Exact Laurent polynomial in s = q^(1/2) over Gaussian rationals.

    Stored as {s-power: (re, im)} integer numerators over one shared positive
    denominator, in the canonical form of the module docstring.  Instances
    are immutable; all operations return new objects.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, terms=None):
        clean: dict[int, GaussRat] = {}
        if terms:
            for k, c in terms.items():
                c = GaussRat.coerce(c)
                if not c.is_zero():
                    clean[int(k)] = c
        # over the lcm of reduced denominators the numerators are coprime to it
        den = lcm(*(c._d for c in clean.values()))
        _qx_num(self, {k: (c._a * (den // c._d), c._b * (den // c._d))
                       for k, c in clean.items()})
        _qx_den(self, den)

    def __setattr__(self, name, value):
        raise AttributeError("QExact is immutable")

    def __delattr__(self, name):
        raise AttributeError("QExact is immutable")

    def __reduce__(self):
        return QExact, (self.terms,)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls):
        return _qx({}, 1)

    @classmethod
    def one(cls):
        return _qx({0: (1, 0)}, 1)

    @classmethod
    def i(cls):
        return _qx({0: (0, 1)}, 1)

    @classmethod
    def rational(cls, value):
        return _qx_mono(0, GaussRat.coerce(value))

    @classmethod
    def gauss(cls, g: GaussRat):
        return _qx_mono(0, g)

    @classmethod
    def s_power(cls, k: int, coeff=1):
        return _qx_mono(int(k), GaussRat.coerce(coeff))

    @classmethod
    def q_power(cls, k, coeff=1):
        """q^k for k in (1/2)Z; the s-power 2k must be an integer."""
        k = HalfInt.coerce(k)
        return _qx_mono(k.twice, GaussRat.coerce(coeff))

    @classmethod
    def lam(cls):
        """The deformation scale q - 1/q."""
        return _qx({2: (1, 0), -2: (-1, 0)}, 1)

    # -- ring structure -----------------------------------------------

    @staticmethod
    def _coerce(value) -> "QExact":
        if isinstance(value, QExact):
            return value
        if isinstance(value, (int, Fraction, GaussRat)):
            return _qx_mono(0, GaussRat.coerce(value))
        raise TypeError(f"cannot interpret {value!r} as a QExact scalar")

    @property
    def terms(self) -> dict[int, GaussRat]:
        den = self._den
        return {k: _gauss(a, b, den) for k, (a, b) in self._num.items()}

    def __add__(self, other):
        if type(other) is not QExact:
            other = QExact._coerce(other)
        return _qx_combine(self, other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not QExact:
            other = QExact._coerce(other)
        return _qx_combine(self, other, -1)

    def __rsub__(self, other):
        return _qx_combine(QExact._coerce(other), self, -1)

    def __neg__(self):
        return _qx({k: (-a, -b) for k, (a, b) in self._num.items()}, self._den)

    def __mul__(self, other):
        if type(other) is not QExact:
            other = QExact._coerce(other)
        out: dict[int, tuple[int, int]] = {}
        get = out.get
        items = other._num.items()
        for k1, (a1, b1) in self._num.items():
            for k2, (a2, b2) in items:
                k = k1 + k2
                re = a1 * a2 - b1 * b2
                im = a1 * b2 + b1 * a2
                prev = get(k)
                if prev is None:
                    out[k] = (re, im)
                else:
                    re += prev[0]
                    im += prev[1]
                    if re or im:
                        out[k] = (re, im)
                    else:
                        del out[k]
        den = self._den * other._den
        if den == 1:
            return _qx(out, 1)
        return _qx_reduced(out, den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * QExact._coerce(other).inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise QExactError("QExact powers must be nonnegative integers")
        acc = QExact.one()
        for _ in range(n):
            acc = acc * self
        return acc

    def __eq__(self, other):
        if type(other) is not QExact:
            try:
                other = QExact._coerce(other)
            except TypeError:
                return NotImplemented
        return self._den == other._den and self._num == other._num

    def freeze(self):
        """(s-power, re num, re den, im num, im den) per term, sorted."""
        den, num = self._den, self._num
        out = []
        for k in sorted(num):
            a, b = num[k]
            ga, gb = gcd(a, den), gcd(b, den)
            out.append((k, a // ga, den // ga, b // gb, den // gb))
        return tuple(out)

    def __hash__(self):
        return hash((self._den, frozenset(self._num.items())))

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._num

    def is_one(self) -> bool:
        return self._den == 1 and self._num == {0: (1, 0)}

    def is_monomial(self) -> bool:
        return len(self._num) == 1

    def monomial(self):
        """(s-power, coefficient) if the scalar is a single term, else None."""
        if len(self._num) != 1:
            return None
        [(k, (a, b))] = self._num.items()
        return k, _gauss(a, b, self._den)

    # -- involutions and evaluation -------------------------------------

    def conj(self) -> "QExact":
        """Conjugation: q (hence s) is real and fixed, coefficients conjugate."""
        return _qx({k: (a, -b) for k, (a, b) in self._num.items()}, self._den)

    def inverse(self) -> "QExact":
        mono = self.monomial()
        if mono is None:
            raise QExactError("only monomial scalars c*s^k are invertible exactly")
        k, c = mono
        return _qx_mono(-k, GR_ONE / c)

    def sqrt_monomial(self) -> "QExact":
        """Square root of a monomial c*s^(2k) with c a rational square."""
        mono = self.monomial()
        if mono is None or mono[0] % 2 != 0:
            raise QExactError("exact square root needs a monomial with even s-power")
        k, c = mono
        root = c.sqrt_exact()
        if root is None:
            raise QExactError(f"coefficient {c} is not a rational square")
        return _qx_mono(k // 2, root)

    def eval(self, q: float) -> complex:
        if not q > 0.0:
            raise QExactError("evaluation requires a real q > 0")
        s = q ** 0.5
        den = self._den
        acc = 0j
        for k, (a, b) in self._num.items():
            acc += (complex(a / den) + 1j * (b / den)) * s ** k
        return acc

    def eval_at_s(self, s: Fraction) -> GaussRat:
        """Exact evaluation at a rational value of s (generic-point checks)."""
        s = Fraction(s)
        if s <= 0:
            raise QExactError("generic evaluation point must be positive")
        if not self._num:
            return GR_ZERO
        n, m = s.numerator, s.denominator
        # s^k = n^k m^(-k); scaling by n^lo m^hi makes every exponent >= 0
        lo = max(0, -min(self._num))
        hi = max(0, max(self._num))
        re = im = 0
        for k, (a, b) in self._num.items():
            w = n ** (k + lo) * m ** (hi - k)
            re += a * w
            im += b * w
        return _gauss(re, im, self._den * n ** lo * m ** hi)

    # -- rendering -------------------------------------------------------

    def render(self) -> str:
        if not self._num:
            return "0"
        terms = self.terms
        parts = []
        for k in sorted(terms):
            c = terms[k]
            pstr = _power_str(k)
            if pstr is None:
                parts.append(_coeff_str(c, standalone=True))
            else:
                cs = _coeff_str(c, standalone=False)
                if cs == "1":
                    parts.append(pstr)
                elif cs == "-1":
                    parts.append(f"-{pstr}")
                else:
                    parts.append(f"{cs}*{pstr}")
        out = parts[0]
        for p in parts[1:]:
            if p.startswith("-"):
                out += f" - {p[1:]}"
            else:
                out += f" + {p}"
        return out

    def __repr__(self):
        return f"QExact[{self.render()}]"


_qx_num, _qx_den = QExact._num.__set__, QExact._den.__set__


def lambda_sym() -> QExact:
    return QExact.lam()


# the most terms q_number builds: [n]_r has |n| of them
Q_NUMBER_MAX_TERMS = 100_000


def _readable(n) -> str:
    """The index n for a message: as written below 10^6, else to 6
    significant digits (1e+400, not 401 digits)."""
    exact = Fraction(n.twice, 2) if isinstance(n, HalfInt) else Fraction(n)
    if abs(exact) < 10 ** 6:
        return str(n)
    from decimal import Context

    digits = Context(prec=6)
    return format(digits.divide(exact.numerator, exact.denominator).normalize(digits), "g")


def q_number(n, r: int) -> QExact:
    """The q-number [n]_r = (1 - q^(r*n)) / (1 - q^r), exactly.

    The quotient is a Laurent polynomial in s precisely when n is an integer
    (geometric sum); other half-integers leave the ring and raise.
    """
    n = HalfInt.coerce(n)
    if r == 0:
        raise QExactError("q-number base r must be nonzero")
    a = r * n.twice          # numerator s-power: q^(r n) = s^(2 r n)
    b = 2 * r                # denominator s-power
    if a == 0:
        return QExact.zero()
    if a % b != 0:
        raise QExactError(
            f"[{n}]_{r} is not a Laurent polynomial in q^(1/2); "
            "only integer n divides exactly (use a floating evaluation instead)"
        )
    k = a // b
    if abs(k) > Q_NUMBER_MAX_TERMS:
        raise QExactError(
            f"[{_readable(n)}]_{r} has {_readable(abs(k))} terms, more than the "
            f"{Q_NUMBER_MAX_TERMS} an exact q-number may hold; evaluate it "
            f"numerically instead (q_number_value, or qnum --q)"
        )
    if k > 0:
        return _qx({j * b: (1, 0) for j in range(k)}, 1)
    return _qx({(k + j) * b: (-1, 0) for j in range(-k)}, 1)


def q_number_value(n, r: int, q: float) -> float:
    """Floating [n]_r for any half-integer (or real) index n and finite q > 0."""
    if r == 0:
        raise QExactError("q-number base r must be nonzero")
    if not (q > 0.0 and isfinite(q)):
        raise ValueError(f"q-number evaluation needs a finite q > 0, got q = {q}")
    try:
        nf = float(n)
        if q == 1.0:
            return nf
        return (1.0 - q ** (r * nf)) / (1.0 - q ** r)
    except OverflowError:
        raise ValueError(f"[{_readable(n)}]_{r} overflows a double at q = {q}: q^(r*n) is out of "
                         f"range; use a smaller |n| (or |r|)") from None
