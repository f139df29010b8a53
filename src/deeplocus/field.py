"""Exact field arithmetic: Q, Q(i), and prime fields F_p.

All downstream modules are field-generic; they only ever manipulate
``FieldValue`` objects tied to a ``FieldContext``.  Values are immutable,
stored in canonical form, and compare structurally: a residue of F_p is
an int in ``[0, p)``; a rational is an int pair ``(num, den)`` with
``den > 0`` and ``gcd(num, den) == 1``; an element of Q(i) is a Gaussian
numerator over one denominator, ``(re, im, den)`` for ``(re + im*i)/den``,
with ``den > 0`` and ``gcd(re, im, den) == 1``.  Arithmetic works on those
ints directly; ``Fraction`` appears only where text and other numbers come
in and go out (parsing, ``rational``, ``gaussian``, roots, strings and sort
keys).  The factories return one shared context per field, so contexts
compare by identity.

``FieldContext.first_nonzero_relation`` tests a table of polynomial
identities at a point's values without building values.  A table is
prepared once as a ``RelationTable``: a tuple of its relations that also
keeps them as runs of flat rows by shape.  Over F_p the exchange
x_a x_b - x_c x_d - x_e x_f (every Ptolemy relation and every Markov
exchange) is read as ``(r[a]*r[b] - r[c]*r[d] - r[e]*r[f]) % p`` in one
unrolled loop, and any other relation, such as a type-A edge's x_t - 1 or
the Markov torus relation, is summed monomial by monomial.  Over F_p a
plain sequence of relations is prepared on each call, so callers cache
the tables they test often; Q and Q(i) read a table as its relations, one
monomial at a time.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .errors import DeepLocusError

RATIONALS = "rationals"
GAUSSIAN_RATIONALS = "gaussian-rationals"
PRIME_FIELD = "prime-field"

_MAX_PRIME = 2**31

# the canonical payload of zero in each kind of field
_ZERO_PAYLOADS = {PRIME_FIELD: 0, RATIONALS: (0, 1), GAUSSIAN_RATIONALS: (0, 0, 1)}

# F_p root finding tries every element, so it is refused past this prime
MAX_ROOT_SCAN_PRIME = 2**16


# a relation is a sum of monomials (c, idx): the integer c times the product
# of the values at the indices idx, which may repeat
Monomial = Tuple[int, Tuple[int, ...]]
Relation = Tuple[Monomial, ...]


class FieldError(DeepLocusError):
    pass


class ContextMismatch(FieldError):
    """Two values from different field contexts were combined."""


class DivisionByZero(FieldError, ZeroDivisionError):
    """Division by, or inversion of, the zero element."""


class InfiniteField(FieldError):
    """Element enumeration requested for an infinite field."""


class UnsupportedExponent(FieldError):
    """A root over Q(i) whose exponent is not a power of two."""


class UnparsableValue(FieldError, ValueError):
    """Text that does not name an element of the field."""


class RootScanTooLarge(FieldError):
    """An F_p root scan over a prime above MAX_ROOT_SCAN_PRIME."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class FieldContext:
    """One of Q, Q(i), or F_p.  Use the module factories to construct: a
    context built directly is a field of its own, distinct from theirs."""

    __slots__ = ("kind", "p")

    def __init__(self, kind: str, p: int = 0):
        if kind not in (RATIONALS, GAUSSIAN_RATIONALS, PRIME_FIELD):
            raise ValueError(f"unknown field kind {kind!r}")
        if kind == PRIME_FIELD:
            if not (p <= _MAX_PRIME and _is_prime(p)):
                raise ValueError(f"modulus {p} is not a prime in [2, 2^31]")
        else:
            p = 0
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):
        raise AttributeError("FieldContext is immutable")

    @property
    def characteristic(self) -> int:
        return self.p

    def __repr__(self) -> str:
        if self.kind == PRIME_FIELD:
            return f"FieldContext(F_{self.p})"
        return f"FieldContext({self.kind})"

    # -- value construction ------------------------------------------------

    def zero(self) -> "FieldValue":
        return self.from_int(0)

    def one(self) -> "FieldValue":
        return self.from_int(1)

    def minus_one(self) -> "FieldValue":
        return self.from_int(-1)

    def from_int(self, n: int) -> "FieldValue":
        if self.kind == PRIME_FIELD:
            return FieldValue(self, n % self.p)
        if self.kind == RATIONALS:
            return FieldValue(self, (n, 1))
        return FieldValue(self, (n, 0, 1))

    def rational(self, num: int, den: int = 1) -> "FieldValue":
        if self.kind == PRIME_FIELD:
            if den % self.p == 0:
                raise DivisionByZero(f"denominator {den} vanishes mod {self.p}")
            return self.from_int(num) / self.from_int(den)
        if den == 0:
            raise DivisionByZero("denominator 0")
        return self._from_fraction(Fraction(num, den))

    def gaussian(self, re, im) -> "FieldValue":
        if self.kind != GAUSSIAN_RATIONALS:
            raise ContextMismatch(f"{self!r} has no imaginary unit")
        return FieldValue(self, _qi_from_fractions(Fraction(re), Fraction(im)))

    def i(self) -> "FieldValue":
        return self.gaussian(0, 1)

    def parse(self, text: str) -> "FieldValue":
        """Parse a canonical string ("3/2", "1+2i", "4 mod 5")."""
        s = text.strip().replace(" ", "")
        try:
            if self.kind == PRIME_FIELD:
                if "mod" in s:
                    r, mod = s.split("mod")
                    if int(mod) != self.p:
                        raise ContextMismatch(f"{text!r} is not in F_{self.p}")
                    s = r
                return self.from_int(int(s))
            if self.kind == RATIONALS:
                return self._from_fraction(Fraction(s))
            return FieldValue(self, _qi_from_fractions(*_parse_gaussian(s)))
        except (ValueError, ZeroDivisionError):
            raise UnparsableValue(f"cannot read {text!r} as an element of {self!r}") from None

    def _from_fraction(self, q: Fraction) -> "FieldValue":
        """The rational q as a value of Q or Q(i)."""
        if self.kind == RATIONALS:
            return FieldValue(self, (q.numerator, q.denominator))
        return FieldValue(self, (q.numerator, 0, q.denominator))

    # -- whole-field operations -------------------------------------------

    def elements(self) -> Iterator["FieldValue"]:
        """All field elements in residue order (prime fields only)."""
        if self.kind != PRIME_FIELD:
            raise InfiniteField(f"{self!r} is infinite")
        for r in range(self.p):
            yield FieldValue(self, r)

    def nonzero_elements(self) -> Iterator["FieldValue"]:
        it = self.elements()
        next(it)
        return it

    def roots(self, target: "FieldValue", k: int) -> List["FieldValue"]:
        """All alpha with alpha**k == target, exactly, in sort_key order.

        F_p tries every element, and is refused above MAX_ROOT_SCAN_PRIME;
        Q takes exact integer roots of numerator and denominator; Q(i)
        takes Gaussian square roots log2(k) times, so k must be a power
        of two."""
        if k < 1:
            raise ValueError("exponent must be a positive integer")
        if k == 1:
            return [target]
        if self.kind == PRIME_FIELD:
            if self.p > MAX_ROOT_SCAN_PRIME:
                raise RootScanTooLarge(
                    f"root finding over F_{self.p} tries all {self.p} elements;"
                    f" p exceeds the cap MAX_ROOT_SCAN_PRIME = {MAX_ROOT_SCAN_PRIME}"
                )
            return [a for a in self.elements() if a**k == target]
        if self.kind == RATIONALS:
            q = target._fractions()
            if k % 2:
                r = _fraction_root(abs(q), k)
                return [] if r is None else [self._from_fraction(r if q >= 0 else -r)]
            r = _fraction_root(q, k)
            if r is None:
                return []
            return [self._from_fraction(-r), self._from_fraction(r)] if r else [self.zero()]
        if k & (k - 1):
            raise UnsupportedExponent(f"exponent {k} unsupported over Q(i): not a power of two")
        found = [target._fractions()]
        for _ in range(k.bit_length() - 1):
            found = sorted({r for v in found for r in _gaussian_sqrt(*v)})
        out = [FieldValue(self, _qi_from_fractions(*v)) for v in found]
        for v in out:
            if v**k != target:
                raise FieldError(f"root {v} of {target} fails: its power {k} is {v**k}")
        return out

    def roots_of_minus_one(self, b: int) -> List["FieldValue"]:
        """All alpha with alpha**b == -1, in sort_key order."""
        return self.roots(self.minus_one(), b)

    # -- identity tests -----------------------------------------------------

    def first_nonzero_relation(
        self, values: Sequence["FieldValue"], relations: Sequence[Relation]
    ) -> Optional[int]:
        """The index of the first relation that does not vanish at values,
        or None when every one does.

        Each relation is a sum of monomials (c, idx) over indices into
        values; see Relation.  The test is exact, reads each value once and
        builds no FieldValue: F_p reads the runs of a RelationTable, and
        prepares any other sequence as one on the call, summing each row
        over the residues and reducing once; Q cross-multiplies the
        payloads' integer numerators and denominators; Q(i) does the same
        over their Gaussian numerators.  One pass checks each value's
        context and takes its payload."""
        payloads = [v._v if v.ctx is self else self._mismatch(v) for v in values]
        if self.kind == PRIME_FIELD:
            if not isinstance(relations, RelationTable):
                relations = RelationTable(relations)
            return _first_nonzero_mod(payloads, self.p, relations.runs)
        if self.kind == RATIONALS:
            return _first_nonzero_q(payloads, relations)
        return _first_nonzero_qi(payloads, relations)

    def count_zeros(self, values: Sequence["FieldValue"], indices: Sequence[int]) -> int:
        """How many of the values at indices are zero.  Reads only those
        values, checks each one's context, and compares payloads, which
        are canonical."""
        zero = _ZERO_PAYLOADS[self.kind]
        count = 0
        for t in indices:
            v = values[t]
            if (v._v if v.ctx is self else self._mismatch(v)) == zero:
                count += 1
        return count

    def _mismatch(self, v: "FieldValue"):
        raise ContextMismatch(f"{self!r} vs {v.ctx!r}")


# the row shapes of a RelationTable: the exchange x_a x_b - x_c x_d - x_e x_f
# (every Ptolemy relation, and every Markov exchange), flattened to
# (a, b, c, d, e, f), and any other relation, kept as it is
_EXCHANGE, _GENERIC = "exchange", "generic"
# (shape, index of the run's first relation, its rows)
Runs = Tuple[Tuple[str, int, tuple], ...]


def _row(relation: Relation) -> Tuple[str, object]:
    """The shape of one relation and its row in that shape."""
    monomials = tuple((c, tuple(idx)) for c, idx in relation)
    if tuple((c, len(idx)) for c, idx in monomials) == ((1, 2), (-1, 2), (-1, 2)):
        return _EXCHANGE, monomials[0][1] + monomials[1][1] + monomials[2][1]
    return _GENERIC, monomials


class RelationTable(tuple):
    """A table of relations prepared for first_nonzero_relation: a tuple of
    the relations as given, in order, which also keeps them as runs of
    flat rows, one run per stretch of relations of one shape (_row).  Each
    run is (shape, index of its first relation, rows), so the F_p identity
    test reads every row of an exchange run in one unrolled loop.  Build
    one once for a table that is tested many times."""

    runs: Runs

    def __new__(cls, relations: Iterable[Relation]) -> "RelationTable":
        table = super().__new__(cls, relations)
        runs: List[Tuple[str, int, list]] = []
        for r, relation in enumerate(table):
            shape, row = _row(relation)
            if runs and runs[-1][0] == shape:
                runs[-1][2].append(row)
            else:
                runs.append((shape, r, [row]))
        table.runs = tuple((shape, start, tuple(rows)) for shape, start, rows in runs)
        return table


def _first_nonzero_mod(res: List[int], p: int, runs: Runs) -> Optional[int]:
    for shape, start, rows in runs:
        if shape is _EXCHANGE:
            for r, (a, b, c, d, e, f) in enumerate(rows, start):
                if (res[a] * res[b] - res[c] * res[d] - res[e] * res[f]) % p:
                    return r
        else:
            for r, relation in enumerate(rows, start):
                total = 0
                for c, idx in relation:
                    for i in idx:
                        c *= res[i]
                    total += c
                if total % p:
                    return r
    return None


def _first_nonzero_q(
    values: List[Tuple[int, int]], relations: Sequence[Relation]
) -> Optional[int]:
    # value t is num / d for (num, d) = values[t]
    for r, relation in enumerate(relations):
        # the sum so far is top / bottom, never reduced:
        # a/b + c/d = (a*d + c*b) / (b*d), and bottom is never zero
        top, bottom = 0, 1
        for c, idx in relation:
            den = 1
            for i in idx:
                num, d = values[i]
                c *= num
                den *= d
            top = top * den + c * bottom
            bottom *= den
        if top:
            return r
    return None


def _first_nonzero_qi(
    values: List[Tuple[int, int, int]], relations: Sequence[Relation]
) -> Optional[int]:
    # value t is (re + im*i) / d for (re, im, d) = values[t]; as over Q,
    # with Gaussian tops
    for r, relation in enumerate(relations):
        top_re, top_im, bottom = 0, 0, 1
        for c, idx in relation:
            a, b, den = c, 0, 1
            for i in idx:
                re, im, d = values[i]
                a, b = a * re - b * im, a * im + b * re
                den *= d
            top_re = top_re * den + a * bottom
            top_im = top_im * den + b * bottom
            bottom *= den
        if top_re or top_im:
            return r
    return None


def _int_root(m: int, k: int) -> Optional[int]:
    """The exact k-th root of the integer m >= 0, if it is an integer."""
    if k == 2:
        r = math.isqrt(m)
    elif m == 0:
        r = 0
    else:
        # Newton's iteration from above converges to the floor of the root
        r = 1 << -(-m.bit_length() // k)
        while True:
            nxt = ((k - 1) * r + m // r ** (k - 1)) // k
            if nxt >= r:
                break
            r = nxt
    return r if r**k == m else None


def _fraction_root(q: Fraction, k: int) -> Optional[Fraction]:
    """The exact nonnegative k-th root of q >= 0, if it is rational."""
    if q < 0:
        return None
    rn = _int_root(q.numerator, k)
    rd = _int_root(q.denominator, k)
    if rn is None or rd is None:
        return None
    return Fraction(rn, rd)


def _gaussian_sqrt(re: Fraction, im: Fraction) -> List[Tuple[Fraction, Fraction]]:
    """The square roots (x, y) of re + im*i with x, y rational."""
    if im == 0:
        r = _fraction_root(re, 2)
        if r is not None:
            return [(r, Fraction(0)), (-r, Fraction(0))]
        s = _fraction_root(-re, 2)
        return [] if s is None else [(Fraction(0), s), (Fraction(0), -s)]
    # (x + y*i)^2 = re + im*i with im != 0 gives x^2 = (re + |re + im*i|)/2 > 0
    norm = _fraction_root(re * re + im * im, 2)
    x = None if norm is None else _fraction_root((re + norm) / 2, 2)
    if x is None:
        return []
    y = im / (2 * x)
    return [(x, y), (-x, -y)]


QQ = FieldContext(RATIONALS)
QI = FieldContext(GAUSSIAN_RATIONALS)


def rationals() -> FieldContext:
    return QQ


def gaussian_rationals() -> FieldContext:
    return QI


@functools.lru_cache(maxsize=None)
def prime_field(p: int) -> FieldContext:
    return FieldContext(PRIME_FIELD, p)


def _parse_gaussian(s: str):
    if s in ("i", "+i"):
        return (Fraction(0), Fraction(1))
    if s == "-i":
        return (Fraction(0), Fraction(-1))
    if not s.endswith("i"):
        return (Fraction(s), Fraction(0))
    body = s[:-1]
    split = 0
    for idx in range(1, len(body)):
        if body[idx] in "+-":
            split = idx
            break
    if split:
        re_part, im_part = body[:split], body[split:]
    else:
        re_part, im_part = "", body
    if im_part in ("", "+"):
        im = Fraction(1)
    elif im_part == "-":
        im = Fraction(-1)
    else:
        im = Fraction(im_part)
    re = Fraction(re_part) if re_part else Fraction(0)
    return (re, im)


def _qi_from_fractions(re: Fraction, im: Fraction) -> Tuple[int, int, int]:
    """re + im*i as a Q(i) payload.  Over the lcm of the two denominators
    it is canonical: for each prime of the lcm, one part's denominator holds
    the prime's full power, so that part's scaled numerator is prime to it."""
    den = math.lcm(re.denominator, im.denominator)
    return (re.numerator * (den // re.denominator), im.numerator * (den // im.denominator), den)


def _q_sum(a: int, b: int, c: int, d: int) -> Tuple[int, int]:
    """a/b + c/d in lowest terms, both in lowest terms: only a prime of
    g = gcd(b, d) can divide both the cross sum and the denominator
    (Knuth, TAOCP vol. 2, 4.5.1), as in fractions.Fraction."""
    g = gcd(b, d)
    if g == 1:
        return (a * d + c * b, b * d)
    s = b // g
    t = a * (d // g) + c * s
    g2 = gcd(t, g)
    if g2 == 1:
        return (t, s * d)
    return (t // g2, s * (d // g2))


def _q_product(a: int, b: int, c: int, d: int) -> Tuple[int, int]:
    """a/b * c/d in lowest terms, both in lowest terms: each numerator is
    cancelled against the other denominator first."""
    g1 = gcd(a, d)
    if g1 != 1:
        a //= g1
        d //= g1
    g2 = gcd(c, b)
    if g2 != 1:
        c //= g2
        b //= g2
    return (a * c, b * d)


def _qi_sum(x1: int, y1: int, d1: int, x2: int, y2: int, d2: int) -> Tuple[int, int, int]:
    """(x1 + y1*i)/d1 + (x2 + y2*i)/d2, reduced as _q_sum reduces, with the
    gcd taken over both parts of the Gaussian numerator."""
    g = gcd(d1, d2)
    if g == 1:
        return (x1 * d2 + x2 * d1, y1 * d2 + y2 * d1, d1 * d2)
    s = d1 // g
    e = d2 // g
    x = x1 * e + x2 * s
    y = y1 * e + y2 * s
    g2 = gcd(x, y, g)
    if g2 == 1:
        return (x, y, s * d2)
    return (x // g2, y // g2, s * (d2 // g2))


def _qi_reduced(x: int, y: int, d: int) -> Tuple[int, int, int]:
    """(x + y*i)/d, for d > 0, in canonical form."""
    g = gcd(x, y, d)
    if g == 1:
        return (x, y, d)
    return (x // g, y // g, d // g)


Payload = Union[int, Tuple[int, ...]]


class FieldValue:
    """An immutable element of a FieldContext."""

    __slots__ = ("ctx", "_v")

    def __init__(self, ctx: FieldContext, payload: Payload):
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "_v", payload)

    def __setattr__(self, name, value):
        raise AttributeError("FieldValue is immutable")

    # -- predicates ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        k = self.ctx.kind
        if k == PRIME_FIELD:
            return self._v == 0
        if k == RATIONALS:
            return self._v[0] == 0
        return self._v[0] == 0 and self._v[1] == 0

    def __bool__(self) -> bool:
        return not self.is_zero

    def _check(self, other: "FieldValue") -> None:
        if not isinstance(other, FieldValue):
            raise TypeError(f"expected FieldValue, got {type(other).__name__}")
        if other.ctx is not self.ctx:
            raise ContextMismatch(f"{self.ctx!r} vs {other.ctx!r}")

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "FieldValue") -> "FieldValue":
        self._check(other)
        k = self.ctx.kind
        if k == PRIME_FIELD:
            return FieldValue(self.ctx, (self._v + other._v) % self.ctx.p)
        if k == RATIONALS:
            return FieldValue(self.ctx, _q_sum(*self._v, *other._v))
        return FieldValue(self.ctx, _qi_sum(*self._v, *other._v))

    def __sub__(self, other: "FieldValue") -> "FieldValue":
        self._check(other)
        k = self.ctx.kind
        if k == PRIME_FIELD:
            return FieldValue(self.ctx, (self._v - other._v) % self.ctx.p)
        if k == RATIONALS:
            a, b = self._v
            c, d = other._v
            return FieldValue(self.ctx, _q_sum(a, b, -c, d))
        x1, y1, d1 = self._v
        x2, y2, d2 = other._v
        return FieldValue(self.ctx, _qi_sum(x1, y1, d1, -x2, -y2, d2))

    def __neg__(self) -> "FieldValue":
        k = self.ctx.kind
        if k == PRIME_FIELD:
            return FieldValue(self.ctx, (-self._v) % self.ctx.p)
        if k == RATIONALS:
            a, b = self._v
            return FieldValue(self.ctx, (-a, b))
        x, y, d = self._v
        return FieldValue(self.ctx, (-x, -y, d))

    def __mul__(self, other: "FieldValue") -> "FieldValue":
        self._check(other)
        k = self.ctx.kind
        if k == PRIME_FIELD:
            return FieldValue(self.ctx, (self._v * other._v) % self.ctx.p)
        if k == RATIONALS:
            return FieldValue(self.ctx, _q_product(*self._v, *other._v))
        (x1, y1, d1), (x2, y2, d2) = self._v, other._v
        return FieldValue(self.ctx, _qi_reduced(x1 * x2 - y1 * y2, x1 * y2 + y1 * x2, d1 * d2))

    def inverse(self) -> "FieldValue":
        if self.is_zero:
            raise DivisionByZero("cannot invert zero")
        k = self.ctx.kind
        if k == PRIME_FIELD:
            return FieldValue(self.ctx, pow(self._v, -1, self.ctx.p))
        if k == RATIONALS:
            a, b = self._v
            return FieldValue(self.ctx, (b, a) if a > 0 else (-b, -a))
        # d / (x + y*i) = d*(x - y*i) / (x^2 + y^2)
        x, y, d = self._v
        return FieldValue(self.ctx, _qi_reduced(d * x, -d * y, x * x + y * y))

    def __truediv__(self, other: "FieldValue") -> "FieldValue":
        self._check(other)
        k = self.ctx.kind
        if k == PRIME_FIELD:
            if other._v == 0:
                raise DivisionByZero("cannot invert zero")
            p = self.ctx.p
            return FieldValue(self.ctx, self._v * pow(other._v, -1, p) % p)
        if k == RATIONALS:
            # a/b / (c/d) = a/b * d/c, with the sign of c moved up
            a, b = self._v
            c, d = other._v
            if c == 0:
                raise DivisionByZero("cannot invert zero")
            if c < 0:
                c, d = -c, -d
            return FieldValue(self.ctx, _q_product(a, b, d, c))
        # (x1 + y1*i)/d1 / ((x2 + y2*i)/d2)
        #   = (x1 + y1*i)(x2 - y2*i) d2 / (d1 (x2^2 + y2^2))
        (x1, y1, d1), (x2, y2, d2) = self._v, other._v
        norm = x2 * x2 + y2 * y2
        if norm == 0:
            raise DivisionByZero("cannot invert zero")
        return FieldValue(
            self.ctx, _qi_reduced((x1 * x2 + y1 * y2) * d2, (y1 * x2 - x1 * y2) * d2, d1 * norm)
        )

    def __pow__(self, n: int) -> "FieldValue":
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return self.ctx.one()
        # square only while higher bits remain, and start at the lowest set
        # bit: x**n takes at most 2 * n.bit_length() - 1 multiplies
        base = self
        while not n & 1:
            base = base * base
            n >>= 1
        result = base
        n >>= 1
        while n:
            base = base * base
            if n & 1:
                result = result * base
            n >>= 1
        return result

    # -- comparison / hashing -------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldValue)
            and self.ctx is other.ctx
            and self._v == other._v
        )

    def __hash__(self) -> int:
        return hash((self.ctx, self._v))

    def _fractions(self):
        """A rational as a Fraction; an element of Q(i) as the Fractions
        (re, im)."""
        if self.ctx.kind == RATIONALS:
            return Fraction(*self._v)
        x, y, d = self._v
        return (Fraction(x, d), Fraction(y, d))

    def sort_key(self):
        if self.ctx.kind == PRIME_FIELD:
            return self._v
        return self._fractions()

    # -- formatting -------------------------------------------------------------

    def __str__(self) -> str:
        k = self.ctx.kind
        if k == PRIME_FIELD:
            return f"{self._v} mod {self.ctx.p}"
        if k == RATIONALS:
            return str(self._fractions())
        re, im = self._fractions()
        if im == 0:
            return str(re)
        if im == 1:
            im_str = "i"
        elif im == -1:
            im_str = "-i"
        else:
            im_str = f"{im}i"
        if re == 0:
            return im_str
        sign = "+" if im > 0 else ""
        return f"{re}{sign}{im_str}"

    def __repr__(self) -> str:
        return f"<{self} : {self.ctx!r}>"


def product(ctx: FieldContext, values) -> FieldValue:
    out = ctx.one()
    for v in values:
        out = out * v
    return out
