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

Each kind of field writes its payload formulas once, in one immutable
record, ``_Arith`` (``_FP``, ``_Q`` and ``_QI``), which its context picks
when it is built, as ``FieldContext.arith``.  Every ``FieldValue``
operator and every payload walk of ``FieldContext`` calls the record; only
text, parsing and roots still branch on the kind.  The ratio a*b/c is the
one quotient: a / c is ratio(a, 1, c) and the inverse of v is
ratio(1, 1, v), over Q formed with a single gcd.  A power builds no
intermediate value: over F_p it is one builtin ``pow``, over Q the powers
of numerator and denominator, and over Q(i) square-and-multiply on the
Gaussian numerator, reduced once.

``FieldContext.first_nonzero_relation`` tests a table of polynomial
identities at a point's values without building values.  A table is
prepared once as a ``RelationTable``: a tuple of its relations that also
keeps the exchanges x_a x_b - x_c x_d - x_e x_f (every Ptolemy relation and
every Markov exchange) as runs of flat rows, each read in one unrolled
loop: over F_p one sum reduced once mod p, over Q one integer test over
the numerators and denominators, on one common denominator.  Any other
relation, such as a type-A edge's x_t - 1 or the Markov torus relation,
is summed monomial by monomial.  A plain sequence of relations is prepared
on each call, so callers cache the tables they test often; Q(i) reads a
table as its relations, one monomial at a time.
``FieldContext.exchange_level`` walks one level of the Markov exchange
tree on payloads: it builds each cluster's children, each new value
M*a*b - c by the record's ``mul_mul_sub``, tests each cluster with the
record's node test, and builds field values only for a cluster that
fails.  The node test forms the squares of x, y and z once and checks
each identity exactly and on its own: on a torus cluster
x^2 + y^2 + z^2 = M*x*y*z, and for each child the exchange
v*v' = (x^2 + y^2 + z^2) - v^2; over F_p each is reduced once, over Q and
Q(i) each is one test on the common denominator dx*dy*dz of the cluster.
``FieldContext.ptolemy_rule`` gives the random surface flip walk, which
keeps its values as payloads, the record's ratio and its test
a*b + c*d = 0 (``vanishes``), for the exchange
old * new = v(p)v(r) + v(q)v(s).
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from math import gcd
from typing import Callable, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

from .errors import DeepLocusError

RATIONALS = "rationals"
GAUSSIAN_RATIONALS = "gaussian-rationals"
PRIME_FIELD = "prime-field"

_MAX_PRIME = 2**31

# F_p root finding tries every element, so it is refused past this prime
MAX_ROOT_SCAN_PRIME = 2**16


# a relation is a sum of monomials (c, idx): the integer c times the product
# of the values at the indices idx, which may repeat
Monomial = Tuple[int, Tuple[int, ...]]
Relation = Tuple[Monomial, ...]
Payload = Union[int, Tuple[int, ...]]


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

    __slots__ = ("kind", "p", "arith")

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
        # the kind's payload formulas (_Arith)
        arith = _FP if kind == PRIME_FIELD else _Q if kind == RATIONALS else _QI
        object.__setattr__(self, "arith", arith)

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
        return FieldValue(self, self.arith.zero)

    def one(self) -> "FieldValue":
        return FieldValue(self, self.arith.one)

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
        builds no FieldValue.  Any sequence that is not a RelationTable is
        prepared as one on the call.  F_p and Q read its runs: F_p sums each
        row over the residues and reduces once, Q cross-multiplies the
        payloads' integer numerators and denominators; Q(i) does the same
        over their Gaussian numerators, one monomial at a time.  One pass
        checks each value's context and takes its payload."""
        payloads = self._payloads(values)
        if not isinstance(relations, RelationTable):
            relations = RelationTable(relations)
        return self.arith.first_nonzero(payloads, relations, self.p)

    # -- the Markov exchange tree, on payloads --------------------------------
    #
    # A level of the tree is a list of clusters (x, y, z, k): the payloads of
    # the cluster's three values and the slot k (0, 1 or 2) of the value its
    # last exchange replaced, or 3 at the root.  Its children are in the
    # order of CHILD_SLOTS[k].  Only field.py reads one.

    def exchange_root(self, values: Sequence["FieldValue"]) -> list:
        """The level of the root alone: the cluster of the values (x, y, z),
        which no exchange reached."""
        return [(*self._payloads(values), 3)]

    def exchange_children(self, level: list, M: "FieldValue") -> list:
        """The next level: each cluster's children in its level's order,
        one per slot of CHILD_SLOTS[k].  The child in slot s holds
        v_s' = M v_i v_j - v_s, the record's mul_mul_sub."""
        m, p, mms = self._payloads((M,))[0], self.p, self.arith.mul_mul_sub
        out = []
        for x, y, z, k in level:
            for s in CHILD_SLOTS[k]:
                if s == 0:
                    out.append((mms(m, y, z, x, p), y, z, 0))
                elif s == 1:
                    out.append((x, mms(m, x, z, y, p), z, 1))
                else:
                    out.append((x, y, mms(m, x, y, z, p), 2))
        return out

    def exchange_level(
        self,
        level: list,
        M: "FieldValue",
        zeros: Optional[Tuple[bool, bool, bool]],
        inner: bool,
    ) -> Tuple[list, List[bool], List[Tuple[int, Tuple["FieldValue", ...]]]]:
        """Test one level of the exchange tree and build the next one.

        On an inner level each cluster's children come from
        exchange_children.  Each cluster is tested by its field's node
        test: on a torus cluster x^2 + y^2 + z^2 = M*x*y*z, and for each
        child v*v' = (x^2 + y^2 + z^2) - v^2, v' the child's new value.  A
        cluster is a torus cluster when zeros is None and none of x, y, z
        is zero; otherwise zeros is the pattern of zeros that every
        cluster's (x, y, z) must have.  Returns the next level (empty when
        not inner), each cluster's torus flag, and (index, row) for each
        cluster whose pattern of zeros or node test fails, in order, its
        row x, y, z, M and its children's new values as FieldValues: the
        only values built."""
        m, p, zero, node = self._payloads((M,))[0], self.p, self.arith.zero, self.arith.node
        children = self.exchange_children(level, M) if inner else []
        torus, failed = [], []
        c = 0
        for i, (x, y, z, k) in enumerate(level):
            n = len(CHILD_SLOTS[k]) if inner else 0
            kids = children[c : c + n]
            c += n
            t = zeros is None and x != zero and y != zero and z != zero
            torus.append(t)
            if (
                zeros is not None and (x == zero, y == zero, z == zero) != zeros
            ) or not node(x, y, z, m, t, kids, p):
                row = (x, y, z, m, *(child[child[3]] for child in kids))
                failed.append((i, tuple(FieldValue(self, v) for v in row)))
        return children, torus, failed

    def count_zeros(self, values: Sequence["FieldValue"], indices: Sequence[int]) -> int:
        """How many of the values at indices are zero.  Reads only those
        values, checks each one's context, and compares payloads, which
        are canonical."""
        zero = self.arith.zero
        count = 0
        for t in indices:
            v = values[t]
            if (v._v if v.ctx is self else self._mismatch(v)) == zero:
                count += 1
        return count

    def _payloads(self, values: Iterable["FieldValue"]) -> list:
        """The payload of each value, each one's context checked."""
        return [v._v if v.ctx is self else self._mismatch(v) for v in values]

    # -- the Ptolemy exchange of a surface flip, on payloads -----------------
    #
    # The random flip walk keeps its arcs' values as payloads in a list by
    # arc id, None for a value it could not derive, and reads them only
    # through the formulas of ptolemy_rule.  Only field.py reads one.

    def ptolemy_payloads(self, values: Iterable[Optional["FieldValue"]]) -> list:
        """The payload of each value, or None for None, each context checked:
        _payloads, which the identity tests call on values that are never
        None, with None kept."""
        return [None if v is None else v._v if v.ctx is self else self._mismatch(v) for v in values]

    def ptolemy_values(self, payloads: Iterable) -> List[Optional["FieldValue"]]:
        """The value of each payload of ptolemy_payloads, or None for None."""
        return [None if v is None else FieldValue(self, v) for v in payloads]

    def ptolemy_rule(self) -> tuple:
        """(ratio, vanishes, zero, p) from the record, for the exchange
        old * new = v(p)v(r) + v(q)v(s) on this field's payloads: ratio(a,
        b, c, p), the payload of a * b / c, which raises DivisionByZero on
        a zero c; vanishes(a, b, c, d, p), whether a * b + c * d is 0; the
        payload of 0; and the modulus p (0 off F_p)."""
        arith = self.arith
        return arith.ratio, arith.vanishes, arith.zero, self.p

    def _mismatch(self, v: "FieldValue"):
        raise ContextMismatch(f"{self!r} vs {v.ctx!r}")


# the row shapes of a RelationTable: the exchange x_a x_b - x_c x_d - x_e x_f
# (every Ptolemy relation, and every Markov exchange), flattened to
# (a, b, c, d, e, f); and any other relation, kept as it is
_EXCHANGE, _GENERIC = "exchange", "generic"
# (shape, index of the run's first relation, its rows)
Runs = Tuple[Tuple[str, int, tuple], ...]


def _row(relation: Relation) -> Tuple[str, object]:
    """The shape of one relation and its row in that shape.  A shape is
    read off the monomials exactly, coefficients, index counts and the
    order of the indices alike; anything else is generic."""
    monomials = tuple((c, tuple(idx)) for c, idx in relation)
    if tuple((c, len(idx)) for c, idx in monomials) == ((1, 2), (-1, 2), (-1, 2)):
        return _EXCHANGE, monomials[0][1] + monomials[1][1] + monomials[2][1]
    return _GENERIC, monomials


class RelationTable(tuple):
    """A table of relations prepared for first_nonzero_relation: a tuple of
    the relations as given, in order, which also keeps them as runs of
    flat rows, one run per stretch of relations of one shape (_row).  Each
    run is (shape, index of its first relation, rows), so the F_p and Q
    identity tests read every row of an exchange run in one unrolled loop.
    Build one once for a table that is tested many times."""

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


# The identity-test kernels, each a record's first_nonzero(payloads, table, p)
def _first_nonzero_mod(res: List[int], table: RelationTable, p: int) -> Optional[int]:
    for shape, start, rows in table.runs:
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


def _first_nonzero_q(values: List[Tuple[int, int]], table: RelationTable, p: int) -> Optional[int]:
    # value t is num / d for (num, d) = values[t]
    for shape, start, rows in table.runs:
        if shape is _EXCHANGE:
            # na nb / (da db) - nc nd / (dc dd) - ne nf / (de df), over the
            # product of the three denominators
            for r, (a, b, c, d, e, f) in enumerate(rows, start):
                na, da = values[a]
                nb, db = values[b]
                nc, dc = values[c]
                nd, dd = values[d]
                ne, de = values[e]
                nf, df = values[f]
                d1, d2 = da * db, dc * dd
                if (na * nb * d2 - nc * nd * d1) * de * df - ne * nf * d1 * d2:
                    return r
            continue
        for r, relation in enumerate(rows, start):
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
    values: List[Tuple[int, int, int]], table: RelationTable, p: int
) -> Optional[int]:
    # value t is (re + im*i) / d for (re, im, d) = values[t]; as over Q,
    # with Gaussian tops, one monomial at a time
    for r, relation in enumerate(table):
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


# the Markov exchange tree on payloads: a record's node(x, y, z, m, torus,
# children, p) tests a cluster (exchange_level): on a torus cluster
# x^2 + y^2 + z^2 = m x y z, and for each child (x', y', z', s) of
# exchange_children, whose new value v' sits in the slot s of v,
# v v' = (x^2 + y^2 + z^2) - v^2; each identity is tested exactly and on its
# own, from the three squares formed once.  Its mul_mul_sub(m, a, b, c, p),
# m * a * b - c, forms each child's new value
def _node_holds_mod(x: int, y: int, z: int, m: int, torus: bool, children: list, p: int) -> bool:
    # each identity's sum reduced once mod p
    squares = (x * x, y * y, z * z)
    s = squares[0] + squares[1] + squares[2]
    if torus and (s - m * x * y * z) % p:
        return False
    for child in children:
        k = child[3]
        if ((x, y, z)[k] * child[k] + squares[k] - s) % p:
            return False
    return True


def _mul_mul_sub_q(m, a, b, c, p) -> Tuple[int, int]:
    # m/dm * na/da * nb/db - e/f = (m na nb f - e dm da db) / (dm da db f),
    # reduced by one gcd
    (m, dm), (na, da), (nb, db), (e, f) = m, a, b, c
    den = dm * da * db
    num, den = m * na * nb * f - e * den, den * f
    g = gcd(num, den)
    return (num // g, den // g) if g != 1 else (num, den)


def _node_holds_q(x, y, z, m, torus, children, p) -> bool:
    # over D = dx dy dz the values are X/D, Y/D, Z/D with X = nx dy dz and
    # likewise Y and Z, and S = X^2 + Y^2 + Z^2: the torus relation is
    # S dm D = nm X Y Z, and a child nc/dc in V's slot V D nc = (S - V^2) dc
    (nx, dx), (ny, dy), (nz, dz) = x, y, z
    dxy = dx * dy
    D = dxy * dz
    X, Y, Z = nx * dy * dz, ny * dx * dz, nz * dxy
    squares = (X * X, Y * Y, Z * Z)
    S = squares[0] + squares[1] + squares[2]
    if torus and S * m[1] * D != m[0] * X * Y * Z:
        return False
    for child in children:
        k = child[3]
        nc, dc = child[k]
        if (X, Y, Z)[k] * D * nc != (S - squares[k]) * dc:
            return False
    return True


def _mul_mul_sub_qi(m, a, b, c, p) -> Tuple[int, int, int]:
    # as over Q, with the Gaussian product of the three numerators
    (x1, y1, d1), (x2, y2, d2), (x3, y3, d3), (x4, y4, d4) = m, a, b, c
    x, y = x1 * x2 - y1 * y2, x1 * y2 + y1 * x2
    x, y, den = x * x3 - y * y3, x * y3 + y * x3, d1 * d2 * d3
    return _qi_reduced(x * d4 - x4 * den, y * d4 - y4 * den, den * d4)


def _node_holds_qi(x, y, z, m, torus, children, p) -> bool:
    # as over Q, on the Gaussian numerators (re, im) of X, Y, Z and S
    (xr, xi, dx), (yr, yi, dy), (zr, zi, dz) = x, y, z
    dyz, dxz, dxy = dy * dz, dx * dz, dx * dy
    D = dxy * dz
    nums = ((xr * dyz, xi * dyz), (yr * dxz, yi * dxz), (zr * dxy, zi * dxy))
    squares = [(a * a - b * b, 2 * a * b) for a, b in nums]
    s_re = squares[0][0] + squares[1][0] + squares[2][0]
    s_im = squares[0][1] + squares[1][1] + squares[2][1]
    if torus:
        (a, b), (c, d), (e, f) = nums
        a, b = a * c - b * d, a * d + b * c
        a, b = a * e - b * f, a * f + b * e
        mr, mi, dm = m
        if s_re * dm * D != mr * a - mi * b or s_im * dm * D != mr * b + mi * a:
            return False
    for child in children:
        k = child[3]
        cr, ci, dc = child[k]
        a, b = nums[k]
        sq_re, sq_im = squares[k]
        if (a * cr - b * ci) * D != (s_re - sq_re) * dc or (a * ci + b * cr) * D != (s_im - sq_im) * dc:
            return False
    return True


# a record's ratio(a, b, c, p), a * b / c: every quotient a / c is
# ratio(a, 1, c), every inverse ratio(1, 1, c), and ptolemy_rule gives it to
# the surface flip walk beside vanishes(a, b, c, d, p), a * b + c * d == 0
def _ratio_mod(a: int, b: int, c: int, p: int) -> int:
    if not c:
        raise DivisionByZero("cannot invert zero")
    return a * b * pow(c, -1, p) % p


def _ratio_q(a, b, c, p) -> Tuple[int, int]:
    # na/da * nb/db / (nc/dc) = na nb dc / (da db nc), the sign of nc moved
    # up, reduced by one gcd
    (na, da), (nb, db), (nc, dc) = a, b, c
    if nc == 0:
        raise DivisionByZero("cannot invert zero")
    num, den = na * nb * dc, da * db * nc
    if nc < 0:
        num, den = -num, -den
    g = gcd(num, den)
    return (num // g, den // g) if g != 1 else (num, den)


def _ratio_qi(a, b, c, p) -> Tuple[int, int, int]:
    # (x1 + y1*i)/d1 * (x2 + y2*i)/d2 / ((x3 + y3*i)/d3)
    #   = (x1 + y1*i)(x2 + y2*i)(x3 - y3*i) d3 / (d1 d2 (x3^2 + y3^2))
    (x1, y1, d1), (x2, y2, d2), (x3, y3, d3) = a, b, c
    norm = x3 * x3 + y3 * y3
    if norm == 0:
        raise DivisionByZero("cannot invert zero")
    x, y = x1 * x2 - y1 * y2, x1 * y2 + y1 * x2
    return _qi_reduced((x * x3 + y * y3) * d3, (y * x3 - x * y3) * d3, d1 * d2 * norm)


def _vanishes_qi(a, b, c, d, p) -> bool:
    # as _Q's vanishes, on each part of the Gaussian numerator
    (x1, y1, d1), (x2, y2, d2), (x3, y3, d3), (x4, y4, d4) = a, b, c, d
    e, f = d3 * d4, d1 * d2
    return (
        (x1 * x2 - y1 * y2) * e + (x3 * x4 - y3 * y4) * f == 0
        and (x1 * y2 + y1 * x2) * e + (x3 * y4 + y3 * x4) * f == 0
    )


def _pow_qi(v, n: int, p) -> Tuple[int, int, int]:
    # square-and-multiply on the Gaussian numerator, reduced once over d^n
    x, y, d = v
    re, im, e = 1, 0, n
    while True:
        if e & 1:
            re, im = re * x - im * y, re * y + im * x
        e >>= 1
        if not e:
            return _qi_reduced(re, im, d**n)
        x, y = x * x - y * y, 2 * x * y


class _Arith(NamedTuple):
    """One kind of field's payload formulas, each written once.  zero and
    one are payloads; every formula takes payloads and the modulus p last
    (0 off F_p), and returns a canonical payload or a verdict."""

    zero: Payload
    one: Payload
    add: Callable  # (a, b, p): a + b
    sub: Callable  # (a, b, p): a - b
    neg: Callable  # (a, p): -a
    mul: Callable  # (a, b, p): a * b
    ratio: Callable  # (a, b, c, p): a * b / c; a zero c raises DivisionByZero
    pow: Callable  # (a, n, p): a ** n for n >= 1
    mul_mul_sub: Callable  # (m, a, b, c, p): m * a * b - c
    node: Callable  # (x, y, z, m, torus, children, p): the node test holds
    vanishes: Callable  # (a, b, c, d, p): a * b + c * d == 0
    first_nonzero: Callable  # (payloads, table, p): first_nonzero_relation


_FP = _Arith(
    zero=0,
    one=1,
    add=lambda a, b, p: (a + b) % p,
    sub=lambda a, b, p: (a - b) % p,
    neg=lambda a, p: -a % p,
    mul=lambda a, b, p: a * b % p,
    ratio=_ratio_mod,
    # one builtin call: a nonzero residue has order dividing p - 1
    pow=lambda a, n, p: pow(a, n % (p - 1), p) if a else 0,
    mul_mul_sub=lambda m, a, b, c, p: (m * a * b - c) % p,
    node=_node_holds_mod,
    vanishes=lambda a, b, c, d, p: (a * b + c * d) % p == 0,
    first_nonzero=_first_nonzero_mod,
)

_Q = _Arith(
    zero=(0, 1),
    one=(1, 1),
    add=lambda a, b, p: _q_sum(*a, *b),
    sub=lambda a, b, p: _q_sum(a[0], a[1], -b[0], b[1]),
    neg=lambda a, p: (-a[0], a[1]),
    mul=lambda a, b, p: _q_product(*a, *b),
    ratio=_ratio_q,
    # gcd(a, b) = 1 and b > 0, so a^n / b^n is in lowest terms
    pow=lambda a, n, p: (a[0] ** n, a[1] ** n),
    mul_mul_sub=_mul_mul_sub_q,
    node=_node_holds_q,
    # the numerator of the sum over da db dc dd, which is positive
    vanishes=lambda a, b, c, d, p: a[0] * b[0] * c[1] * d[1] + c[0] * d[0] * a[1] * b[1] == 0,
    first_nonzero=_first_nonzero_q,
)

_QI = _Arith(
    zero=(0, 0, 1),
    one=(1, 0, 1),
    add=lambda a, b, p: _qi_sum(*a, *b),
    sub=lambda a, b, p: _qi_sum(a[0], a[1], a[2], -b[0], -b[1], b[2]),
    neg=lambda a, p: (-a[0], -a[1], a[2]),
    mul=lambda a, b, p: _qi_reduced(
        a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0], a[2] * b[2]
    ),
    ratio=_ratio_qi,
    pow=_pow_qi,
    mul_mul_sub=_mul_mul_sub_qi,
    node=_node_holds_qi,
    vanishes=_vanishes_qi,
    first_nonzero=_first_nonzero_qi,
)

# the slots of an exchange-tree cluster's children, in the next level's order,
# by the slot k its last exchange replaced (3 at the root): every slot but k.
# exchange_children builds children in this order; markov reads its words
# and tables from it
CHILD_SLOTS = ((1, 2), (0, 2), (0, 1), (0, 1, 2))


def _int_root(m: int, k: int) -> Optional[int]:
    """The exact k-th root of the integer m >= 0, if it is an integer."""
    if k >= m.bit_length():
        # 2^k > m, so only 0 and 1 can be roots
        return m if m < 2 else None
    if k == 2:
        r = math.isqrt(m)
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
        return self._v == self.ctx.arith.zero

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
        ctx = self.ctx
        return FieldValue(ctx, ctx.arith.add(self._v, other._v, ctx.p))

    def __sub__(self, other: "FieldValue") -> "FieldValue":
        self._check(other)
        ctx = self.ctx
        return FieldValue(ctx, ctx.arith.sub(self._v, other._v, ctx.p))

    def __neg__(self) -> "FieldValue":
        ctx = self.ctx
        return FieldValue(ctx, ctx.arith.neg(self._v, ctx.p))

    def __mul__(self, other: "FieldValue") -> "FieldValue":
        self._check(other)
        ctx = self.ctx
        return FieldValue(ctx, ctx.arith.mul(self._v, other._v, ctx.p))

    def mul_mul_sub(self, a: "FieldValue", b: "FieldValue", sub: "FieldValue") -> "FieldValue":
        """self * a * b - sub, as one operation that builds no value for the
        product: over Q the difference is formed over the product of the
        four denominators and reduced by one gcd; over Q(i) likewise, with
        the Gaussian product of the three numerators; over F_p it is reduced
        once.  The formula is the record's mul_mul_sub, which
        exchange_children uses too."""
        self._check(a)
        self._check(b)
        self._check(sub)
        ctx = self.ctx
        return FieldValue(ctx, ctx.arith.mul_mul_sub(self._v, a._v, b._v, sub._v, ctx.p))

    def inverse(self) -> "FieldValue":
        ctx, one = self.ctx, self.ctx.arith.one
        return FieldValue(ctx, ctx.arith.ratio(one, one, self._v, ctx.p))

    def __truediv__(self, other: "FieldValue") -> "FieldValue":
        self._check(other)
        ctx = self.ctx
        return FieldValue(ctx, ctx.arith.ratio(self._v, ctx.arith.one, other._v, ctx.p))

    def __pow__(self, n: int) -> "FieldValue":
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        if n < 0:
            return self.inverse() ** (-n)
        ctx = self.ctx
        return FieldValue(ctx, ctx.arith.pow(self._v, n, ctx.p) if n else ctx.arith.one)

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
        """The canonical text, every digit in full (see _decimal)."""
        k = self.ctx.kind
        if k == PRIME_FIELD:
            return f"{self._v} mod {self.ctx.p}"
        if k == RATIONALS:
            return _fraction_text(self._fractions())
        re, im = self._fractions()
        if im == 0:
            return _fraction_text(re)
        if im == 1:
            im_str = "i"
        elif im == -1:
            im_str = "-i"
        else:
            im_str = f"{_fraction_text(im)}i"
        if re == 0:
            return im_str
        sign = "+" if im > 0 else ""
        return f"{_fraction_text(re)}{sign}{im_str}"

    def __repr__(self) -> str:
        return f"<{self} : {self.ctx!r}>"


def _decimal(n: int) -> str:
    """The integer n in decimal, in full.  From Python 3.11, str() refuses
    an int longer than sys.get_int_max_str_digits() digits (4,300 by
    default), so such an int is split at a power of ten near its middle
    and each part is written the same way."""
    try:
        return str(n)
    except ValueError:
        pass
    if n < 0:
        return "-" + _decimal(-n)
    # about half of n's digits, as log10(2) > 3/10
    k = n.bit_length() * 3 // 20
    high, low = divmod(n, 10**k)
    return _decimal(high) + _decimal(low).zfill(k)


def _fraction_text(q: Fraction) -> str:
    """str(q), as Fraction writes it, with no limit on the digits."""
    num = _decimal(q.numerator)
    return num if q.denominator == 1 else f"{num}/{_decimal(q.denominator)}"


def product(ctx: FieldContext, values) -> FieldValue:
    out = ctx.one()
    for v in values:
        out = out * v
    return out
