"""Noncommutative polynomial algebra with quadratic-affine reordering rules.

A Presentation fixes an ordered generator list and, for out-of-order adjacent
generator pairs, a rewrite target that is a combination of normal-ordered
monomials of degree <= 2 plus an optional constant.  Rewriting never raises
degree.  Inside this module a word is `bytes`, one letter per generator
index; public entry points convert tuple words once.  The kernel, the
all-orders oracle and the flatness scan find out-of-order pairs with one
descent finder, `_descent`, and read their targets from one rule table,
`Presentation._targets`, through `Presentation._rule`.  `normal_form_words`
rewrites the largest pending word first in deglex order (longer words first,
then lexicographically later ones), always at its leftmost out-of-order pair.
When every rule target is smaller than the pair it replaces, as in Bergman's
diamond lemma, each word is then rewritten once, carrying the sum of every
coefficient that reaches it; a step budget guards presentations whose rules
do not decrease.  The flatness scan eliminates the one-step rewrite equations
with one division-free routine, twice: at a generic rational point to decide
monomial counts and discover relations, then once over the exact scalar ring
to re-verify every discovered relation symbolically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heappop, heappush
from math import comb
from typing import Mapping

from .scalars import QExact, QExactError

DEFAULT_STEP_BUDGET = 200_000
WORD_BUDGET = 30_000
DEFAULT_BRANCH_BUDGET = 20_000

# generic rational evaluation point for rank decisions: s = 7/5, q = 49/25
GENERIC_S = Fraction(7, 5)

# words are bytes, one letter per generator index
MAX_GENERATORS = 256
# reverses byte order, so that a min-heap pops lexicographically later first
_COMPLEMENT = bytes(range(255, -1, -1))


class PresentationError(ValueError):
    """Malformed presentation or mismatched operands."""


class MissingRuleError(PresentationError):
    """An out-of-order adjacent pair has no reordering rule."""


class DivergedError(RuntimeError):
    """A rewrite or scan exceeded its step budget."""


ExpVec = tuple[int, ...]


def _expand(expvec: ExpVec) -> bytes:
    return b"".join([bytes((g,)) * e for g, e in enumerate(expvec) if e])


def _word_expvec(word: bytes, arity: int) -> ExpVec:
    ev = [0] * arity
    for g in word:
        ev[g] += 1
    return tuple(ev)


def _descent(word: bytes, start: int = 0):
    """The leftmost out-of-order pair word[k] > word[k + 1] with k >= start, or None."""
    for k in range(start, len(word) - 1):
        if word[k] > word[k + 1]:
            return k
    return None


def _frozen(terms: Mapping[ExpVec, QExact]) -> tuple:
    return tuple(sorted((ev, c.freeze()) for ev, c in terms.items()))


@dataclass(frozen=True)
class Presentation:
    """Ordered generators plus reordering rules for out-of-order pairs.

    rules maps (left_gen, right_gen) with left_gen > right_gen to a tuple of
    (exponent vector, exact coefficient) targets.  generators[:n_coords] are
    coordinate symbols; the rest are operator symbols (used by the derivative
    action to encode "operator acting on 1 gives 0").  Rewriting reads the
    rules only from `_targets`, through `_rule`: pair word -> ((target word,
    coefficient or None for 1), ...), every word in bytes.
    """

    generators: tuple[str, ...]
    rules: Mapping[tuple[int, int], tuple[tuple[ExpVec, QExact], ...]]
    n_coords: int = field(default=-1)
    name: str = "custom"

    def __post_init__(self):
        k = len(self.generators)
        if k == 0 or len(set(self.generators)) != k:
            raise PresentationError("generators must be distinct and nonempty")
        if k > MAX_GENERATORS:
            raise PresentationError(
                f"{k} generators; at most {MAX_GENERATORS} are supported"
            )
        if self.n_coords == -1:
            object.__setattr__(self, "n_coords", k)
        if not 0 <= self.n_coords <= k:
            raise PresentationError("coordinate count out of range")
        for (b, a), targets in self.rules.items():
            if not (0 <= a < k and 0 <= b < k and b > a):
                raise PresentationError(
                    f"rule key ({b},{a}) must name an out-of-order pair"
                )
            for ev, coeff in targets:
                if len(ev) != k or any(e < 0 for e in ev):
                    raise PresentationError(f"bad target exponent vector {ev}")
                if sum(ev) > 2:
                    raise PresentationError(
                        "rule targets must have degree <= 2 (degree never increases)"
                    )
                if not isinstance(coeff, QExact) or coeff.is_zero():
                    raise PresentationError("rule coefficients must be nonzero QExact")
        object.__setattr__(self, "_targets", {
            bytes(pair): tuple(
                (bytes(_expand(ev)), None if c.is_one() else c) for ev, c in targets
            )
            for pair, targets in self.rules.items()
        })

    @property
    def arity(self) -> int:
        return len(self.generators)

    def index(self, name: str) -> int:
        try:
            return self.generators.index(name)
        except ValueError:
            raise PresentationError(
                f"unknown generator {name!r}; have {', '.join(self.generators)}"
            ) from None

    def _rule(self, pair: bytes):
        """The `_targets` entry of an out-of-order pair word, or MissingRuleError."""
        try:
            return self._targets[pair]
        except KeyError:
            gl, gr = self.generators[pair[0]], self.generators[pair[1]]
            raise MissingRuleError(
                f"no reordering rule for {gl}*{gr} in presentation {self.name!r}"
            ) from None

    def gen(self, name: str) -> "NCPoly":
        ev = [0] * self.arity
        ev[self.index(name)] = 1
        return NCPoly(self, {tuple(ev): QExact.one()})

    def one(self) -> "NCPoly":
        return NCPoly(self, {(0,) * self.arity: QExact.one()})

    def zero(self) -> "NCPoly":
        return NCPoly(self, {})

    def scalar(self, value) -> "NCPoly":
        return NCPoly(self, {(0,) * self.arity: QExact._coerce(value)})


def normal_form_words(
    pres: Presentation,
    word_terms: Mapping[bytes, QExact],
    budget: int = DEFAULT_STEP_BUDGET,
) -> "NCPoly":
    """Rewrite a combination of raw words to its normal form.

    Pending words wait in one dict (word -> coefficient), so that branches
    reaching the same word merge and their coefficients can cancel.  The
    largest pending word in deglex order is popped first and rewritten at
    its leftmost out-of-order pair.  If every rule target is smaller than
    the pair it replaces, every word it produces is smaller than itself, so
    no word is popped twice: the steps are the distinct non-normal words
    reached.  Otherwise a word can come back, and more than `budget` steps
    raise DivergedError.
    """
    rule_of = pres._rule
    arity = pres.arity
    result: dict[ExpVec, QExact] = {}
    pending: dict[bytes, QExact] = {}
    heap: list = []
    for w, c in word_terms.items():
        c = QExact._coerce(c)
        acc = pending.get(w)
        if acc is None:
            pending[w] = c
            heappush(heap, (-len(w), w.translate(_COMPLEMENT), w))
        else:
            pending[w] = acc + c
    steps = 0
    while heap:
        word = heappop(heap)[2]
        coeff = pending.pop(word)
        if coeff.is_zero():
            continue
        pos = _descent(word)
        if pos is None:
            ev = _word_expvec(word, arity)
            acc = result.get(ev)
            acc = coeff if acc is None else acc + coeff
            if acc.is_zero():
                result.pop(ev, None)
            else:
                result[ev] = acc
            continue
        steps += 1
        if steps > budget:
            raise DivergedError(
                f"rewrite budget of {budget} steps exceeded "
                f"(presentation {pres.name!r} is not terminating here)"
            )
        head, tail = word[:pos], word[pos + 2:]
        for target, c in rule_of(word[pos:pos + 2]):
            nw = head + target + tail
            term = coeff if c is None else coeff * c
            acc = pending.get(nw)
            if acc is None:
                pending[nw] = term
                heappush(heap, (-len(nw), nw.translate(_COMPLEMENT), nw))
            else:
                pending[nw] = acc + term
    return NCPoly(pres, result)


def _check_letters(pres: Presentation, word: tuple[int, ...]) -> None:
    """Refuse a raw word with a letter that indexes no generator."""
    k = pres.arity
    for g in word:
        if not 0 <= g < k:
            raise PresentationError(
                f"letter {g!r} of word {tuple(word)} is no generator index: "
                f"presentation {pres.name!r} has {k} generators, 0..{k - 1}"
            )


def normal_form(pres: Presentation, value, budget: int = DEFAULT_STEP_BUDGET) -> "NCPoly":
    """Normal form of a word, a word->coefficient mapping, or an NCPoly."""
    if isinstance(value, NCPoly):
        if value.pres is not pres:
            raise PresentationError("polynomial belongs to a different presentation")
        return value  # normal by construction
    if isinstance(value, tuple):
        value = {value: QExact.one()}
    elif not isinstance(value, Mapping):
        raise TypeError(f"cannot normalize {value!r}")
    for word in value:
        _check_letters(pres, word)
    return normal_form_words(pres, {bytes(w): c for w, c in value.items()}, budget)


class NCPoly:
    """Finitely supported combination of normal-ordered monomials."""

    __slots__ = ("pres", "terms")

    def __init__(self, pres: Presentation, terms: Mapping[ExpVec, QExact]):
        clean: dict[ExpVec, QExact] = {}
        for ev, c in terms.items():
            c = QExact._coerce(c)
            if not c.is_zero():
                clean[tuple(ev)] = c
        self.pres = pres
        self.terms = clean

    # -- ring operations --------------------------------------------------

    def _check_same(self, other: "NCPoly"):
        if self.pres is not other.pres:
            raise PresentationError("operands belong to different presentations")

    def __add__(self, other):
        if not isinstance(other, NCPoly):
            other = self.pres.scalar(other)
        self._check_same(other)
        out = dict(self.terms)
        for ev, c in other.terms.items():
            acc = out.get(ev)
            acc = c if acc is None else acc + c
            if acc.is_zero():
                out.pop(ev, None)
            else:
                out[ev] = acc
        return NCPoly(self.pres, out)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, NCPoly):
            other = self.pres.scalar(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return NCPoly(self.pres, {ev: -c for ev, c in self.terms.items()})

    def scale(self, scalar) -> "NCPoly":
        s = QExact._coerce(scalar)
        return NCPoly(self.pres, {ev: c * s for ev, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, NCPoly):
            return self.scale(other)
        self._check_same(other)
        words: dict[bytes, QExact] = {}
        for ev1, c1 in self.terms.items():
            w1 = _expand(ev1)
            for ev2, c2 in other.terms.items():
                w = w1 + _expand(ev2)
                acc = words.get(w)
                acc = c1 * c2 if acc is None else acc + c1 * c2
                if acc.is_zero():
                    words.pop(w, None)
                else:
                    words[w] = acc
        return normal_form_words(self.pres, words)

    def __rmul__(self, other):
        # scalars commute with everything; NCPoly*NCPoly handled by __mul__
        return self.scale(other)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise PresentationError("polynomial powers must be nonnegative integers")
        acc = self.pres.one()
        for _ in range(n):
            acc = acc * self
        return acc

    def __eq__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self.pres is other.pres and self.terms == other.terms

    def __hash__(self):
        return hash(self.freeze())

    def freeze(self):
        return _frozen(self.terms)

    # -- predicates and views ---------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((sum(ev) for ev in self.terms), default=0)

    def coefficient(self, expvec: ExpVec) -> QExact:
        return self.terms.get(tuple(expvec), QExact.zero())

    def supported_on_coords(self) -> bool:
        nc = self.pres.n_coords
        return all(all(e == 0 for e in ev[nc:]) for ev in self.terms)

    # -- rendering -------------------------------------------------------

    def _monomial_str(self, ev: ExpVec) -> str:
        parts = []
        for name, e in zip(self.pres.generators, ev):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"

    @staticmethod
    def _term_key(ev: ExpVec):
        # ascending degree; within a degree, most unbalanced exponent pattern
        # first, ties broken by descending lexicographic exponent vector
        imbalance = sum(e * e for e in ev)
        return (sum(ev), -imbalance, tuple(-e for e in ev))

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for ev in sorted(self.terms, key=self._term_key):
            c = self.terms[ev]
            mono = self._monomial_str(ev)
            if mono == "1":
                parts.append(c.render())
                continue
            if c.is_one():
                parts.append(mono)
            elif c == QExact.rational(-1):
                parts.append(f"-{mono}")
            elif c.is_monomial():
                parts.append(f"{c.render()}*{mono}")
            else:
                parts.append(f"({c.render()})*{mono}")
        out = parts[0]
        for p in parts[1:]:
            if p.startswith("-"):
                out += f" - {p[1:]}"
            else:
                out += f" + {p}"
        return out

    def __repr__(self):
        return f"NCPoly[{self.render()}]"


def check_identity(lhs: NCPoly, rhs: NCPoly) -> bool:
    """Exact equality of normal forms."""
    if not isinstance(lhs, NCPoly) or not isinstance(rhs, NCPoly):
        raise PresentationError("check_identity expects two polynomials")
    lhs._check_same(rhs)
    return (lhs - rhs).is_zero()


# ---------------------------------------------------------------------------
# brute-force reduction under all rewrite orders (confluence oracle)


def all_normal_forms(
    pres: Presentation, word: tuple[int, ...], budget: int = DEFAULT_BRANCH_BUDGET
) -> set:
    """All normal forms reachable from a word under every rewrite order.

    Returns a set of frozen polynomials, as NCPoly.freeze gives them.  A cyclic
    rewrite dependency or a combinatorial blowup raises DivergedError.
    """
    _check_letters(pres, word)
    arity = pres.arity
    one = QExact.one()
    # memo values: tuple of term dicts (one per reachable normal form)
    memo: dict[bytes, tuple[dict, ...]] = {}
    active: set[bytes] = set()
    counter = [0]

    def _add_into(out: dict, terms: dict, coeff: QExact) -> None:
        for ev, c in terms.items():
            acc = out.get(ev)
            acc = coeff * c if acc is None else acc + coeff * c
            if acc.is_zero():
                out.pop(ev, None)
            else:
                out[ev] = acc

    def anf(w: bytes) -> tuple[dict, ...]:
        if w in memo:
            return memo[w]
        if w in active:
            raise DivergedError(
                f"cyclic rewriting reachable from a word in {pres.name!r}"
            )
        pos = _descent(w)
        if pos is None:
            res = ({_word_expvec(w, arity): one},)
            memo[w] = res
            return res
        active.add(w)
        seen: set = set()
        results: list[dict] = []
        while pos is not None:
            head, tail = w[:pos], w[pos + 2:]
            combos: list[dict] = [{}]
            for target, c in pres._rule(w[pos:pos + 2]):
                children = anf(head + target + tail)
                new_combos = []
                for base in combos:
                    for child in children:
                        counter[0] += 1
                        if counter[0] > budget:
                            raise DivergedError(
                                f"branch budget of {budget} exceeded while "
                                "enumerating rewrite orders"
                            )
                        merged = dict(base)
                        _add_into(merged, child, one if c is None else c)
                        new_combos.append(merged)
                combos = new_combos
            for d in combos:
                key = _frozen(d)
                if key not in seen:
                    seen.add(key)
                    results.append(d)
            pos = _descent(w, pos + 1)
        active.discard(w)
        res = tuple(results)
        memo[w] = res
        return res

    return {_frozen(d) for d in anf(bytes(word))}


# ---------------------------------------------------------------------------
# derivative action on coordinate polynomials


def derivative_apply(d_symbol: str, poly: NCPoly) -> NCPoly:
    """Act with an operator generator on a coordinate polynomial.

    Computes the normal form of d*poly, then drops every monomial that still
    contains an operator symbol (the operator acting on 1 gives 0).
    """
    pres = poly.pres
    d_idx = pres.index(d_symbol) if isinstance(d_symbol, str) else int(d_symbol)
    if d_idx < pres.n_coords:
        raise PresentationError(
            f"{pres.generators[d_idx]!r} is a coordinate, not an operator symbol"
        )
    if not poly.supported_on_coords():
        raise PresentationError("polynomial must contain coordinate symbols only")
    d_letter = bytes((d_idx,))
    words = {d_letter + _expand(ev): c for ev, c in poly.terms.items()}
    pushed = normal_form_words(pres, words)
    nc = pres.n_coords
    kept = {
        ev: c
        for ev, c in pushed.terms.items()
        if all(e == 0 for e in ev[nc:])
    }
    return NCPoly(pres, kept)


# ---------------------------------------------------------------------------
# flatness scan


@dataclass(frozen=True)
class FlatnessReport:
    presentation: str
    max_degree: int
    counts: tuple[int, ...]        # reachable normal monomials per degree 0..D
    flat_counts: tuple[int, ...]   # binomial reference counts per degree
    relations: tuple[NCPoly, ...]  # discovered relations, symbolically verified

    @property
    def is_flat(self) -> bool:
        return not self.relations and self.counts == self.flat_counts

    def relation_degrees(self) -> tuple[int, ...]:
        return tuple(r.degree() for r in self.relations)


def _one_step_rows(pres: Presentation, words: list[bytes]):
    """One-step rewrite equations word - image = 0, as sparse rows."""
    one = QExact.one()
    # negate each distinct rule coefficient once, so that the rows share them
    negated = {None: -one}
    rows = []
    for w in words:
        pos = _descent(w)
        while pos is not None:
            # a target is normal and the pair is not, so no image word is w
            row: dict[bytes, QExact] = {w: one}
            head, tail = w[:pos], w[pos + 2:]
            for target, c in pres._rule(w[pos:pos + 2]):
                nw = head + target + tail
                neg_c = negated.get(c)
                if neg_c is None:
                    neg_c = negated[c] = -c
                acc = row.get(nw)
                acc = neg_c if acc is None else acc + neg_c
                if acc.is_zero():
                    row.pop(nw, None)
                else:
                    row[nw] = acc
            rows.append(row)
            pos = _descent(w, pos + 1)
    return rows


def _lead(row: dict, order: dict):
    return min(row, key=order.__getitem__)


def _sub_multiple(row: dict, b, pivot: dict) -> None:
    """row <- row - b*pivot in place, dropping entries that cancel."""
    neg_b = -b
    for c, v in pivot.items():
        acc = row.get(c)
        acc = neg_b * v if acc is None else acc + neg_b * v
        if acc.is_zero():
            row.pop(c, None)
        else:
            row[c] = acc


def _reduce(row: dict, pivots: dict, order: dict) -> dict:
    """Reduce a sparse row against an echelon form without dividing.

    While the leading column of `row` has a pivot row, replaces
    row <- a*row - b*pivot with a, b the leading entries of pivot and row.
    Over an integral domain a nonzero `a` never changes whether the row lies
    in the span, so the remainder is zero exactly when it does.
    """
    row = dict(row)
    while row:
        col = _lead(row, order)
        pivot = pivots.get(col)
        if pivot is None:
            break
        a, b = pivot[col], row[col]
        if not a.is_one():
            row = {c: a * v for c, v in row.items()}
        _sub_multiple(row, b, pivot)
    return row


def _echelon(rows, order: dict, pivots: dict) -> dict:
    """Grow the echelon form `pivots` (leading column -> row) in place."""
    for raw in rows:
        row = _reduce(raw, pivots, order)
        if row:
            pivots[_lead(row, order)] = row
    return pivots


def _column_order(words: list[bytes], normal: set[bytes]) -> dict:
    """Non-normal words shortest first, then normal words longest first.

    Among normal words of one length, ascending words have descending
    exponent vectors.
    """
    first = sorted((w for w in words if w not in normal), key=lambda w: (len(w), w))
    last = sorted(normal, key=lambda w: (-len(w), w))
    return {w: k for k, w in enumerate(first + last)}


def flatness_scan(pres: Presentation, max_degree: int) -> FlatnessReport:
    """Count reachable normal monomials per degree and discover relations.

    Every one-step rewrite of every word of degree <= max_degree yields a
    linear equation word - image = 0.  Normal words are eliminated last, so
    the relations are the echelon rows led by normal words.  One
    division-free elimination (`_echelon`) serves both passes:

    - at the generic point s = 7/5, its rows led by normal words give the
      counts per degree; back-reduced among themselves to unit leads, they
      are the discovered relations (the reduced echelon form is unique);
    - over the exact scalar ring, all rows are echeloned once (only when a
      relation was found) and each relation, lifted to exact coefficients,
      is reduced against that form.  A nonzero remainder means the lift was
      unsound and raises QExactError.

    counts[d] is the number of normal words of length d that lead no
    relation.  For a homogeneous presentation that is the dimension of the
    degree-d part of the algebra.  For an inhomogeneous presentation that
    collapses it is not a dimension: the commutative Weyl algebra with the
    wrong rule dy*dx -> 2*dx*dy reports counts (0, 2, 3, 20, 35) at
    max_degree 4, so 1 is a relation and the algebra is zero, yet the
    counts above degree 0 are not.
    """
    if max_degree > 8:
        raise PresentationError("flatness scan supports max_degree <= 8")
    if max_degree < 0:
        raise PresentationError(f"flatness scan needs max_degree >= 0, got {max_degree}")
    k = pres.arity
    total = sum(k ** d for d in range(max_degree + 1))
    if total > WORD_BUDGET:
        raise DivergedError(
            f"word budget exceeded: {total} words of degree <= {max_degree} "
            f"over {k} generators (budget {WORD_BUDGET})"
        )

    letters = [bytes((g,)) for g in range(k)]
    words = [b""]
    frontier = [b""]
    for _ in range(max_degree):
        frontier = [w + g for w in frontier for g in letters]
        words.extend(frontier)

    normal = {w for w in words if _descent(w) is None}
    order = _column_order(words, normal)
    rows = _one_step_rows(pres, words)
    # the rows hold few distinct coefficients: evaluate each one once
    values: dict = {}

    def at_generic(c: QExact):
        v = values.get(c)
        if v is None:
            v = values[c] = c.eval_at_s(GENERIC_S)
        return v

    generic = _echelon(
        ({w: at_generic(c) for w, c in row.items()} for row in rows),
        order,
        {},
    )
    leads = sorted((col for col in generic if col in normal), key=order.__getitem__)
    if any(w not in normal for col in leads for w in generic[col]):
        # cannot happen given the column ordering; guard anyway
        raise DivergedError("relation row touches non-normal columns")

    counts = []
    flat_counts = []
    for d in range(max_degree + 1):
        n_normal = comb(d + k - 1, k - 1)
        counts.append(n_normal - sum(1 for col in leads if len(col) == d))
        flat_counts.append(n_normal)

    # back-reduce the relation rows among themselves, last lead first
    reduced: dict = {}
    for col in reversed(leads):
        lead = generic[col][col]
        row = {w: v / lead for w, v in generic[col].items()}
        for w in [w for w in row if w in reduced]:
            _sub_multiple(row, row[w], reduced[w])
        reduced[col] = row
    relations = [
        NCPoly(pres, {_word_expvec(w, k): QExact.gauss(v) for w, v in reduced[col].items()})
        for col in leads
    ]

    # symbolic re-check of the lifted relations against one exact echelon
    # form of all rows: with inhomogeneous rules a relation of low degree can
    # need rows of any length
    symbolic = _echelon(rows, order, {}) if relations else {}
    for rel in sorted(relations, key=NCPoly.degree):
        if _reduce({_expand(ev): c for ev, c in rel.terms.items()}, symbolic, order):
            raise QExactError(
                f"discovered relation {rel.render()!r} failed the "
                "symbolic re-check; generic-point lift is unsound here"
            )

    return FlatnessReport(
        presentation=pres.name,
        max_degree=max_degree,
        counts=tuple(counts),
        flat_counts=tuple(flat_counts),
        relations=tuple(relations),
    )
