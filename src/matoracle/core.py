"""Ground sets, concrete matroid implementations, and the record of a
returned basis.

Element sets are bit masks over element ids 0..n-1 (Python ints, so the same
interface covers any n).  A :class:`GroundSet` fixes the canonical ordering all
prefix operations use: non-increasing weight, with designated-basis elements
before others among equal weights, and input position as the final tie-break.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress


# largest n whose 2^n subsets are enumerated: basis η and the matroid check,
# the intersection errors, and the superset precheck of the dirty
# intersection
ENUM_GUARD = 20
INTERSECTION_GUARD = 16
PRECHECK_GUARD = 14

# GroundSet keeps the prefix mask of every PREFIX_STRIDE-th position only, so
# its prefix state is n^2 / PREFIX_STRIDE bits instead of n^2
PREFIX_STRIDE = 64


class GuardExceeded(RuntimeError):
    """Raised when an exponential enumeration would exceed its size guard."""


def ceil_log2(x):
    """Ceiling of log2 with the convention ceil_log2(x) = 0 for x <= 1."""
    if x <= 1:
        return 0
    return int(x - 1).bit_length()


def iter_bits(mask):
    """Yield set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _scan_bits(mask):
    """Set bit positions of mask in ascending order, by one scan of its binary
    string: linear in the mask's length, where iter_bits rewrites the whole
    int at every step (iter_bits stays faster for masks of a few words).
    The partition class table uses it: one scan per class reads each id
    once, where a byte flag pass per class would read all n."""
    bits = bin(mask)[:1:-1]
    e = bits.find("1")
    while e >= 0:
        yield e
        e = bits.find("1", e + 1)


_FLAG_OF_DIGIT = bytes.maketrans(b"01", b"\0\1")


def _flags(mask, n):
    """One byte per element id 0..n-1: 1 for the members of mask, else 0."""
    return bytearray(format(mask, f"0{n}b")[::-1].encode().translate(_FLAG_OF_DIGIT))


@dataclass(frozen=True, slots=True)
class ElementSet:
    """Immutable subset of the ground set over ids 0..n-1: the basis an
    algorithm returns.  Everything inside the library is a plain int mask."""

    n: int
    mask: int = 0

    def __post_init__(self):
        if self.mask < 0 or self.mask >> self.n:
            raise ValueError("mask has bits outside 0..n-1")

    def __len__(self):
        return self.mask.bit_count()

    def __contains__(self, e):
        return bool(self.mask >> e & 1)

    def __iter__(self):
        return iter_bits(self.mask)

    def __repr__(self):
        return f"{type(self).__name__}({self.n}, {{{', '.join(map(str, self))}}})"


def _as_weight(w):
    if isinstance(w, Fraction) or type(w) is int:  # JSON true and false are not weights
        return w
    if isinstance(w, str) and "/" in w:
        num, den = w.split("/", 1)
        return Fraction(int(num), int(den))
    if isinstance(w, str):
        return int(w)
    raise ValueError(f"weights must be exact (int or Fraction), got {type(w).__name__}")


class GroundSet:
    """Element universe with weights and the canonical tie-broken ordering.

    Sorting is by non-increasing weight; among equal weights, members of the
    designated dirty basis precede non-members; input position breaks any
    remaining tie.  The order is computed once and is immutable.  The ground
    also keeps the weight order alone (ids by non-increasing weight, id
    ascending), from which with_dirty_basis derives the order around a new
    dirty basis; pos, the position of each id, is built on first use (the
    prefix walk and tests read it).
    """

    __slots__ = ("n", "weights", "order", "_by_weight", "_pos", "_prefix_masks", "full_mask")

    def __init__(self, weights, dirty_basis=0, _by_weight=None):
        # _by_weight, the weight order of weights, is passed only by
        # with_dirty_basis, whose weights are already checked
        if _by_weight is None:
            weights = tuple(weights)
            # plain ints are checked at C speed; other weights are converted
            # one by one
            if not set(map(type, weights)) <= {int}:
                weights = tuple(map(_as_weight, weights))
            if weights and min(weights) < 0:
                raise ValueError("weights must be non-negative")
            _by_weight = sorted(range(len(weights)), key=weights.__getitem__, reverse=True)
        n = len(weights)
        if dirty_basis >> n:
            raise ValueError("dirty basis has elements outside the ground set")
        order = _by_weight
        if dirty_basis:
            # a stable partition of the weight order, dirty basis members
            # first, then one stable weight sort: a merge of the two runs
            inside = _flags(dirty_basis, n)
            order = [e for e in _by_weight if inside[e]]
            order += [e for e in _by_weight if not inside[e]]
            order.sort(key=weights.__getitem__, reverse=True)
        order = tuple(order)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "_by_weight", _by_weight if dirty_basis else order)
        # the position table and the prefix checkpoints are built on first use
        object.__setattr__(self, "_pos", ())
        object.__setattr__(self, "_prefix_masks", ())
        object.__setattr__(self, "full_mask", (1 << n) - 1 if n else 0)

    def __setattr__(self, name, value):
        raise AttributeError("GroundSet is immutable")

    @classmethod
    def unit(cls, n, dirty_basis=0):
        return cls([1] * n, dirty_basis)

    def with_dirty_basis(self, dirty_basis):
        """Rebuild the canonical order around a (newly computed) dirty basis
        mask, from the kept weight order: no weight is checked or sorted
        again."""
        return GroundSet(self.weights, dirty_basis, self._by_weight)

    @property
    def pos(self):
        """The canonical position of each id."""
        if len(self._pos) != self.n:
            pos = [0] * self.n
            for p, e in enumerate(self.order):
                pos[e] = p
            object.__setattr__(self, "_pos", tuple(pos))
        return self._pos

    def prefix_mask(self, p):
        """Mask of elements with canonical position <= p (empty for p < 0)."""
        if p < 0:
            return 0
        j = (p + 1) // PREFIX_STRIDE
        mask = (self._prefix_masks or self._build_prefix_masks())[j]
        for e in self.order[j * PREFIX_STRIDE : p + 1]:
            mask |= 1 << e
        return mask

    def _build_prefix_masks(self):
        """Checkpoint j holds the elements at positions < j * PREFIX_STRIDE;
        bits go into a byte buffer, so each checkpoint is one conversion."""
        order = self.order
        prefix_masks = [0]
        buf = bytearray((self.n + 7) // 8)
        for end in range(PREFIX_STRIDE, self.n + 1, PREFIX_STRIDE):
            for e in order[end - PREFIX_STRIDE : end]:
                buf[e >> 3] |= 1 << (e & 7)
            prefix_masks.append(int.from_bytes(buf, "little"))
        object.__setattr__(self, "_prefix_masks", tuple(prefix_masks))
        return self._prefix_masks

    def _members(self, mask):
        """mask as one byte per element id; a ValueError for bits outside
        0..n-1."""
        if mask >> self.n:
            raise ValueError("mask has bits outside 0..n-1")
        return _flags(mask, self.n)

    def outside(self, skip):
        """The elements outside the mask skip, in canonical order; skip is
        read once, as one byte per element."""
        skipped = _flags(skip, self.n)
        return [e for e in self.order if not skipped[e]]

    def positions(self, mask):
        """Ascending canonical positions of the members of mask."""
        members = self._members(mask)
        return [p for p, e in enumerate(self.order) if members[e]]

    def weight(self, mask):
        return sum(compress(self.weights, self._members(mask)))

    @property
    def unit_weights(self):
        return not self.n or self.weights.count(self.weights[0]) == self.n


class MatroidSpec:
    """Base class for independence-system specifications bound to a ground
    set.  A kind gives its incremental state (_empty) and one full pass over
    a set (_load); independence and rank follow from the pass, and every
    query goes through the evaluator built over the two."""

    kind = "abstract"

    def __init__(self, ground):
        self.ground = ground
        self.n = ground.n

    def _empty(self):
        """The state of the empty set: fits(e) says whether the set plus e is
        independent, grow(e) adds e when it fits and says whether it did,
        and scan(candidates) grows by each candidate in turn."""
        raise NotImplementedError

    def _load(self, mask, stop_if_dependent):
        """(size, state): the rank of mask and the state of the independent
        set of that size the pass kept, mask itself when it is independent;
        (-1, None) for a dependent mask when stop_if_dependent is set."""
        raise NotImplementedError

    def is_independent_mask(self, mask):
        return self._load(mask, True)[0] >= 0

    def rank_mask(self, mask):
        return self._load(mask, False)[0]

    def evaluator(self):
        """A fresh per-run evaluator (see _AnchoredEvaluator)."""
        return _AnchoredEvaluator(self)

    def rebind(self, ground):
        """Same independence rule over a reordered copy of the ground set."""
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__)
        clone.ground = ground
        return clone

    def to_config(self):
        raise NotImplementedError

    def full_rank(self):
        return self.rank_mask(self.ground.full_mask)


class UniformMatroid(MatroidSpec):
    """S independent iff |S| <= k."""

    kind = "uniform"

    def __init__(self, ground, k):
        super().__init__(ground)
        if type(k) is not int or k < 0:
            raise ValueError(f"uniform matroid needs an integer k >= 0, got {k!r}")
        self.k = k

    def _empty(self):
        return _Count(self.k, 0)

    def _load(self, mask, stop_if_dependent):
        size = mask.bit_count()
        if size > self.k and stop_if_dependent:
            return -1, None
        return min(size, self.k), _Count(self.k, min(size, self.k))

    def to_config(self):
        return {"kind": "uniform", "k": self.k}


class PartitionMatroid(MatroidSpec):
    """Classes partition E; S independent iff |S ∩ C_i| <= cap_i for all i."""

    kind = "partition"

    def __init__(self, ground, class_masks, caps):
        super().__init__(ground)
        if len(class_masks) != len(caps):
            raise ValueError("classes and caps must have equal length")
        seen = 0
        for m in class_masks:
            if m & seen:
                raise ValueError("classes overlap")
            seen |= m
        if seen != ground.full_mask:
            raise ValueError("classes do not cover the ground set")
        if not all(type(c) is int and c >= 0 for c in caps):
            raise ValueError(f"caps must be non-negative integers, got {caps!r}")
        self.class_masks = tuple(class_masks)
        self.caps = tuple(caps)
        # the element -> class table, filled by the first _class_of call and
        # shared with rebind clones
        self._classes = []

    def _class_of(self):
        if len(self._classes) != self.n:
            table = [0] * self.n
            for i, m in enumerate(self.class_masks):
                for e in _scan_bits(m):
                    table[e] = i
            self._classes += table
        return self._classes

    def _class_counts(self, mask, stop_over_cap):
        """Members of mask per class; None as soon as one class is over its
        cap when stop_over_cap is set."""
        counts = []
        for m, c in zip(self.class_masks, self.caps):
            k = (mask & m).bit_count()
            if k > c and stop_over_cap:
                return None
            counts.append(k)
        return counts

    def is_independent_mask(self, mask):
        return self._class_counts(mask, stop_over_cap=True) is not None

    def rank_mask(self, mask):
        return sum(map(min, self._class_counts(mask, stop_over_cap=False), self.caps))

    def _empty(self):
        return _ClassCounts(self._class_of(), self.caps, [0] * len(self.caps))

    def _load(self, mask, stop_if_dependent):
        counts = self._class_counts(mask, stop_if_dependent)
        if counts is None:
            return -1, None
        return sum(map(min, counts, self.caps)), _ClassCounts(self._class_of(), self.caps, counts)

    def evaluator(self):
        return _PartitionEvaluator(self)

    def to_config(self):
        return {
            "kind": "partition",
            "classes": [sorted(iter_bits(m)) for m in self.class_masks],
            "caps": list(self.caps),
        }


class GraphicMatroid(MatroidSpec):
    """Element j is edge j of a multigraph; S independent iff acyclic."""

    kind = "graphic"

    def __init__(self, ground, num_vertices, edges):
        super().__init__(ground)
        if len(edges) != self.n:
            raise ValueError("need exactly one edge per element")
        if type(num_vertices) is not int:
            raise ValueError(f"vertices must be an integer, got {num_vertices!r}")
        for u, v in edges:
            if not (type(u) is int and type(v) is int):
                raise ValueError(f"edge ({u!r},{v!r}) has an endpoint that is not an integer")
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise ValueError(f"edge ({u},{v}) outside vertex range")
        self.num_vertices = num_vertices
        self.edges = tuple((u, v) for u, v in edges)

    def _empty(self):
        return _Forest(self.edges, list(range(self.num_vertices)))

    def _load(self, mask, stop_if_dependent):
        # a spanning forest of mask, edge by edge
        return _grow_all(self._empty(), iter_bits(mask), mask, stop_if_dependent)

    def to_config(self):
        return {"kind": "graphic", "vertices": self.num_vertices, "edges": [list(e) for e in self.edges]}


class PredictedBasisOracle(MatroidSpec):
    """The matroid (E, 2^{B_d}) induced by a predicted basis."""

    kind = "predicted_basis"

    def __init__(self, ground, basis_mask):
        super().__init__(ground)
        self.basis_mask = basis_mask
        if basis_mask >> self.n:
            raise ValueError("predicted basis outside the ground set")
        # one state serves every set: it keeps nothing of the set
        self._inside = _Inside(_flags(basis_mask, self.n))

    def _empty(self):
        return self._inside

    def _load(self, mask, stop_if_dependent):
        if stop_if_dependent and mask & ~self.basis_mask:
            return -1, None
        return (mask & self.basis_mask).bit_count(), self._inside

    def to_config(self):
        return {"kind": "predicted_basis", "basis": sorted(iter_bits(self.basis_mask))}


class ExplicitSystem(MatroidSpec):
    """Downward-closed system given by its maximal sets; not necessarily a matroid.

    Accepted as a dirty oracle only; ``errors.is_matroid`` tells whether it
    is a matroid.
    """

    kind = "explicit"

    def __init__(self, ground, maximal_masks):
        super().__init__(ground)
        if any(m >> self.n for m in maximal_masks):
            raise ValueError("maximal set outside the ground set")
        # drop sets dominated by another listed set so "maximal" is honest; only
        # a set with more elements can dominate, so walk the sizes downwards
        # and compare against the maximal sets kept so far (an antichain needs
        # no comparison at all)
        by_size = {}
        for m in set(maximal_masks):
            by_size.setdefault(m.bit_count(), []).append(m)
        maximal = []
        for size in sorted(by_size, reverse=True):
            maximal += [m for m in by_size[size] if not any(m & ~o == 0 for o in maximal)]
        self.maximal_masks = tuple(sorted(maximal))
        if not self.maximal_masks:
            self.maximal_masks = (0,)

    def is_independent_mask(self, mask):
        return any(mask & ~m == 0 for m in self.maximal_masks)

    def _empty(self):
        return _Members(self.is_independent_mask)

    def _load(self, mask, stop_if_dependent):
        # a greedy pass over mask in canonical order: exact for matroids,
        # defined behavior otherwise
        elements = self.ground.outside(self.ground.full_mask & ~mask)
        return _grow_all(self._empty(), elements, mask, stop_if_dependent)

    def to_config(self):
        return {"kind": "explicit", "maximal_sets": [sorted(iter_bits(m)) for m in self.maximal_masks]}


def _find(parent, x):
    """Root of x in a union-find, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _grow_all(state, elements, mask, stop_if_dependent):
    """MatroidSpec._load by growing state by each of elements, the members
    of mask, in turn."""
    if stop_if_dependent:
        return (mask.bit_count(), state) if all(map(state.grow, elements)) else (-1, None)
    return sum(map(state.grow, elements)), state


class _State:
    """The incremental state of a set (see MatroidSpec._empty)."""

    __slots__ = ()

    def scan(self, candidates):
        return list(map(self.grow, candidates))


class _Count(_State):
    """Uniform: the size of the set; a scan is answered in closed form."""

    __slots__ = ("k", "size")

    def __init__(self, k, size):
        self.k, self.size = k, size

    def fits(self, e):
        return self.size < self.k

    def grow(self, e):
        ok = self.size < self.k
        self.size += ok
        return ok

    def scan(self, candidates):
        room = min(max(self.k - self.size, 0), len(candidates))
        self.size += room
        return [True] * room + [False] * (len(candidates) - room)


class _ClassCounts(_State):
    """Partition: the count per class of the set, over an element -> class
    table."""

    __slots__ = ("class_of", "caps", "counts")

    def __init__(self, class_of, caps, counts):
        self.class_of, self.caps, self.counts = class_of, caps, counts

    def fits(self, e):
        c = self.class_of[e]
        return self.counts[c] < self.caps[c]

    def grow(self, e):
        c = self.class_of[e]
        ok = self.counts[c] < self.caps[c]
        self.counts[c] += ok
        return ok


class _Forest(_State):
    """Graphic: the union-find of the set's forest."""

    __slots__ = ("edges", "parent")

    def __init__(self, edges, parent):
        self.edges, self.parent = edges, parent

    def fits(self, e):
        u, v = self.edges[e]
        return _find(self.parent, u) != _find(self.parent, v)

    def grow(self, e):
        parent = self.parent
        u, v = self.edges[e]
        ru, rv = _find(parent, u), _find(parent, v)
        if ru != rv:
            parent[ru] = rv
        return ru != rv


class _Inside(_State):
    """Predicted basis: nothing of the set, as e fits iff it is in the
    basis (one flag per element)."""

    __slots__ = ("flags",)

    def __init__(self, flags):
        self.flags = flags

    def fits(self, e):
        return self.flags[e] == 1

    grow = fits


class _Members(_State):
    """Explicit: the set as a mask, and query(mask) for each set in full."""

    __slots__ = ("query", "mask")

    def __init__(self, query):
        self.query, self.mask = query, 0

    def fits(self, e):
        return self.query(self.mask | 1 << e)

    def grow(self, e):
        ok = self.query(self.mask | 1 << e)
        if ok:
            self.mask |= 1 << e
        return ok


class _AnchoredEvaluator:
    """Per-run evaluator of a spec that keeps the last set it found
    independent (the anchor) and that set's state.

    A subset of the anchor is answered True, and the anchor plus one element
    by the state's grow, which moves the anchor there on True.  Every other
    set gets one full evaluation (the spec's _load), and becomes the anchor
    if it is independent.  The state is built on the first query (the
    spec's _empty), never at construction.
    """

    def __init__(self, spec):
        self.spec = spec
        self.anchor = 0
        self.state = None

    def _known(self, mask):
        """Independence of mask from the kept state, or None when mask has
        none of the answered shapes."""
        if self.state is None:
            self.state = self.spec._empty()
        # one xor and one and over the mask tell the shapes apart; bit_count
        # and bit_length build no new int
        diff = mask ^ self.anchor
        extra = diff & mask
        if not extra:
            return True
        if diff.bit_count() != 1:
            return None
        ok = self.state.grow(extra.bit_length() - 1)
        if ok:
            self.anchor = mask
        return ok

    def _full(self, mask, stop_if_dependent):
        """Rank of mask by full evaluation (-1 for a dependent mask when
        stop_if_dependent is set); an independent mask becomes the anchor."""
        size, state = self.spec._load(mask, stop_if_dependent)
        if size == mask.bit_count():
            self.anchor, self.state = mask, state
        return size

    def independent(self, mask):
        known = self._known(mask)
        if known is None:
            return self._full(mask, True) >= 0
        return known

    def rank(self, mask):
        # the anchor plus one element that does not fit is evaluated in full
        # too: in a system that is not a matroid its rank can be below the
        # anchor's size
        if self._known(mask):
            return mask.bit_count()
        return self._full(mask, False)

    def scan(self, cur, candidates):
        """(answers, mask) of one greedy pass: the independence of cur + e
        for each element e of the list candidates in order (none of them in
        cur), cur growing by e on each True, and the final cur.  The pass
        grows one state: the anchor's when cur is the anchor, else that of
        one full evaluation of cur (for the empty set, the empty state).
        The final set becomes the anchor."""
        if self.state is None:
            self.state = self.spec._empty()
        if cur != self.anchor and self._full(cur, True) < 0:
            # every superset of a dependent set is dependent
            return [False] * len(candidates), cur
        answers = self.state.scan(candidates)
        self.anchor = cur | mask_of(compress(candidates, answers), self.spec.n)
        return answers, self.anchor

    def rows(self, x_mask, inside, outside):
        """Exchange-graph rows of X = x_mask, one answer list per element y
        of outside (every element outside X, ascending): the independence
        of X + y, then of X + y - x for each x of inside (X's elements,
        ascending).  Rows may share one list, so a caller copies a row
        before changing it."""
        independent = self.independent
        bits = [1 << x for x in inside]
        out = []
        for y in outside:
            grown = x_mask | 1 << y
            out.append([independent(grown), *[independent(grown ^ b) for b in bits]])
        return out

    def prefix_walk(self):
        """A fresh walk for one run's prefix passes (see _PrefixWalk)."""
        return _PrefixWalk(self.spec.ground, self.spec._empty)


class _PartitionEvaluator(_AnchoredEvaluator):
    """rows answers an exchange graph from its X's count per class, kept
    apart from the anchor."""

    def rows(self, x_mask, inside, outside):
        spec = self.spec
        counts = spec._class_counts(x_mask, stop_over_cap=True)
        if counts is None:
            # X is over a cap: removing x can repair it, so ask each set
            return super().rows(x_mask, inside, outside)
        # X is independent: X + y is independent iff y's class c has room,
        # and X + y - x also when x is in class c; so every y of one class
        # shares one row
        class_of, caps = spec._class_of(), spec.caps
        row_of = {}
        out = []
        for y in outside:
            c = class_of[y]
            row = row_of.get(c)
            if row is None:
                if counts[c] < caps[c]:
                    row = [True] * (len(inside) + 1)
                else:
                    row = [False, *[class_of[x] == c for x in inside]]
                row_of[c] = row
            out.append(row)
        return out


class _PrefixWalk:
    """State of one run's prefix passes.

    A pass answers the independence of (cur | 1 << e) & prefix_mask(pos e)
    for each element e outside skip, position by position from start, up to
    and including the first True; that set is e plus cur's members below
    e's position.  The walk keeps cur's flags (one byte per element), a
    position, and a state from new_state() of cur's members below it,
    grown as the walk passes them; a member that does not fit sets
    dependent, and every later answer is False.  All of it carries over to
    the next pass, so a walk that goes forward, as the weighted basis does,
    costs one step per position, not n per pass.  A new skip, a start behind
    the walk or a change of cur below the position starts it again at
    position 0 with a new state: a state never shrinks.
    """

    def __init__(self, ground, new_state):
        self.ground = ground
        self.new_state = new_state
        self.skip, self.cur, self.pos = None, 0, 0

    def prefix_pass(self, cur, start, skip):
        """(stop, answers): the answers of the pass from position start (at
        most n) and the position of its True answer, n when there is none."""
        g = self.ground
        diff = cur ^ self.cur
        self.cur = cur
        if skip != self.skip or start < self.pos or (diff and min(map(g.pos.__getitem__, iter_bits(diff))) < self.pos):
            self.skip, self.skipped = skip, _flags(skip, g.n)
            self.in_cur, self.pos = _flags(cur, g.n), 0
            self.state, self.dependent = self.new_state(), False
        else:
            for e in iter_bits(diff):
                self.in_cur[e] ^= 1
        order, skipped, in_cur, dependent = g.order, self.skipped, self.in_cur, self.dependent
        fits, grow = self.state.fits, self.state.grow
        for e in order[self.pos : start]:
            if in_cur[e] and not grow(e):
                dependent = True
        answers, stop = [], g.n
        for p in range(start, g.n):
            e = order[p]
            if not skipped[e]:
                ok = not dependent and fits(e)
                answers.append(ok)
                if ok:
                    stop = p
                    break
            if in_cur[e] and not grow(e):
                dependent = True
        self.pos, self.dependent = stop, dependent
        return stop, answers


def elements_mask(elems, n, name):
    """Mask of the element list elems of the configuration field name; a
    ValueError naming the field for anything but a list of ints in 0..n-1."""
    if not isinstance(elems, list):
        raise ValueError(f"{name}: must be a list of element ids, got {elems!r}")
    # a long list is checked at C speed and read through one byte per
    # element, where a shift per element would be quadratic in n; a short
    # one, or one that fails the check, is walked (naming its first bad
    # element), as its shifts cost less than mask_of's pass over n bytes
    if len(elems) > 64 and set(map(type, elems)) <= {int} and 0 <= min(elems) and max(elems) < n:
        return mask_of(elems, n)
    mask = 0
    for e in elems:
        if type(e) is not int:  # JSON true and false would pass as 1 and 0
            raise ValueError(f"{name}: element {e!r} is not an integer")
        if not 0 <= e < n:
            raise ValueError(f"{name}: element {e} outside 0..{n - 1}")
        mask |= 1 << e
    return mask


def spec_from_config(ground, cfg):
    """Build a MatroidSpec from its JSON-shaped configuration."""
    kind = cfg.get("kind")
    n = ground.n
    if kind == "uniform":
        return UniformMatroid(ground, cfg["k"])
    if kind == "partition":
        classes = [elements_mask(c, n, f"classes[{i}]") for i, c in enumerate(cfg["classes"])]
        return PartitionMatroid(ground, classes, cfg["caps"])
    if kind == "graphic":
        return GraphicMatroid(ground, cfg["vertices"], [tuple(e) for e in cfg["edges"]])
    if kind == "predicted_basis":
        return PredictedBasisOracle(ground, elements_mask(cfg["basis"], n, "basis"))
    if kind == "explicit":
        sets = [elements_mask(s, n, f"maximal_sets[{i}]") for i, s in enumerate(cfg["maximal_sets"])]
        return ExplicitSystem(ground, sets)
    raise ValueError(f"unknown matroid kind: {kind!r}")


def mask_of(elements, n):
    """Mask of the ids in elements, all below n, built in time linear in n
    through one byte per element."""
    flags = bytearray(b"0") * (n + 1)  # a spare "0" keeps n = 0 parsable
    for e in elements:
        flags[e] = 49  # b"1"
    return int(flags[::-1], 2)


def greedy_native(spec, ground=None):
    """Mask of the unbilled greedy baseline against the spec's own
    independence rule: one pass of a fresh evaluator."""
    order = (ground or spec.ground).order
    return spec.evaluator().scan(0, order)[1]
