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
    int at every step (iter_bits stays faster for masks of a few words)."""
    bits = bin(mask)[:1:-1]
    e = bits.find("1")
    while e >= 0:
        yield e
        e = bits.find("1", e + 1)


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
    if isinstance(w, (int, Fraction)):
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
    remaining tie.  The order is computed once and is immutable.
    """

    __slots__ = ("n", "weights", "dirty_basis_mask", "order", "pos", "_prefix_masks", "full_mask")

    def __init__(self, weights, dirty_basis=0):
        weights = tuple(_as_weight(w) for w in weights)
        if any(w < 0 for w in weights):
            raise ValueError("weights must be non-negative")
        n = len(weights)
        if dirty_basis >> n:
            raise ValueError("dirty basis has elements outside the ground set")
        order = sorted(range(n), key=lambda e: (-weights[e], 0 if dirty_basis >> e & 1 else 1, e))
        pos = [0] * n
        for p, e in enumerate(order):
            pos[e] = p
        # checkpoint j holds the elements at positions < j * PREFIX_STRIDE;
        # bits go into a byte buffer, so each checkpoint is one conversion
        prefix_masks = [0]
        buf = bytearray((n + 7) // 8)
        for end in range(PREFIX_STRIDE, n + 1, PREFIX_STRIDE):
            for e in order[end - PREFIX_STRIDE : end]:
                buf[e >> 3] |= 1 << (e & 7)
            prefix_masks.append(int.from_bytes(buf, "little"))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "dirty_basis_mask", dirty_basis)
        object.__setattr__(self, "order", tuple(order))
        object.__setattr__(self, "pos", tuple(pos))
        object.__setattr__(self, "_prefix_masks", tuple(prefix_masks))
        object.__setattr__(self, "full_mask", (1 << n) - 1 if n else 0)

    def __setattr__(self, name, value):
        raise AttributeError("GroundSet is immutable")

    @classmethod
    def unit(cls, n, dirty_basis=0):
        return cls([1] * n, dirty_basis)

    def with_dirty_basis(self, dirty_basis):
        """Rebuild the canonical order around a (newly computed) dirty basis
        mask."""
        return GroundSet(self.weights, dirty_basis)

    def prefix_mask(self, p):
        """Mask of elements with canonical position <= p (empty for p < 0)."""
        if p < 0:
            return 0
        j = (p + 1) // PREFIX_STRIDE
        mask = self._prefix_masks[j]
        for e in self.order[j * PREFIX_STRIDE : p + 1]:
            mask |= 1 << e
        return mask

    def positions(self, mask):
        """Sorted canonical positions of the members of mask."""
        pos = self.pos
        return sorted([pos[e] for e in _scan_bits(mask)])

    def element_at(self, p):
        return self.order[p]

    def weight(self, mask):
        weights = self.weights
        return sum([weights[e] for e in _scan_bits(mask)])

    @property
    def unit_weights(self):
        return all(w == self.weights[0] for w in self.weights) if self.n else True


class MatroidSpec:
    """Base class for independence-system specifications bound to a ground set."""

    kind = "abstract"

    def __init__(self, ground):
        self.ground = ground
        self.n = ground.n

    def is_independent_mask(self, mask):
        raise NotImplementedError

    def rank_mask(self, mask):
        raise NotImplementedError

    def evaluator(self):
        """A fresh per-run evaluator with independent(mask) and rank(mask)
        that answer as this spec does; kinds with kept state override it."""
        return _SpecEvaluator(self)

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
        if k < 0:
            raise ValueError("uniform matroid needs k >= 0")
        self.k = k

    def is_independent_mask(self, mask):
        return mask.bit_count() <= self.k

    def rank_mask(self, mask):
        return min(mask.bit_count(), self.k)

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
        if any(c < 0 for c in caps):
            raise ValueError("caps must be non-negative")
        self.class_masks = tuple(class_masks)
        self.caps = tuple(int(c) for c in caps)

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
        for u, v in edges:
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise ValueError(f"edge ({u},{v}) outside vertex range")
        self.num_vertices = num_vertices
        self.edges = tuple((int(u), int(v)) for u, v in edges)

    def _forest(self, mask, stop_on_cycle):
        """(size, parent): the number of edges of a spanning forest of mask
        and its union-find; size is -1 at the first cycle when stop_on_cycle
        is set."""
        parent = list(range(self.num_vertices))
        size = 0
        for e in iter_bits(mask):
            u, v = self.edges[e]
            ru, rv = _find(parent, u), _find(parent, v)
            if ru == rv:
                if stop_on_cycle:
                    return -1, parent
                continue
            parent[ru] = rv
            size += 1
        return size, parent

    def is_independent_mask(self, mask):
        return self._forest(mask, stop_on_cycle=True)[0] >= 0

    def rank_mask(self, mask):
        return self._forest(mask, stop_on_cycle=False)[0]

    def evaluator(self):
        return _GraphicEvaluator(self)

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

    def is_independent_mask(self, mask):
        return mask & ~self.basis_mask == 0

    def rank_mask(self, mask):
        return (mask & self.basis_mask).bit_count()

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

    def rank_mask(self, mask):
        # greedy scan of mask in canonical order using the independence rule
        # (internal, never billed); exact for matroids, defined behavior otherwise
        return greedy_scan(self.is_independent_mask, self.ground, skip=~mask).bit_count()

    def to_config(self):
        return {"kind": "explicit", "maximal_sets": [sorted(iter_bits(m)) for m in self.maximal_masks]}


def _find(parent, x):
    """Root of x in a union-find, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


class _SpecEvaluator:
    """Stateless evaluator: every query goes to the spec's own methods."""

    __slots__ = ("spec",)

    def __init__(self, spec):
        self.spec = spec

    def independent(self, mask):
        return self.spec.is_independent_mask(mask)

    def rank(self, mask):
        return self.spec.rank_mask(mask)


class _AnchoredEvaluator:
    """Evaluator that keeps the last set it found independent (the anchor)
    and that set's state.

    A subset of the anchor and the anchor plus one element are answered from
    the state, as is the anchor with one element exchanged where the kind
    implements ``_exchanges``; a True on the anchor plus one element moves
    the anchor there.  Every other set gets one full evaluation through the
    spec's own implementation, and becomes the anchor if it is independent.
    The state is built on the first query, never at construction.
    """

    def __init__(self, spec):
        self.spec = spec
        self.anchor = 0
        self.state = None

    def _known(self, mask):
        """Independence of mask from the kept state, or None when mask has
        none of the answered shapes."""
        if self.state is None:
            self._start()
        # one xor and one and over the mask tell the shapes apart; bit_count
        # and bit_length build no new int
        diff = mask ^ self.anchor
        extra = diff & mask
        if not extra:
            return True
        changed = diff.bit_count()
        if changed == 1:
            if self._extends(extra.bit_length() - 1):
                self.anchor = mask
                return True
            return False
        if changed == 2 and extra.bit_count() == 1:
            return self._exchanges((diff ^ extra).bit_length() - 1, extra.bit_length() - 1)
        return None

    def _full(self, mask, stop_if_dependent):
        """Rank of mask by full evaluation (-1 for a dependent mask when
        stop_if_dependent is set); an independent mask becomes the anchor."""
        size, state = self._evaluate(mask, stop_if_dependent)
        if size == mask.bit_count():
            self.anchor, self.state = mask, state
        return size

    def _exchanges(self, x, e):
        return None

    def independent(self, mask):
        known = self._known(mask)
        if known is None:
            return self._full(mask, True) >= 0
        return known

    def rank(self, mask):
        known = self._known(mask)
        if known is None:
            return self._full(mask, False)
        # one element over an independent set adds at most one to the rank
        return mask.bit_count() - (not known)


class _PartitionEvaluator(_AnchoredEvaluator):
    """State: the anchor's count per class; plus an element -> class table."""

    def _start(self):
        spec = self.spec
        class_of = [0] * spec.n
        for i, m in enumerate(spec.class_masks):
            for e in _scan_bits(m):
                class_of[e] = i
        self.class_of, self.caps = class_of, spec.caps
        self.state = [0] * len(spec.caps)

    def _evaluate(self, mask, stop_if_dependent):
        counts = self.spec._class_counts(mask, stop_if_dependent)
        if counts is None:
            return -1, None
        return sum(map(min, counts, self.caps)), counts

    def _extends(self, e):
        c = self.class_of[e]
        counts = self.state
        if counts[c] < self.caps[c]:
            counts[c] += 1
            return True
        return False

    def _exchanges(self, x, e):
        class_of = self.class_of
        c = class_of[e]
        return self.state[c] - (class_of[x] == c) < self.caps[c]


class _GraphicEvaluator(_AnchoredEvaluator):
    """State: the union-find of the anchor's forest."""

    def _start(self):
        self.edges = self.spec.edges
        self.state = list(range(self.spec.num_vertices))

    def _evaluate(self, mask, stop_if_dependent):
        return self.spec._forest(mask, stop_if_dependent)

    def _extends(self, e):
        parent = self.state
        u, v = self.edges[e]
        ru, rv = _find(parent, u), _find(parent, v)
        if ru == rv:
            return False
        parent[ru] = rv
        return True


def elements_mask(elems, n, name):
    """Mask of the element list elems of the configuration field name; a
    ValueError naming the field for anything but a list of ints in 0..n-1."""
    if not isinstance(elems, list):
        raise ValueError(f"{name}: must be a list of element ids, got {elems!r}")
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


def greedy_scan(query, ground, cur=0, skip=0):
    """Greedy in canonical order from the mask cur: query(cur | 1 << e) for
    every element e outside the mask skip, keeping e when it answers True.
    Returns the final mask."""
    for e in ground.order:
        if not skip >> e & 1 and query(cur | 1 << e):
            cur |= 1 << e
    return cur


def greedy_native(spec, ground=None):
    """Mask of the unbilled greedy baseline against the spec's own
    independence rule."""
    return greedy_scan(spec.evaluator().independent, ground or spec.ground)
