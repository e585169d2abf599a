"""Ground sets, bitset element sets, and concrete matroid implementations.

Element sets are bit masks over element ids 0..n-1 (Python ints, so the same
interface covers any n).  A :class:`GroundSet` fixes the canonical ordering all
prefix operations use: non-increasing weight, with designated-basis elements
before others among equal weights, and input position as the final tie-break.
"""

from __future__ import annotations

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


def mask_of(s):
    """Accept an ElementSet or a raw int mask."""
    if isinstance(s, ElementSet):
        return s.mask
    return int(s)


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


class ElementSet:
    """Immutable subset of the ground set, bit-set semantics over ids 0..n-1."""

    __slots__ = ("n", "mask")

    def __init__(self, n, mask=0):
        if mask < 0 or mask >> n:
            raise ValueError("mask has bits outside 0..n-1")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mask", mask)

    def __setattr__(self, name, value):
        raise AttributeError("ElementSet is immutable")

    @classmethod
    def from_iterable(cls, n, elems):
        mask = 0
        for e in elems:
            if not 0 <= e < n:
                raise ValueError(f"element {e} outside 0..{n - 1}")
            mask |= 1 << e
        return cls(n, mask)

    def __len__(self):
        return self.mask.bit_count()

    def __contains__(self, e):
        return bool(self.mask >> e & 1)

    def __iter__(self):
        return iter_bits(self.mask)

    def __eq__(self, other):
        return isinstance(other, ElementSet) and self.mask == other.mask and self.n == other.n

    def __hash__(self):
        return hash((self.n, self.mask))

    def __or__(self, other):
        return ElementSet(self.n, self.mask | mask_of(other))

    def __and__(self, other):
        return ElementSet(self.n, self.mask & mask_of(other))

    def __sub__(self, other):
        return ElementSet(self.n, self.mask & ~mask_of(other))

    def __xor__(self, other):
        return ElementSet(self.n, self.mask ^ mask_of(other))

    def __le__(self, other):
        return self.mask & ~mask_of(other) == 0

    def add(self, e):
        return ElementSet(self.n, self.mask | 1 << e)

    def remove(self, e):
        return ElementSet(self.n, self.mask & ~(1 << e))

    def __repr__(self):
        return f"ElementSet({self.n}, {{{', '.join(map(str, self))}}})"


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
        bd = mask_of(dirty_basis)
        if bd >> n:
            raise ValueError("dirty basis has elements outside the ground set")
        order = sorted(range(n), key=lambda e: (-weights[e], 0 if bd >> e & 1 else 1, e))
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
        object.__setattr__(self, "dirty_basis_mask", bd)
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
        """Rebuild the canonical order around a (newly computed) dirty basis."""
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

    def prefix(self, s, p):
        return ElementSet(self.n, mask_of(s) & self.prefix_mask(p))

    def positions(self, s):
        """Sorted canonical positions of the members of s."""
        pos = self.pos
        return sorted([pos[e] for e in _scan_bits(mask_of(s))])

    def element_at(self, p):
        return self.order[p]

    def weight(self, s):
        weights = self.weights
        return sum([weights[e] for e in _scan_bits(mask_of(s))])

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

    def __init__(self, ground, classes, caps):
        super().__init__(ground)
        if len(classes) != len(caps):
            raise ValueError("classes and caps must have equal length")
        masks = []
        seen = 0
        for cls in classes:
            m = mask_of(cls) if isinstance(cls, (int, ElementSet)) else ElementSet.from_iterable(self.n, cls).mask
            if m & seen:
                raise ValueError("classes overlap")
            seen |= m
            masks.append(m)
        if seen != ground.full_mask:
            raise ValueError("classes do not cover the ground set")
        if any(c < 0 for c in caps):
            raise ValueError("caps must be non-negative")
        self.class_masks = tuple(masks)
        self.caps = tuple(int(c) for c in caps)

    def is_independent_mask(self, mask):
        return all((mask & m).bit_count() <= c for m, c in zip(self.class_masks, self.caps))

    def rank_mask(self, mask):
        return sum(min((mask & m).bit_count(), c) for m, c in zip(self.class_masks, self.caps))

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

    def _forest_size(self, mask, stop_on_cycle):
        parent = list(range(self.num_vertices))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        size = 0
        for e in iter_bits(mask):
            u, v = self.edges[e]
            ru, rv = find(u), find(v)
            if ru == rv:
                if stop_on_cycle:
                    return -1
                continue
            parent[ru] = rv
            size += 1
        return size

    def is_independent_mask(self, mask):
        return self._forest_size(mask, stop_on_cycle=True) >= 0

    def rank_mask(self, mask):
        return self._forest_size(mask, stop_on_cycle=False)

    def to_config(self):
        return {"kind": "graphic", "vertices": self.num_vertices, "edges": [list(e) for e in self.edges]}


class PredictedBasisOracle(MatroidSpec):
    """The matroid (E, 2^{B_d}) induced by a predicted basis."""

    kind = "predicted_basis"

    def __init__(self, ground, basis):
        super().__init__(ground)
        self.basis_mask = mask_of(basis) if isinstance(basis, (int, ElementSet)) else ElementSet.from_iterable(self.n, basis).mask
        if self.basis_mask >> self.n:
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

    def __init__(self, ground, maximal_sets):
        super().__init__(ground)
        masks = set()
        for s in maximal_sets:
            m = mask_of(s) if isinstance(s, (int, ElementSet)) else ElementSet.from_iterable(self.n, s).mask
            masks.add(m)
        # drop sets dominated by another listed set so "maximal" is honest
        self.maximal_masks = tuple(sorted(m for m in masks if not any(m != o and m & ~o == 0 for o in masks)))
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


def spec_from_config(ground, cfg):
    """Build a MatroidSpec from its JSON-shaped configuration."""
    kind = cfg.get("kind")
    if kind == "uniform":
        return UniformMatroid(ground, cfg["k"])
    if kind == "partition":
        return PartitionMatroid(ground, cfg["classes"], cfg["caps"])
    if kind == "graphic":
        return GraphicMatroid(ground, cfg["vertices"], [tuple(e) for e in cfg["edges"]])
    if kind == "predicted_basis":
        return PredictedBasisOracle(ground, cfg["basis"])
    if kind == "explicit":
        return ExplicitSystem(ground, cfg["maximal_sets"])
    raise ValueError(f"unknown matroid kind: {kind!r}")


def is_independent(spec, s):
    """Pure, unbilled independence test."""
    return spec.is_independent_mask(mask_of(s))


def rank(spec, s):
    """Pure, unbilled rank."""
    return spec.rank_mask(mask_of(s))


def greedy_scan(query, ground, cur=0, skip=0):
    """Greedy in canonical order from the mask cur: query(cur | 1 << e) for
    every element e outside the mask skip, keeping e when it answers True.
    Returns the final mask."""
    for e in ground.order:
        if not skip >> e & 1 and query(cur | 1 << e):
            cur |= 1 << e
    return cur


def greedy_max_weight_basis(query, ground):
    """Greedy in canonical order through a billed independence query callable.

    Issues exactly n queries, one per element, each testing current ∪ {e}.
    Returns the resulting maximum-weight basis as an ElementSet.
    """
    return ElementSet(ground.n, greedy_scan(query, ground))


def greedy_native(spec, ground=None):
    """Unbilled greedy baseline against the spec's own independence rule."""
    g = ground or spec.ground
    return greedy_max_weight_basis(spec.is_independent_mask, g)

