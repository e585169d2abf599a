"""Billed oracle wrappers with transcripts, dirty-oracle construction, and the
certificate verifier.

Every billed call appends one record to the run's :class:`QueryLedger`; the
ledger's counters are the artifact's central measured quantity.  Dirty calls
are free under the default cost model but still counted and recorded.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple

from .core import (
    ElementSet,
    ExplicitSystem,
    GraphicMatroid,
    PartitionMatroid,
    greedy_scan,
    iter_bits,
)

ROLE_CLEAN = "clean"
ROLE_DIRTY = "dirty"

KIND_IND = "ind"
KIND_RANK = "rank"

SET_STORAGE_LIMIT = 4096  # above this n, transcript records drop the query sets


class IncompatiblePerturbation(ValueError):
    """Perturbation kind does not apply to the given matroid kind."""


class QueryRecord(NamedTuple):
    seq: int
    role: str
    kind: str
    answer: int
    mask: int | None


class QueryLedger:
    """Per-run transcript and counters of clean and dirty oracle queries."""

    def __init__(self, n, cost_p=1):
        self.n = n
        self.cost_p = Fraction(cost_p)
        if self.cost_p < 1:
            raise ValueError("clean-call cost p must be >= 1")
        self.store_sets = n <= SET_STORAGE_LIMIT
        self.transcript = []
        self.clean_independence_count = 0
        self.clean_rank_count = 0
        self.dirty_count = 0

    def record(self, role, kind, answer, mask):
        if role == ROLE_CLEAN:
            if kind.startswith(KIND_RANK):
                self.clean_rank_count += 1
            else:
                self.clean_independence_count += 1
        elif role == ROLE_DIRTY:
            self.dirty_count += 1
        else:
            raise ValueError(f"unknown oracle role {role!r}")
        rec = QueryRecord(
            len(self.transcript), role, kind, int(answer), mask if self.store_sets else None
        )
        self.transcript.append(rec)
        return rec

    @property
    def clean_count(self):
        return self.clean_independence_count + self.clean_rank_count

    @property
    def total_cost(self):
        return self.dirty_count + self.cost_p * self.clean_count

    def export_lines(self):
        """Line-oriented transcript: seq,role,kind,answer,hex(bitset)."""
        out = []
        for rec in self.transcript:
            h = "-" if rec.mask is None else format(rec.mask, "x")
            out.append(f"{rec.seq},{rec.role},{rec.kind},{rec.answer},{h}")
        return out


class OraclePair:
    """A clean/dirty oracle pair over one ground set, billing into one ledger."""

    def __init__(self, clean, dirty, ground, ledger=None, cost_p=1):
        if isinstance(clean, ExplicitSystem):
            raise ValueError("explicit downward-closed systems are accepted as dirty oracles only")
        if clean.n != ground.n or dirty.n != ground.n:
            raise ValueError("oracles and ground set disagree on n")
        self.ground = ground
        self.clean = clean.rebind(ground)
        self.dirty = dirty.rebind(ground)
        # per-pair evaluators: kept state never outlives the pair's run
        self._clean_eval = self.clean.evaluator()
        self._dirty_eval = self.dirty.evaluator()
        self.ledger = ledger if ledger is not None else QueryLedger(ground.n, cost_p=cost_p)

    def query_independent(self, role, mask):
        # an unknown role reaches the dirty spec; the ledger rejects it unbilled
        answer = (self._clean_eval if role == ROLE_CLEAN else self._dirty_eval).independent(mask)
        self.ledger.record(role, KIND_IND, answer, mask)
        return answer

    def query_rank(self, role, mask):
        answer = (self._clean_eval if role == ROLE_CLEAN else self._dirty_eval).rank(mask)
        self.ledger.record(role, KIND_RANK, answer, mask)
        return answer

    def with_dirty_basis(self, bd):
        """Same oracles and ledger, rebased on the order around the dirty
        basis mask bd."""
        ground = self.ground.with_dirty_basis(bd)
        return OraclePair(self.clean, self.dirty, ground, ledger=self.ledger)


def greedy_basis(pair, role=ROLE_DIRTY):
    """Greedy max-weight basis through the billed oracle: n queries, each
    testing the current set plus one element in canonical order."""
    return ElementSet(pair.ground.n, greedy_scan(lambda m: pair.query_independent(role, m), pair.ground))


def replay_record(pair, rec):
    """Re-evaluate one transcript record against the underlying specs."""
    if rec.mask is None:
        raise ValueError("record has no stored set (size guard)")
    spec = pair.clean if rec.role == ROLE_CLEAN else pair.dirty
    if rec.kind.startswith(KIND_RANK):
        return spec.rank_mask(rec.mask)
    return int(spec.is_independent_mask(rec.mask))


class PerturbationSpec:
    """Seeded, structure-preserving edit of a matroid spec.

    kinds: class_swap(count), capacity_shift(count) for partition matroids;
    edge_rewire(count), stale_snapshot(edits) for graphic matroids.  A zero
    count (or empty edit list) is the identity.
    """

    KINDS = ("class_swap", "capacity_shift", "edge_rewire", "stale_snapshot")

    def __init__(self, kind, count=0, edits=(), seed=0):
        if kind not in self.KINDS:
            raise ValueError(f"unknown perturbation kind {kind!r}")
        self.kind = kind
        self.count = int(count)
        self.edits = tuple(tuple(e) for e in edits)
        self.seed = int(seed)

    def to_config(self):
        cfg = {"kind": self.kind, "seed": self.seed}
        if self.kind == "stale_snapshot":
            cfg["edits"] = [list(e) for e in self.edits]
        else:
            cfg["count"] = self.count
        return cfg

    @classmethod
    def from_config(cls, cfg):
        return cls(cfg["kind"], cfg.get("count", 0), cfg.get("edits", ()), cfg.get("seed", 0))


def make_dirty(clean, pert):
    """Derive a dirty matroid spec from a clean one by the given perturbation."""
    rng = random.Random(pert.seed)
    if pert.kind in ("class_swap", "capacity_shift"):
        if not isinstance(clean, PartitionMatroid):
            raise IncompatiblePerturbation(f"{pert.kind} needs a partition matroid")
        classes = [sorted(iter_bits(m)) for m in clean.class_masks]
        caps = list(clean.caps)
        if pert.kind == "class_swap":
            for _ in range(pert.count):
                if len(classes) < 2 or clean.n == 0:
                    break
                src = rng.randrange(len(classes))
                while not classes[src]:
                    src = rng.randrange(len(classes))
                dst = rng.randrange(len(classes) - 1)
                if dst >= src:
                    dst += 1
                e = classes[src].pop(rng.randrange(len(classes[src])))
                classes[dst].append(e)
                classes[dst].sort()
        else:
            for _ in range(pert.count):
                i = rng.randrange(len(caps))
                caps[i] = max(0, caps[i] + rng.choice((-1, 1)))
        keep = [(c, k) for c, k in zip(classes, caps) if c]
        return PartitionMatroid(clean.ground, [sum(1 << e for e in c) for c, _ in keep], [k for _, k in keep])
    if pert.kind in ("edge_rewire", "stale_snapshot"):
        if not isinstance(clean, GraphicMatroid):
            raise IncompatiblePerturbation(f"{pert.kind} needs a graphic matroid")
        edges = [list(e) for e in clean.edges]
        nv = clean.num_vertices
        if pert.kind == "edge_rewire":
            for _ in range(pert.count):
                if nv < 2:
                    break
                i = rng.randrange(len(edges))
                side = rng.randrange(2)
                other = edges[i][1 - side]
                v = rng.randrange(nv - 1)
                if v >= other:
                    v += 1
                edges[i][side] = v
        else:
            for op, idx, u, v in pert.edits:
                if op != "set_edge":
                    raise IncompatiblePerturbation(f"unknown stale_snapshot edit {op!r}")
                edges[idx] = [u, v]
        return GraphicMatroid(clean.ground, nv, [tuple(e) for e in edges])
    raise IncompatiblePerturbation(pert.kind)


class TranscriptNotStored(ValueError):
    """The transcript dropped its query sets (n above SET_STORAGE_LIMIT), so
    the certificate cannot be checked."""


class CertificateReport(NamedTuple):
    ok: bool
    independence_witnessed: bool
    unwitnessed: tuple

    def __bool__(self):
        return self.ok


def verify_certificate(transcript, out, ground):
    """Check that the clean queries alone prove the mask out is a basis.

    Independence needs some clean query answered independent whose set contains
    the output (the empty set is independent axiomatically).  Maximality needs,
    for each e outside the output, a clean query answered dependent whose set
    is a subset of output + e that contains e, that is, whose elements outside
    the output are exactly {e}.  One pass over the dependent records collects
    those single elements.
    """
    clean_ind = [r for r in transcript if r.role == ROLE_CLEAN and not r.kind.startswith(KIND_RANK)]
    if any(r.mask is None for r in clean_ind):
        raise TranscriptNotStored("transcript sets were not stored; cannot verify")
    ind_ok = out == 0 or any(r.answer and out & ~r.mask == 0 for r in clean_ind)
    witnessed = 0
    for r in clean_ind:
        if not r.answer:
            extra = r.mask & ~out
            if extra & (extra - 1) == 0:
                witnessed |= extra  # zero or the single element e
    unwitnessed = tuple(iter_bits(ground.full_mask & ~out & ~witnessed))
    return CertificateReport(ind_ok and not unwitnessed, ind_ok, unwitnessed)
