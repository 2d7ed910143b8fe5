"""Coalesce independent evaluator requests into k-way batched kernels.

The planner takes a list of pending :class:`BatchRequest` items — each
one ciphertext plus the operation to apply — and groups them into
maximal same-shape batches: requests fuse when they share the
operation, the concrete ciphertext class, the residue basis, the
domain, and (where the kernel bakes the argument into its constants)
the argument itself.  Grouping is order-preserving within a group, and
:func:`execute_batched` returns results in the original request order,
so callers can treat the whole thing as a drop-in for the sequential
loop.

Every batch op is bitwise identical to iterating the per-ciphertext
evaluator call (``tests/test_batch_evaluator.py`` pins this for CKKS,
BGV and BFV), so the planner is free to fuse or split groups purely on
throughput grounds.  Ops the evaluator's scheme lacks (``rescale`` off
CKKS, ``mod_switch`` off BGV) are rejected with a ``ValueError``
before any group runs.
The ``REPRO_BATCH_MAX_ROWS`` knob bounds the fused stack height
(``2k*L`` rows); ``0`` means unbounded.

Occupancy telemetry (visible in Chrome traces via
:func:`repro.obs.chrome_trace`):

- ``batch.fuse`` spans wrap each fused kernel launch, attributed with
  the op, ``k`` and row count;
- ``batch.requests`` counts requests submitted;
- ``batch.k`` accumulates fused widths (mean k = ``batch.k`` /
  number of fuse spans);
- ``batch.rows`` accumulates fused stack rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..core.env import env_int
from ..obs import TRACER
from ..schemes.rns_core import CiphertextBatch

__all__ = [
    "BatchRequest",
    "coalesce",
    "default_max_rows",
    "execute_batched",
]

#: Request op -> the evaluator's batch method.
_BATCH_OPS = {
    "add": "batch_add",
    "sub": "batch_sub",
    "multiply": "batch_multiply",
    "negate": "batch_negate",
    "rescale": "batch_rescale",
    "mod_switch": "batch_mod_switch",
    "rotate": "batch_rotate",
    "rotate_hoisted": "batch_rotate_hoisted",
    "multiply_plain": "batch_multiply_plain",
}

#: Ops whose second operand is another ciphertext (fused as a y-batch).
_TWO_CT_OPS = frozenset(("add", "sub", "multiply"))

#: Ops whose argument is part of the fused kernel's constants, so only
#: requests sharing it can fuse.
_ARG_OPS = frozenset(("rotate", "rotate_hoisted", "multiply_plain"))


@dataclass
class BatchRequest:
    """One pending evaluator call.

    ``op`` names the evaluator operation (``add``, ``sub``,
    ``negate``, ``multiply``, ``multiply_plain``, ``rescale``,
    ``mod_switch``, ``rotate``, ``rotate_hoisted``); ``ct`` is the
    primary ciphertext; ``arg`` is the second operand (a ciphertext
    for the two-ct ops, a plaintext for ``multiply_plain``, the step
    for ``rotate``, a tuple of steps for ``rotate_hoisted``); ``tag``
    is an opaque caller correlation id carried through untouched.
    """

    op: str
    ct: Any
    arg: Any = None
    tag: Any = None


def default_max_rows() -> int:
    """The fused-stack row bound from ``REPRO_BATCH_MAX_ROWS``
    (``0`` = unbounded)."""
    return env_int("REPRO_BATCH_MAX_ROWS", 0, minimum=0,
                   what="batch row bound")


def _group_key(req: BatchRequest) -> tuple:
    """The fusion key: requests fuse iff their keys are equal."""
    ct = req.ct
    key: tuple = (req.op, type(ct), ct.basis.primes, ct.is_ntt)
    if req.op in _TWO_CT_OPS:
        other = req.arg
        key += (other.basis.primes, other.is_ntt)
    elif req.op == "rotate":
        key += (int(req.arg),)
    elif req.op == "rotate_hoisted":
        key += (tuple(req.arg),)
    elif req.op == "multiply_plain":
        key += (id(req.arg),)
    return key


def coalesce(requests, *,
             max_rows: int | None = None
             ) -> list[list[tuple[int, BatchRequest]]]:
    """Group requests into maximal same-shape batches.

    Returns a list of groups, each a list of ``(original_index,
    request)`` pairs in submission order; concatenating the groups'
    indices is a permutation of ``range(len(requests))``.  Groups are
    split so a fused stack never exceeds ``max_rows`` rows (``2k*L``
    per group; ``None`` reads ``REPRO_BATCH_MAX_ROWS``, ``0`` means
    unbounded).
    """
    if max_rows is None:
        max_rows = default_max_rows()
    groups: dict[tuple, list[tuple[int, BatchRequest]]] = {}
    order: list[tuple] = []
    for idx, req in enumerate(requests):
        if req.op not in _BATCH_OPS:
            raise ValueError(f"unknown batchable op {req.op!r}")
        key = _group_key(req)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append((idx, req))
    out: list[list[tuple[int, BatchRequest]]] = []
    for key in order:
        members = groups[key]
        if max_rows:
            pair_rows = 2 * len(members[0][1].ct.basis)
            chunk = max(1, max_rows // pair_rows)
        else:
            chunk = len(members)
        for lo in range(0, len(members), chunk):
            out.append(members[lo:lo + chunk])
    return out


def _run_group(evaluator, op: str,
               members: list[tuple[int, BatchRequest]]) -> list:
    """Execute one fused group; returns per-member results in member
    order."""
    batch = CiphertextBatch.from_ciphertexts(
        [req.ct for _, req in members])
    run = getattr(evaluator, _BATCH_OPS[op])
    if op in _TWO_CT_OPS:
        other = CiphertextBatch.from_ciphertexts(
            [req.arg for _, req in members])
        return run(batch, other).split()
    if op not in _ARG_OPS:
        return run(batch).split()
    arg = members[0][1].arg
    if op == "rotate":
        return run(batch, int(arg)).split()
    if op == "multiply_plain":
        return run(batch, arg).split()
    rotated = run(batch, tuple(arg))
    # rotated maps step -> CiphertextBatch; member i wants its own
    # step -> ciphertext view of each.
    split_by_step = {step: rb.split() for step, rb in rotated.items()}
    return [{step: cts[i] for step, cts in split_by_step.items()}
            for i in range(len(members))]


def execute_batched(evaluator, requests, *,
                    max_rows: int | None = None) -> list:
    """Run every request through maximally fused batch kernels.

    Returns results positionally matching ``requests`` (a ciphertext
    per request, or a ``step -> ciphertext`` dict for
    ``rotate_hoisted``).  Bitwise identical to calling the evaluator
    once per request, in request order.  Raises ``ValueError`` before
    running anything if the evaluator lacks a requested op.
    """
    requests = list(requests)
    groups = coalesce(requests, max_rows=max_rows)
    for op in {members[0][1].op for members in groups}:
        if not hasattr(evaluator, _BATCH_OPS[op]):
            raise ValueError(f"{type(evaluator).__name__} does not "
                             f"support the batch op {op!r}")
    tr = TRACER
    if tr.enabled:
        tr.count("batch.requests", len(requests))
    results: list = [None] * len(requests)
    for members in groups:
        op = members[0][1].op
        k = len(members)
        rows = 2 * k * len(members[0][1].ct.basis)
        if tr.enabled:
            with tr.span("batch.fuse", op=op, k=k, rows=rows):
                group_results = _run_group(evaluator, op, members)
            tr.count("batch.k", k)
            tr.count("batch.rows", rows)
        else:
            group_results = _run_group(evaluator, op, members)
        for (idx, _), res in zip(members, group_results):
            results[idx] = res
    return results
