"""Vectorized NumPy execution backend: a structural plan and a value-only
execute step.

Where the Spatial interpreter and :class:`~repro.backends.cpu_exec.CpuExecutor`
walk the iteration space coordinate by coordinate in Python, this backend
executes an index-notation statement as a handful of whole-array NumPy
operations. As in Stardust, where a tensor's format (its ``pos``/``crd``
structure) is fixed at compile time and only value streams flow through
the kernel, the work is split in two:

* :class:`NumpyPlan` is built once from the statement and its operands'
  storages and holds **structure only**: index-variable extents and
  einsum subscripts; per sparse factor, the positions of its stored
  entries in ``storage.vals`` (intersected once for a two-factor join);
  the index arrays that gather dense operands at the entry coordinates;
  the scatter's sort order, segment starts and unique output keys; and
  every :class:`VectorizeFallback` decision.
* :meth:`NumpyPlan.execute` reads **values** on every call —
  ``storage.vals[positions]``, scalar tensors, and dense operands as a
  reshape/transpose *view* of their ``vals`` — then runs gather →
  ``np.einsum`` → ``np.add.reduceat`` → one assignment into the zeroed
  output.

Entries come from :func:`repro.tensor.storage.entry_positions`, the one
level walker: dense levels expand positions arithmetically, compressed
levels by ``pos``/``crd`` segment, singleton levels pass them through;
block levels are checked against their static extent and then expand
like dense ones. Each additive term is classified by how many *sparse*
(non-all-dense) factors it multiplies:

* zero sparse factors → one ``einsum`` over the dense operands;
* one sparse factor → gather the dense operands at the entry
  coordinates, contract over the entry axis, and scatter-add per
  linearized output key (``np.add.reduceat`` over the sorted keys);
* two sparse factors over the *same* index-variable set (the InnerProd
  shape) → intersect their linearized coordinate keys
  (``np.intersect1d``) and proceed as one merged sparse factor.

Where gathered dense operands carry residual axes and the entry axis
survives into the output (SDDMM, TTM, MTTKRP, SpMM), gather and einsum
run over blocks of entries of about :data:`GATHER_BLOCK_BYTES` instead of
materialising whole gathers. A term whose einsum reduces the entry axis
is never blocked, so its summation order is unchanged.

Anything else — nested unions inside a product, three or more sparse
factors, sparse-sparse joins over differing variable sets — is recorded
in the plan as a :class:`VectorizeFallback`, and :class:`NumpyExecutor`
transparently falls back to the :class:`CpuExecutor` merge-lattice
interpreter, which handles those shapes at Python speed.

**What is cached, and when it is rebuilt.** ``CompiledKernel`` keeps its
plan, so repeated ``run_engine("numpy")`` calls and the ``exec`` stage
pay only for the execute step. The plan is never pickled, so cache
entries and dispatch payloads never carry it. It is rebuilt when any
operand's ``TensorStorage`` object changes (``Tensor.insert`` followed by
a read, ``from_dense`` and ``from_coo`` all repack); writing into an
operand's ``vals`` in place needs no rebuild. A bare
``NumpyExecutor(stmt).run()`` builds a one-shot plan.

Like ``CpuExecutor``, this backend executes the *algorithm* (the original
assignment), not the schedule: schedules are semantics-preserving, so the
result is engine-independent up to floating-point summation order.
"""

from __future__ import annotations

import numpy as np

from repro.ir.index_notation import (
    Access,
    Add,
    Assignment,
    IndexExpr,
    IndexVar,
    Literal,
    Mul,
    Neg,
    Sub,
    additive_terms,
)
from repro.schedule.stmt import IndexStmt
from repro.tensor.ops import infer_dimensions
from repro.tensor.storage import TensorStorage, entry_positions

__all__ = [
    "NumpyExecutor",
    "NumpyPlan",
    "VectorizeFallback",
    "enumerate_entries",
    "execute_numpy",
]

#: einsum subscript letters; ``e`` is reserved for the entry axis.
_LETTERS = "abcdfghijklmnopqrstuvwxyz"

#: Bytes of gathered dense operands per block of entries, for terms
#: whose gathers carry residual axes.
GATHER_BLOCK_BYTES = 1 << 19


class VectorizeFallback(Exception):
    """The vectorizer cannot handle this statement shape.

    Raised (and caught by :meth:`NumpyExecutor.run` unless ``strict``)
    for nested additions inside a product, more than two sparse factors
    in one term, or a sparse-sparse join over differing index-variable
    sets — the shapes the merge-lattice ``CpuExecutor`` exists for.
    """


# ---------------------------------------------------------------------------
# Entries and scatter structure
# ---------------------------------------------------------------------------


def _entries(storage: TensorStorage) -> tuple[np.ndarray, np.ndarray]:
    """:func:`entry_positions`, once every block level's extent matches
    the static size its format fixes (the BCSR tile)."""
    for lvl_idx, lvl in enumerate(storage.levels):
        lf = storage.fmt.level_format(lvl_idx)
        if lf.is_block and lvl.size != lf.size:
            raise VectorizeFallback(
                f"block level extent {lvl.size} != static size {lf.size}"
            )
    return entry_positions(storage)


def enumerate_entries(storage: TensorStorage) -> tuple[np.ndarray, np.ndarray]:
    """All stored entries as ``(coords, vals)``, coords in **mode** order.

    Formats with trailing dense levels enumerate explicit zeros; they
    multiply out harmlessly.
    """
    coords, positions = _entries(storage)
    return coords, storage.vals[positions]


class SegmentScatter:
    """The structure of a scatter-add over fixed keys.

    Holds the stable sort order (``None`` when the keys are already
    non-decreasing), the start of each equal-key run (``None`` when every
    key is unique) and the unique keys. :meth:`sums` adds up each run with
    one ``np.add.reduceat``; every run is non-empty by construction,
    sidestepping reduceat's empty-segment pitfall.
    """

    def __init__(self, keys: np.ndarray) -> None:
        if np.all(keys[1:] >= keys[:-1]):
            self.order = None
        else:
            self.order = np.argsort(keys, kind="stable")
            keys = keys[self.order]
        starts = np.flatnonzero(
            np.concatenate(([True], keys[1:] != keys[:-1])))
        self.keys = keys[starts]
        self.starts = starts if len(starts) < len(keys) else None

    def sums(self, contrib: np.ndarray) -> np.ndarray:
        """Per-key sums of ``contrib`` (one row per key), in key order."""
        if self.order is not None:
            contrib = contrib[self.order]
        if self.starts is None:
            return contrib
        return np.add.reduceat(contrib, self.starts, axis=0)


# ---------------------------------------------------------------------------
# Plan pieces: operands and terms
# ---------------------------------------------------------------------------


def _flatten_factors(expr: IndexExpr) -> tuple[float, list[IndexExpr]]:
    """Flatten a product term into ``(scalar sign, [factors])``."""
    if isinstance(expr, Mul):
        sa, fa = _flatten_factors(expr.a)
        sb, fb = _flatten_factors(expr.b)
        return sa * sb, fa + fb
    if isinstance(expr, Neg):
        s, f = _flatten_factors(expr.a)
        return -s, f
    if isinstance(expr, (Add, Sub)):
        raise VectorizeFallback(
            "nested addition inside a product (union under intersection)"
        )
    return 1.0, [expr]


class _DenseOperand:
    """An all-dense operand read as a view of its ``vals``: reshaped to
    its level extents, then transposed so its axes follow ``modes``."""

    def __init__(self, storage: TensorStorage, modes: list[int]) -> None:
        self.storage = storage
        self.level_shape = tuple(storage.level_dim(L)
                                 for L in range(storage.order))
        self.axes = tuple(storage.fmt.level_of_mode(m) for m in modes)

    def view(self) -> np.ndarray:
        return self.storage.vals.reshape(self.level_shape).transpose(self.axes)


class _Gather:
    """A dense operand gathered at the entry coordinates of its modes the
    sparse factor shares; its residual modes stay as trailing axes.

    Without residual modes the gather is one flat index into ``vals``.
    """

    def __init__(self, storage: TensorStorage, shared: list[int],
                 residual: list[int], coords: list[np.ndarray]) -> None:
        self.operand = _DenseOperand(storage, shared + residual)
        self.residual_size = int(np.prod(
            [storage.dims[m] for m in residual], dtype=np.int64))
        if residual:
            self.index = tuple(np.ascontiguousarray(c) for c in coords)
            self.flat = None
        else:
            by_mode = dict(zip(shared, coords))
            self.flat = np.ravel_multi_index(
                [by_mode[storage.fmt.mode_of_level(L)]
                 for L in range(storage.order)],
                self.operand.level_shape)

    def take(self, rows: slice) -> np.ndarray:
        if self.flat is not None:
            return self.operand.storage.vals[self.flat[rows]]
        return self.operand.view()[tuple(ix[rows] for ix in self.index)]


class _Term:
    """One additive term: its sign, scalar factors, and the lhs variables
    it uses (``shape`` has size-1 axes for the ones it does not)."""

    def __init__(self, plan: "NumpyPlan", sign: int, scalar: float,
                 scalars: list, present: list[IndexVar]) -> None:
        self.sign = sign
        self.scalar = scalar
        self.scalars = scalars  # literals and scalar-tensor storages
        ids = {id(v) for v in present}
        self.shape = tuple(plan.dims[v] if id(v) in ids else 1
                           for v in plan.lhs_vars)
        self.present_shape = tuple(plan.dims[v] for v in present)

    def execute(self) -> np.ndarray:
        scalar = self.scalar
        for item in self.scalars:
            scalar *= item if isinstance(item, float) else float(item.vals[0])
        return np.asarray(self.compute(scalar),
                          dtype=np.float64).reshape(self.shape)

    def compute(self, scalar: float) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError


class _DenseTerm(_Term):
    """No sparse factor: one einsum over the dense operand views."""

    def __init__(self, plan: "NumpyPlan", dense_accs: list[Access],
                 storages: dict[int, TensorStorage], **term) -> None:
        super().__init__(plan, **term)
        self.operands = [_DenseOperand(storages[id(acc.tensor)],
                                       list(range(acc.tensor.order)))
                         for acc in dense_accs]
        self.spec = (",".join(plan.subs(acc.indices) for acc in dense_accs)
                     + "->" + plan.subs(term["present"]))

    def compute(self, scalar: float) -> np.ndarray:
        if not self.operands:
            return np.full(self.present_shape, scalar)
        return scalar * np.einsum(self.spec,
                                  *(op.view() for op in self.operands))


class _SparseTerm(_Term):
    """One sparse factor (or an intersected pair): values read at fixed
    positions, dense operands gathered at the entry coordinates,
    contracted over the entry axis and scattered per output key."""

    def __init__(self, plan: "NumpyPlan", sparse_accs: list[Access],
                 dense_accs: list[Access],
                 storages: dict[int, TensorStorage], **term) -> None:
        super().__init__(plan, **term)
        acc, coords, self.factors = _sparse_entries(sparse_accs, storages)
        self.entries = len(coords)
        dims, present = plan.dims, term["present"]
        sparse_col = {id(v): m for m, v in enumerate(acc.indices)}
        lhs_s = [v for v in present if id(v) in sparse_col]
        lhs_d = [v for v in present if id(v) not in sparse_col]
        d_shape = tuple(dims[v] for v in lhs_d)

        # Each dense factor is gathered at the entry coordinates along its
        # modes that the sparse factor also indexes; its remaining modes
        # stay as residual axes for einsum to carry or reduce.
        self.gathers: list[_Gather] = []
        subs = ["e"]
        for dacc in dense_accs:
            shared = [m for m, v in enumerate(dacc.indices)
                      if id(v) in sparse_col]
            residual = [m for m in range(len(dacc.indices))
                        if m not in shared]
            self.gathers.append(_Gather(
                storages[id(dacc.tensor)], shared, residual,
                [coords[:, sparse_col[id(dacc.indices[m])]]
                 for m in shared]))
            subs.append("e" + plan.subs(dacc.indices[m] for m in residual))
        out_sub = ("e" if lhs_s else "") + plan.subs(lhs_d)
        self.spec = f"{','.join(subs)}->{out_sub}"

        # Block the gathers only where the entry axis survives, so a
        # reduction over it keeps its summation order.
        row_bytes = 8 * sum(g.residual_size for g in self.gathers
                            if g.flat is None)
        self.block = None
        if lhs_s and row_bytes:
            rows = max(1, GATHER_BLOCK_BYTES // row_bytes)
            self.block = rows if rows < self.entries else None
        self.contrib_shape = (self.entries,) + d_shape

        self.scatter = None
        if lhs_s and self.entries:
            # Linearized output keys; entries sharing an output coordinate
            # (reduction vars living in the sparse factor) merge.
            keys = np.zeros(self.entries, dtype=np.int64)
            for v in lhs_s:
                keys = keys * dims[v] + coords[:, sparse_col[id(v)]]
            self.scatter = SegmentScatter(keys)
            s_shape = tuple(dims[v] for v in lhs_s)
            self.buffer_shape = (int(np.prod(s_shape, dtype=np.int64)),
                                 ) + d_shape
            self.result_shape = s_shape + d_shape
            # Axes are (lhs_s..., lhs_d...); interleave back to lhs order.
            self.axes = tuple(np.argsort([present.index(v)
                                          for v in lhs_s + lhs_d]))

    def _values(self, scalar: float) -> np.ndarray:
        (storage, positions), *rest = self.factors
        vals = storage.vals if positions is None else storage.vals[positions]
        for other, other_positions in rest:
            vals = vals * other.vals[other_positions]
        return vals * scalar

    def compute(self, scalar: float) -> np.ndarray:
        if self.entries == 0:
            return np.zeros(self.present_shape)
        vals = self._values(scalar)
        if self.block is None:
            every = slice(None)
            contrib = np.einsum(self.spec, vals,
                                *(g.take(every) for g in self.gathers))
        else:
            # Entry-fastest layout: reduceat over the entry axis then
            # runs along contiguous memory.
            contrib = np.empty(self.contrib_shape, order="F")
            for lo in range(0, self.entries, self.block):
                rows = slice(lo, lo + self.block)
                np.einsum(self.spec, vals[rows],
                          *(g.take(rows) for g in self.gathers),
                          out=contrib[rows])
        if self.scatter is None:
            return contrib  # einsum already reduced the entry axis
        sums = self.scatter.sums(contrib)
        if len(sums) == self.buffer_shape[0]:
            buffer = sums  # every output key is hit: no zero fill
        else:
            buffer = np.zeros(self.buffer_shape)
            buffer[self.scatter.keys] = sums
        return buffer.reshape(self.result_shape).transpose(self.axes)


def _sparse_entries(sparse_accs: list[Access],
                    storages: dict[int, TensorStorage]):
    """The entries of one sparse factor, or of two intersected over one
    shared index-variable set: ``(access, coords, factors)`` where each
    factor is ``(storage, positions)`` (``None`` for all of ``vals``)."""
    acc = sparse_accs[0]
    storage = storages[id(acc.tensor)]
    if len(sparse_accs) == 1:
        coords, positions = _entries(storage)
        if np.array_equal(positions, np.arange(len(storage.vals))):
            positions = None
        return acc, coords, [(storage, positions)]
    b = sparse_accs[1]
    if {id(v) for v in acc.indices} != {id(v) for v in b.indices}:
        raise VectorizeFallback(
            "sparse-sparse join over differing index-variable sets"
        )
    other = storages[id(b.tensor)]
    coords_a, pos_a = _entries(storage)
    coords_b, pos_b = _entries(other)
    col_b = {id(v): m for m, v in enumerate(b.indices)}
    shape = acc.tensor.shape
    keys_a = np.zeros(len(pos_a), dtype=np.int64)
    keys_b = np.zeros(len(pos_b), dtype=np.int64)
    for m, v in enumerate(acc.indices):
        keys_a = keys_a * shape[m] + coords_a[:, m]
        keys_b = keys_b * shape[m] + coords_b[:, col_b[id(v)]]
    if (len(np.unique(keys_a)) != len(keys_a)
            or len(np.unique(keys_b)) != len(keys_b)):
        raise VectorizeFallback(
            "duplicate stored coordinates in a sparse-sparse join"
        )
    _, ia, ib = np.intersect1d(keys_a, keys_b, assume_unique=True,
                               return_indices=True)
    return acc, coords_a[ia], [(storage, pos_a[ia]), (other, pos_b[ib])]


# ---------------------------------------------------------------------------
# The plan
# ---------------------------------------------------------------------------


class NumpyPlan:
    """The structure of one assignment's vectorized execution.

    Built from the assignment and its operands' current storages; holds
    index arrays and subscripts, never values. :meth:`is_current` is
    False once any operand has been repacked into a new storage object.

    Attributes:
        fallback: why the statement is not vectorizable, or ``None``.
    """

    def __init__(self, assignment: Assignment) -> None:
        self.assignment = assignment
        self.operands = tuple((t, t.storage)
                              for t in assignment.rhs.tensors())
        self.fallback: str | None = None
        self.terms: list[_Term] = []
        try:
            self._build({id(t): s for t, s in self.operands})
        except VectorizeFallback as exc:
            self.fallback = str(exc)
            self.terms = []

    def is_current(self) -> bool:
        """Whether every operand still has the storage planned against."""
        return all(t.storage is s for t, s in self.operands)

    def execute(self) -> np.ndarray:
        """Read the operands' values and compute the dense result.

        Raises :class:`VectorizeFallback` for non-vectorizable shapes.
        """
        if self.fallback is not None:
            raise VectorizeFallback(self.fallback)
        a = self.assignment
        accumulate = a.accumulate and a.lhs.tensor._storage is not None
        terms = self.terms
        if len(terms) == 1 and terms[0].sign == 1 and not accumulate:
            # Single positive term: the term buffer *is* the result, so
            # skip the output allocation and the full-size += pass.
            contrib = terms[0].execute()
            if contrib.shape == self.out_shape:
                return contrib
            return np.broadcast_to(contrib, self.out_shape).copy()
        out = np.zeros(self.out_shape, dtype=np.float64)
        for term in terms:
            if term.sign >= 0:
                np.add(out, term.execute(), out=out)
            else:
                np.subtract(out, term.execute(), out=out)
        if accumulate:
            np.add(out, a.lhs.tensor.to_dense(), out=out)
        return out

    # -- planning -----------------------------------------------------------

    def _build(self, storages: dict[int, TensorStorage]) -> None:
        a = self.assignment
        self.dims = infer_dimensions(a)
        if len(self.dims) > len(_LETTERS):
            raise VectorizeFallback(
                f"{len(self.dims)} index variables exceed the einsum alphabet"
            )
        self.letters = {id(v): _LETTERS[k] for k, v in enumerate(self.dims)}
        self.lhs_vars = list(a.lhs.indices)
        self.out_shape = tuple(self.dims[v] for v in self.lhs_vars)
        self.terms = [self._plan_term(sign, term, storages)
                      for sign, term in additive_terms(a.rhs)]

    def subs(self, variables) -> str:
        """einsum subscripts of index variables."""
        return "".join(self.letters[id(v)] for v in variables)

    def _plan_term(self, sign: int, term: IndexExpr,
                   storages: dict[int, TensorStorage]) -> _Term:
        scalar, factors = _flatten_factors(term)
        scalars: list = []
        dense_accs: list[Access] = []
        sparse_accs: list[Access] = []
        for f in factors:
            if isinstance(f, Literal):
                scalars.append(float(f.value))
            elif isinstance(f, Access):
                if f.tensor.order == 0:
                    scalars.append(storages[id(f.tensor)])
                elif f.tensor.format.is_all_dense:
                    dense_accs.append(f)
                else:
                    sparse_accs.append(f)
            else:  # pragma: no cover - _flatten_factors rejects the rest
                raise VectorizeFallback(f"unexpected factor {type(f).__name__}")
        if len(sparse_accs) > 2:
            raise VectorizeFallback(
                f"{len(sparse_accs)} sparse factors in one term"
            )
        term_var_ids = {id(v) for v in term.index_vars()}
        common = dict(sign=sign, scalar=scalar, scalars=scalars,
                      present=[v for v in self.lhs_vars
                               if id(v) in term_var_ids])
        if not sparse_accs:
            return _DenseTerm(self, dense_accs, storages, **common)
        return _SparseTerm(self, sparse_accs, dense_accs, storages, **common)


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------


class NumpyExecutor:
    """Vectorized execution of a (scheduled or bare) statement.

    ``plan`` reuses a structural plan (a ``CompiledKernel`` passes its
    own); :meth:`run` replaces it when it is missing, belongs to another
    assignment, or was built against storages an operand no longer has.

    Attributes:
        plan: the :class:`NumpyPlan` the last :meth:`run` executed.
        fell_back: True once :meth:`run` has delegated to the
            ``CpuExecutor`` because the statement shape was not
            vectorizable.
    """

    def __init__(self, stmt: IndexStmt | Assignment,
                 plan: NumpyPlan | None = None) -> None:
        if isinstance(stmt, IndexStmt):
            assignment = stmt.assignment
        else:
            assignment = stmt
        self.assignment = assignment
        self.plan = plan
        self.fell_back = False

    def run(self, strict: bool = False) -> np.ndarray:
        """Execute, returning the dense result array (lhs shape).

        ``strict=True`` raises :class:`VectorizeFallback` instead of
        delegating to the ``CpuExecutor`` interpreter.
        """
        plan = self.plan
        if (plan is None or plan.assignment is not self.assignment
                or not plan.is_current()):
            plan = self.plan = NumpyPlan(self.assignment)
        try:
            return plan.execute()
        except VectorizeFallback:
            if strict:
                raise
            self.fell_back = True
            from repro.backends.cpu_exec import CpuExecutor

            result = CpuExecutor(self.assignment).run()
            return np.asarray(result, dtype=np.float64).reshape(
                self.assignment.lhs.tensor.shape
            )


def execute_numpy(stmt: IndexStmt | Assignment,
                  strict: bool = False) -> np.ndarray:
    """Execute a statement with the vectorized NumPy backend (one-shot plan).

    Falls back to :func:`repro.backends.cpu_exec.execute_cpu` for
    non-vectorizable shapes unless ``strict`` is set.
    """
    return NumpyExecutor(stmt).run(strict=strict)
