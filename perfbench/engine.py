"""``engine-exec``: prebuilt kernels run by the NumPy execution engine.

Set-up builds the 13 kernels (10 Table 6 + 3 format kernels) on their
first dataset, cold. The timed loop calls
``CompiledKernel.run_engine("numpy")`` on each, and every result is
checked against a reference computed once from the operands'
coordinates with ``scipy.sparse`` or ``np.add.at`` — never from the
engine or the interpreter, and without densifying any sparse operand.
Where a kernel maps onto ``scipy.sparse``, that one-liner is timed in the
same pass as the outside yardstick. Each phase of a traced run also makes
one cold checked Table 6 sweep (``perfbench/sweep.py``).
"""

from __future__ import annotations

import random
import time

import numpy as np

from perfbench import ledger
from perfbench.sweep import Sweep, cache_counters
from perfbench.common import (
    SETUP_REPEATS,
    Context,
    Outcome,
    digest,
    geomean,
    median,
    note,
    tensor_digest,
)

SCALE = 0.1
TINY_SCALE = 0.02

#: Passes over all kernels in each phase of a traced run.
TRACED_PASSES = 5


def _csr(coords, vals, shape):
    import scipy.sparse as sp

    return sp.coo_matrix((vals, (coords[:, 0], coords[:, 1])),
                         shape=shape).tocsr()


class Expected:
    """A reference result: either a dense array, or values at coordinates
    (``coords`` index the leading axes) with zeros everywhere else."""

    def __init__(self, dense=None, coords=None, vals=None) -> None:
        self.dense = dense
        self.coords = coords
        self.vals = vals

    def matches(self, got: np.ndarray) -> bool:
        got = np.asarray(got, dtype=np.float64)
        if self.dense is not None:
            ref = np.asarray(self.dense, dtype=np.float64)
            if got.shape != ref.shape:
                return False
            tol = 1e-8 * max(1.0, float(np.max(np.abs(ref))) if ref.size
                             else 1.0)
            return bool(ref.size == 0 or np.max(np.abs(got - ref)) <= tol)
        at = got[tuple(self.coords.T)]
        tol = 1e-8 * max(1.0, float(np.max(np.abs(self.vals)))
                         if self.vals.size else 1.0)
        if self.vals.size and np.max(np.abs(at - self.vals)) > tol:
            return False
        # Everything off the reference coordinates must be zero.
        rest = float(np.abs(got).sum()) - float(np.abs(at).sum())
        return rest <= tol * max(1, self.vals.size)


def _pairs(coords: np.ndarray, axes: int):
    """Unique leading-``axes`` coordinate tuples and each entry's slot."""
    keys, inverse = np.unique(coords[:, :axes], axis=0, return_inverse=True)
    return keys, inverse.reshape(-1)


def reference(name: str, kernel) -> Expected:
    """The independent reference result of one prebuilt kernel."""
    t = {x.name: x for x in kernel.analysis.inputs}
    out_shape = kernel.analysis.output.shape

    def sparse(n):
        from repro.tensor.storage import unpack

        return unpack(t[n].storage)

    def dense(n):
        return t[n].to_dense()

    if name in ("SpMV", "COO-SpMV"):
        (c, v), x = sparse("A"), dense("x")
        return Expected(dense=_csr(c, v, t["A"].shape) @ x)
    if name == "Residual":
        (c, v), x, b = sparse("A"), dense("x"), dense("b")
        return Expected(dense=b - _csr(c, v, t["A"].shape) @ x)
    if name == "MatTransMul":
        (c, v), x, z = sparse("A"), dense("x"), dense("z")
        alpha, beta = t["alpha"].scalar_value(), t["beta"].scalar_value()
        return Expected(dense=alpha * (_csr(c, v, t["A"].shape).T @ x)
                        + beta * z)
    if name == "DCSR-SpMM":
        (c, v), b = sparse("A"), dense("B")
        return Expected(dense=_csr(c, v, t["A"].shape) @ b)
    if name == "BCSR-SpMV":
        (c, v), x = sparse("A"), dense("x")
        y = np.zeros(out_shape)
        np.add.at(y, (c[:, 0], c[:, 2]), v * x[c[:, 1], c[:, 3]])
        return Expected(dense=y)
    if name in ("Plus3", "Plus2"):
        acc = np.zeros(out_shape)
        for n in sorted(t):
            c, v = sparse(n)
            np.add.at(acc, tuple(c.T), v)
        return Expected(dense=acc)
    if name == "InnerProd":
        (cb, vb), (cc, vc) = sparse("B"), sparse("C")
        shape = t["B"].shape
        kb = np.ravel_multi_index(tuple(cb.T), shape)
        kc = np.ravel_multi_index(tuple(cc.T), shape)
        _, ib, ic = np.intersect1d(kb, kc, return_indices=True)
        return Expected(dense=np.asarray(float(np.dot(vb[ib], vc[ic]))))
    if name == "SDDMM":
        (c, v), cm, dm = sparse("B"), dense("C"), dense("D")
        vals = v * np.einsum("nk,nk->n", cm[c[:, 0]], dm[:, c[:, 1]].T)
        return Expected(coords=c, vals=vals)
    if name == "TTV":
        (c, v), vec = sparse("B"), dense("c")
        keys, slot = _pairs(c, 2)
        vals = np.zeros(len(keys))
        np.add.at(vals, slot, v * vec[c[:, 2]])
        return Expected(coords=keys, vals=vals)
    if name == "TTM":
        (c, v), cm = sparse("B"), dense("C")
        keys, slot = _pairs(c, 2)
        vals = np.zeros((len(keys), cm.shape[0]))
        np.add.at(vals, slot, v[:, None] * cm[:, c[:, 2]].T)
        return Expected(coords=keys, vals=vals)
    if name == "MTTKRP":
        (c, v), cm, dm = sparse("B"), dense("C"), dense("D")
        acc = np.zeros(out_shape)
        np.add.at(acc, c[:, 0],
                  v[:, None] * cm[:, c[:, 1]].T * dm[:, c[:, 2]].T)
        return Expected(dense=acc)
    raise KeyError(f"no reference for kernel {name!r}")


def yardstick(name: str, kernel):
    """A ``scipy.sparse`` thunk doing the kernel's work, or ``None``."""
    import scipy.sparse as sp
    from repro.tensor.storage import unpack

    t = {x.name: x for x in kernel.analysis.inputs}
    if name in ("SpMV", "COO-SpMV", "Residual", "MatTransMul", "DCSR-SpMM"):
        a = _csr(*unpack(t["A"].storage), t["A"].shape)
    if name in ("SpMV", "COO-SpMV"):
        x = t["x"].to_dense()
        return lambda: a @ x
    if name == "Residual":
        x, b = t["x"].to_dense(), t["b"].to_dense()
        return lambda: b - a @ x
    if name == "MatTransMul":
        x, z = t["x"].to_dense(), t["z"].to_dense()
        alpha, beta = t["alpha"].scalar_value(), t["beta"].scalar_value()
        return lambda: alpha * (a.T @ x) + beta * z
    if name == "DCSR-SpMM":
        b = t["B"].to_dense()
        return lambda: a @ b
    if name == "BCSR-SpMV":
        c, v = unpack(t["A"].storage)
        nb0, nb1, b0, b1 = t["A"].shape
        a = sp.coo_matrix((v, (c[:, 0] * b0 + c[:, 2], c[:, 1] * b1 + c[:, 3])),
                          shape=(nb0 * b0, nb1 * b1)).tocsr()
        x = t["x"].to_dense().reshape(-1)
        return lambda: a @ x
    if name == "Plus3":
        b, c, d = (_csr(*unpack(t[n].storage), t[n].shape)
                   for n in ("B", "C", "D"))
        return lambda: b + c + d
    return None


def kernel_names() -> list[str]:
    """The 10 Table 6 kernels, then the 3 format kernels."""
    from repro.kernels.suite import FORMAT_KERNEL_ORDER, KERNEL_ORDER

    return [*KERNEL_ORDER, *FORMAT_KERNEL_ORDER]


class Engine:
    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.scale = TINY_SCALE if ctx.tiny else SCALE
        self.names = kernel_names()
        self.kernels: dict = {}

    def setup(self) -> float:
        """Build every kernel, cold."""
        from repro.service import api

        self.ctx.use_cache_dir("build-cache")
        t0 = time.perf_counter()
        self.kernels = {
            name: api.build(api.CompileRequest(kernel=name, scale=self.scale,
                                               seed=self.ctx.seed))
            for name in self.names}
        return time.perf_counter() - t0

    def prepare(self) -> None:
        """References and yardsticks (benchmark work, outside set-up)."""
        self.expected = {n: reference(n, k) for n, k in self.kernels.items()}
        self.scipy = {n: f for n, k in self.kernels.items()
                      if (f := yardstick(n, k)) is not None}

    def one_pass(self, rng: random.Random, out: Outcome,
                 numpy_s: dict, scipy_s: dict | None = None) -> None:
        """Every kernel once, in seeded order; ``scipy_s`` also times the
        yardsticks."""
        order = list(self.names)
        rng.shuffle(order)
        for name in order:
            kernel = self.kernels[name]
            t0 = time.perf_counter()
            got = kernel.run_engine("numpy")
            numpy_s.setdefault(name, []).append(time.perf_counter() - t0)
            with ledger.span("bench.check"):
                out.record(self.expected[name].matches(got))
            del got
            if scipy_s is not None and name in self.scipy:
                with ledger.span("bench.yardstick"):
                    t0 = time.perf_counter()
                    self.scipy[name]()
                    scipy_s.setdefault(name, []).append(
                        time.perf_counter() - t0)

    def inputs(self) -> str:
        return digest(*(tensor_digest({t.name: t for t in
                                       self.kernels[n].analysis.inputs})
                        for n in self.names))

    def invariants(self) -> dict[str, float]:
        kernels = [self.kernels[n] for n in self.names]
        return {
            "core.spatial_loc": sum(int(k.spatial_loc) for k in kernels),
            "data.nnz": sum(int(t.nnz) for k in kernels
                            for t in k.analysis.inputs if t.order),
        }


def run(ctx: Context):
    from repro.backends.numpy_exec import NumpyExecutor

    bench = Engine(ctx)
    out = Outcome()
    rng = random.Random(ctx.seed)
    setups = [bench.setup() for _ in range(1 if ctx.trace
                                           else SETUP_REPEATS)]
    bench.prepare()
    if not ctx.trace:
        numpy_s: dict[str, list[float]] = {}
        deadline = time.perf_counter() + ctx.seconds
        while not numpy_s or time.perf_counter() < deadline:
            bench.one_pass(rng, out, numpy_s)
        calls = sum(len(v) for v in numpy_s.values())
        per = [median(v) for v in numpy_s.values()]
        note(f"{calls // len(bench.names)} pass(es) over "
             f"{len(bench.names)} kernels")
        out.put("setup_s", median(setups), "s")
        out.put("p50_ms", geomean(per) * 1e3, "ms")
        out.put("tail_ms", max(per) * 1e3, "ms")
        # A pass at each kernel's median call, not the mean over all
        # calls, which a burst of host load drags with it.
        out.put("ops_per_s", len(per) / sum(per), "1/s")
        return out, {}, bench.inputs(), {}

    def passes(_phase):
        numpy_s: dict[str, list[float]] = {}
        scipy_s: dict[str, list[float]] = {}
        for _ in range(TRACED_PASSES):
            bench.one_pass(rng, out, numpy_s, scipy_s)
        sweep.checked(out)
        return numpy_s, scipy_s

    sweep = Sweep(ctx)
    hits, misses = cache_counters()
    layers, _, (numpy_s, scipy_s) = ledger.measure(passes)
    # Every sweep starts cold, so the cache counts are exact invariants.
    layers["pipeline.cache.hits"] = cache_counters()[0] - hits
    misses = cache_counters()[1] - misses
    layers["pipeline.cache.misses"] = misses
    per = {name: median(v) for name, v in numpy_s.items()}
    for name, seconds in per.items():
        layers[f"backends.numpy.{name}_ms"] = seconds * 1e3
    layers["backends.numpy.scipy_ratio"] = geomean(
        [per[n] / median(scipy_s[n]) for n in scipy_s])
    fell_back = 0
    for kernel in bench.kernels.values():
        executor = NumpyExecutor(kernel.stmt)
        executor.run()
        fell_back += int(executor.fell_back)
    layers["backends.numpy.fell_back"] = fell_back
    invariants = bench.invariants()
    for name, value in sweep.invariants().items():
        invariants[name] = invariants.get(name, 0) + value
    invariants["pipeline.cache.misses"] = misses
    return out, layers, digest(bench.inputs(), sweep.inputs()), invariants
