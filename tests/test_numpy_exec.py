"""Tests for the vectorized NumPy execution backend.

Three-way differential testing again, now with the numpy engine in the
loop: for every evaluation kernel and every format in the registry, the
vectorized executor must agree with the dense reference, the Spatial
interpreter (the oracle — it handles every format), and — where the
merge-lattice walker supports the format — the ``CpuExecutor``.
Singleton-bearing formats (COO family) are skipped for the cpu
comparison only: ``CpuExecutor``'s single-parent-position walker cannot
enumerate singleton levels, which is exactly why the interpreter stays
the universal oracle.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import numpy_exec
from repro.backends.cpu_exec import execute_cpu
from repro.backends.numpy_exec import (
    NumpyExecutor,
    SegmentScatter,
    VectorizeFallback,
    enumerate_entries,
    execute_numpy,
)
from repro.core import compile_stmt
from repro.core.compiler import ENGINES, default_engine
from repro.formats import (
    CSR,
    DENSE_MATRIX,
    DENSE_VECTOR,
    SPARSE_VECTOR,
    format_of,
    offChip,
    registered_formats,
)
from repro.ir import index_vars
from repro.tensor import Tensor, evaluate_dense, to_dense
from tests.conftest import random_sparse
from tests.helpers_kernels import (
    SMALL_DIMS,
    build_small_kernel_stmt,
    make_small_tensors,
)

ALL_KERNELS = tuple(SMALL_DIMS)

#: Small per-order operand shapes for the format-registry sweep. Block
#: formats (BCSR) need the two inner dims to equal the static 4x4 tile.
DIMS_BY_ORDER = {1: (9,), 2: (7, 9), 3: (4, 5, 6), 4: (3, 5, 4, 4)}


def _cpu_walkable(fmt) -> bool:
    """Can ``CpuExecutor``'s merge-lattice walker enumerate this format?

    Two documented structural gaps: singleton levels (the COO family) have
    no per-coordinate segment the walker can seek, and compressed
    column-major layouts (CSC) need the inner mode's coordinate bound
    before the outer one, which a row-major forall nest never does. Both
    are exactly why the Spatial interpreter remains the universal oracle.
    """
    if any(mf.kind.value == "singleton" for mf in fmt.mode_formats):
        return False
    if fmt.is_all_dense:
        return True
    return tuple(fmt.mode_ordering) == tuple(range(fmt.order))


def _registry_stmt(format_name: str, rng):
    """A contraction exercising one registered format as the sparse operand."""
    fmt = format_of(format_name)
    dims = DIMS_BY_ORDER[fmt.order]
    A = Tensor("A", dims, fmt).from_dense(random_sparse(rng, dims))
    if fmt.order == 1:
        (i,) = index_vars("i")
        x = Tensor("x", dims, DENSE_VECTOR(offChip)).from_dense(
            rng.random(dims))
        y = Tensor("y", dims, DENSE_VECTOR(offChip))
        y[i] = A[i] * x[i]
    elif fmt.order == 2:
        i, j = index_vars("i j")
        x = Tensor("x", (dims[1],), DENSE_VECTOR(offChip)).from_dense(
            rng.random(dims[1]))
        y = Tensor("y", (dims[0],), DENSE_VECTOR(offChip))
        y[i] = A[i, j] * x[j]
    elif fmt.order == 3:
        i, j, k = index_vars("i j k")
        c = Tensor("c", (dims[2],), DENSE_VECTOR(offChip)).from_dense(
            rng.random(dims[2]))
        y = Tensor("y", dims[:2], DENSE_MATRIX(offChip))
        y[i, j] = A[i, j, k] * c[k]
    else:  # order 4: the BCSR-SpMV shape
        I, J, bi, bj = index_vars("I J bi bj")
        x = Tensor("x", (dims[1], dims[3]), DENSE_MATRIX(offChip)).from_dense(
            rng.random((dims[1], dims[3])))
        y = Tensor("y", (dims[0], dims[2]), DENSE_MATRIX(offChip))
        y[I, bi] = A[I, J, bi, bj] * x[J, bj]
    return y


# ---------------------------------------------------------------------------
# Differential testing: every kernel, every engine
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ALL_KERNELS)
def test_matches_dense_reference(name):
    """Vectorized (strict: no fallback) vs the dense reference."""
    stmt, out, _ = build_small_kernel_stmt(name)
    executor = NumpyExecutor(stmt)
    result = executor.run(strict=True)
    assert not executor.fell_back
    reference = np.atleast_1d(evaluate_dense(out.get_assignment()))
    assert np.allclose(result.reshape(reference.shape), reference)


@pytest.mark.parametrize("name", ALL_KERNELS)
def test_matches_spatial_interpreter(name):
    """Differential: numpy engine vs Spatial interpreter, same statement."""
    stmt, _, _ = build_small_kernel_stmt(name, seed=9, density=0.35)
    result = execute_numpy(stmt, strict=True)
    spatial = np.atleast_1d(to_dense(compile_stmt(stmt, name.lower()).run()))
    assert np.allclose(result.reshape(spatial.shape), spatial)


@pytest.mark.parametrize("format_name", sorted(registered_formats()))
def test_format_registry_cross_validation(format_name, rng):
    """Every registered format: numpy vs dense reference vs CpuExecutor."""
    y = _registry_stmt(format_name, rng)
    executor = NumpyExecutor(y.get_index_stmt())
    result = executor.run(strict=True)
    assert not executor.fell_back
    reference = np.atleast_1d(evaluate_dense(y.get_assignment()))
    assert np.allclose(result.reshape(reference.shape), reference)
    if _cpu_walkable(format_of(format_name)):
        cpu = execute_cpu(y.get_index_stmt())
        assert np.allclose(np.asarray(cpu).reshape(reference.shape),
                           reference)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**16), density=st.floats(0.05, 0.9))
def test_property_spmv_three_way(seed, density):
    """Property: numpy == cpu == dense reference on random CSR SpMV."""
    rng = np.random.default_rng(seed)
    A = Tensor("A", (6, 8), CSR(offChip)).from_dense(
        random_sparse(rng, (6, 8), density))
    x = Tensor("x", (8,), DENSE_VECTOR(offChip)).from_dense(rng.random(8))
    y = Tensor("y", (6,), DENSE_VECTOR(offChip))
    i, j = index_vars("i j")
    y[i] = A[i, j] * x[j]
    stmt = y.get_index_stmt()
    reference = evaluate_dense(y.get_assignment())
    assert np.allclose(execute_numpy(stmt, strict=True), reference)
    assert np.allclose(execute_cpu(stmt).reshape(reference.shape), reference)


# ---------------------------------------------------------------------------
# The fall-back path
# ---------------------------------------------------------------------------


def _sparse_vec(name: str, rng, n: int = 8) -> Tensor:
    return Tensor(name, (n,), SPARSE_VECTOR(offChip)).from_dense(
        random_sparse(rng, (n,)))


def test_fallback_three_sparse_factors(rng):
    """Three sparse factors exceed the vectorizer; CpuExecutor takes over."""
    B, C, D = (_sparse_vec(n, rng) for n in "BCD")
    y = Tensor("y", (8,), DENSE_VECTOR(offChip))
    (i,) = index_vars("i")
    y[i] = B[i] * C[i] * D[i]
    stmt = y.get_index_stmt()
    with pytest.raises(VectorizeFallback):
        NumpyExecutor(stmt).run(strict=True)
    executor = NumpyExecutor(stmt)
    result = executor.run()
    assert executor.fell_back
    assert np.allclose(result, evaluate_dense(y.get_assignment()))


def test_fallback_sparse_join_differing_vars(rng):
    """Sparse-sparse join over differing index-variable sets falls back."""
    A = Tensor("A", (6, 8), CSR(offChip)).from_dense(
        random_sparse(rng, (6, 8)))
    b = _sparse_vec("b", rng)
    y = Tensor("y", (6,), DENSE_VECTOR(offChip))
    i, j = index_vars("i j")
    y[i] = A[i, j] * b[j]
    stmt = y.get_index_stmt()
    with pytest.raises(VectorizeFallback):
        NumpyExecutor(stmt).run(strict=True)
    executor = NumpyExecutor(stmt)
    result = executor.run()
    assert executor.fell_back
    assert np.allclose(result, evaluate_dense(y.get_assignment()))


def test_fallback_nested_union_in_product(rng):
    """A union nested inside an intersection is the CpuExecutor's domain."""
    A = _sparse_vec("A", rng)
    b = Tensor("b", (8,), DENSE_VECTOR(offChip)).from_dense(rng.random(8))
    c = Tensor("c", (8,), DENSE_VECTOR(offChip)).from_dense(rng.random(8))
    y = Tensor("y", (8,), DENSE_VECTOR(offChip))
    (i,) = index_vars("i")
    y[i] = A[i] * (b[i] + c[i])
    stmt = y.get_index_stmt()
    with pytest.raises(VectorizeFallback):
        NumpyExecutor(stmt).run(strict=True)
    executor = NumpyExecutor(stmt)
    result = executor.run()
    assert executor.fell_back
    assert np.allclose(result, evaluate_dense(y.get_assignment()))


# ---------------------------------------------------------------------------
# Building blocks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("format_name", sorted(registered_formats()))
def test_enumerate_entries_round_trip(format_name, rng):
    """Per-level-format emitters reconstruct the dense tensor exactly."""
    fmt = format_of(format_name)
    dims = DIMS_BY_ORDER[fmt.order]
    dense = random_sparse(rng, dims)
    storage = Tensor("A", dims, fmt).from_dense(dense).storage
    coords, vals = enumerate_entries(storage)
    rebuilt = np.zeros(dims)
    np.add.at(rebuilt, tuple(coords[:, m] for m in range(len(dims))), vals)
    assert np.allclose(rebuilt, dense)


def test_segment_scatter_add_matches_add_at(rng):
    """Duplicate and unsorted keys accumulate exactly like np.add.at."""
    keys = rng.integers(0, 20, size=200)
    contrib = rng.random((200, 3))
    buffer = np.zeros((20, 3))
    scatter = SegmentScatter(keys)
    buffer[scatter.keys] += scatter.sums(contrib)
    reference = np.zeros((20, 3))
    np.add.at(reference, keys, contrib)
    assert np.allclose(buffer, reference)


# ---------------------------------------------------------------------------
# Engine selection and the exec cache stage
# ---------------------------------------------------------------------------


def test_run_engine_all_engines_agree():
    stmt, out, _ = build_small_kernel_stmt("SpMV")
    kernel = compile_stmt(stmt, "spmv")
    reference = np.atleast_1d(evaluate_dense(out.get_assignment()))
    for engine in ENGINES:
        result = np.atleast_1d(kernel.run_engine(engine))
        assert np.allclose(result.reshape(reference.shape), reference), engine


def test_default_engine_env(monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    assert default_engine() == "numpy"
    monkeypatch.setenv("REPRO_ENGINE", "interp")
    assert default_engine() == "interp"
    monkeypatch.setenv("REPRO_ENGINE", "turbo")
    with pytest.raises(ValueError):
        default_engine()


def test_exec_stage_cache_key_separation(fresh_cache):
    """Engines never share exec-stage cache entries; reruns replay."""
    from repro.eval.harness import exec_check

    first = exec_check("SpMV", "bcsstk30", 0.02, engine="numpy")
    second = exec_check("SpMV", "bcsstk30", 0.02, engine="cpu")
    assert first["engine"] == "numpy"
    assert first["fell_back"] is False
    assert second["engine"] == "cpu"
    assert fresh_cache.stats.stage_misses["exec"] == 2
    replay = exec_check("SpMV", "bcsstk30", 0.02, engine="numpy")
    assert fresh_cache.stats.stage_hits["exec"] == 1
    assert replay == first


def test_exec_check_validates_against_oracle(fresh_cache):
    """exec_check returns a passing summary for every engine."""
    from repro.eval.harness import exec_check

    for engine in ENGINES:
        summary = exec_check("SpMV", "bcsstk30", 0.02, engine=engine)
        assert summary["kernel"] == "SpMV"
        assert summary["elements"] > 0
        assert summary["maxerr"] <= 1e-8


# ---------------------------------------------------------------------------
# The structural plan: cached on the kernel, never holding values
# ---------------------------------------------------------------------------


def _uncached_kernel(name: str, seed: int = 42):
    """A compiled kernel plus its operands, outside the compile cache (the
    tests below mutate operands, which must not leak into shared entries)."""
    from repro.kernels import KERNELS

    tensors = make_small_tensors(name, seed)
    stmt, _ = KERNELS[name].build(tensors, inner_par=16)
    return compile_stmt(stmt, name.lower(), cache=False), tensors


def _assert_matches_fresh_engines(kernel):
    got = kernel.run_engine("numpy")
    fresh = execute_numpy(kernel.stmt).reshape(got.shape)
    oracle = np.asarray(kernel.run_dense()).reshape(got.shape)
    assert np.allclose(got, fresh)
    assert np.allclose(got, oracle)
    return got


@pytest.mark.parametrize("name, operands", [
    ("MatTransMul", ("A", "x", "z", "alpha")),
    ("SDDMM", ("B", "C", "D")),
    ("DCSR-SpMM", ("A", "B")),
])
def test_plan_reads_values_every_call(name, operands):
    """In-place writes to sparse, dense (gathered, flat or with residual
    axes, and einsum-viewed) and scalar operands reach the next call on
    the same, reused plan."""
    kernel, tensors = _uncached_kernel(name)
    first = _assert_matches_fresh_engines(kernel)
    plan = kernel._numpy_plan
    for k, operand in enumerate(operands):
        vals = tensors[operand].storage.vals
        vals[:] = vals * (k + 2) - np.arange(len(vals)) / 7
        second = _assert_matches_fresh_engines(kernel)
        assert kernel._numpy_plan is plan
        assert not np.allclose(first, second), operand
        first = second


def test_plan_rebuilt_after_repack():
    """Tensor.insert repacks the operand into a new storage object; the
    kernel's plan notices and re-plans against the new structure."""
    kernel, tensors = _uncached_kernel("SpMV")
    _assert_matches_fresh_engines(kernel)
    plan = kernel._numpy_plan
    A = tensors["A"]
    dense = A.to_dense()
    r, c = map(int, np.argwhere(dense == 0)[0])
    A.insert((r, c), 4.0)
    got = _assert_matches_fresh_engines(kernel)
    assert kernel._numpy_plan is not plan
    dense[r, c] = 4.0
    assert np.allclose(got, dense @ tensors["x"].to_dense())


def test_plan_reused_across_executors():
    """A plan handed to a new executor is reused while it is current."""
    stmt, _, _ = build_small_kernel_stmt("TTV")
    first = NumpyExecutor(stmt)
    first.run()
    second = NumpyExecutor(stmt, plan=first.plan)
    second.run()
    assert second.plan is first.plan
    assert first.plan.fallback is None


def test_fallback_decision_is_planned(rng):
    """A non-vectorizable shape is decided once, at plan time."""
    B, C, D = (_sparse_vec(n, rng) for n in "BCD")
    y = Tensor("y", (8,), DENSE_VECTOR(offChip))
    (i,) = index_vars("i")
    y[i] = B[i] * C[i] * D[i]
    executor = NumpyExecutor(y.get_index_stmt())
    executor.run()
    assert executor.fell_back
    assert "3 sparse factors" in executor.plan.fallback
    assert not executor.plan.terms


@pytest.mark.parametrize("name", ["SDDMM", "TTM", "MTTKRP", "DCSR-SpMM"])
def test_blocked_gather_matches_unblocked(name, monkeypatch):
    """Blocking the gathers over the entry axis changes no result."""
    stmt, out, _ = build_small_kernel_stmt(name, seed=5)
    unblocked = NumpyExecutor(stmt)
    reference = unblocked.run(strict=True)
    assert all(getattr(t, "block", None) is None
               for t in unblocked.plan.terms)
    monkeypatch.setattr(numpy_exec, "GATHER_BLOCK_BYTES", 16)
    blocked = NumpyExecutor(stmt)
    result = blocked.run(strict=True)
    assert any(getattr(t, "block", None) == 1 for t in blocked.plan.terms)
    assert np.allclose(result, reference, rtol=1e-13, atol=0)
    dense = np.atleast_1d(evaluate_dense(out.get_assignment()))
    assert np.allclose(result.reshape(dense.shape), dense)


@pytest.mark.parametrize("name", ["SpMV", "MatTransMul", "SDDMM"])
def test_plan_stays_out_of_pickles_and_keys(name):
    """The cached plan never reaches pickled cache entries or dispatch
    payloads, and leaves the statement fingerprint alone."""
    from repro.pipeline.cache import fingerprint_stmt

    kernel, _ = _uncached_kernel(name)
    # Fingerprinting packs inserted scalars, as compile_stmt's cache does.
    key = fingerprint_stmt(kernel.stmt, kernel.name)
    before = pickle.dumps(kernel, protocol=pickle.HIGHEST_PROTOCOL)
    result = kernel.run_engine("numpy")
    assert kernel._numpy_plan is not None
    assert pickle.dumps(kernel, protocol=pickle.HIGHEST_PROTOCOL) == before
    assert fingerprint_stmt(kernel.stmt, kernel.name) == key
    clone = pickle.loads(before)
    assert "_numpy_plan" not in vars(clone)
    assert np.array_equal(clone.run_engine("numpy"), result)
