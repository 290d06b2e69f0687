"""The typed compile-request API (``repro.api`` / ``repro.service``)."""

from __future__ import annotations

import json

import pytest

import repro.api as api
from repro.service.stats import cache_stats_payload, render_cache_stats

TINY = 0.02


def _req(**kwargs) -> api.CompileRequest:
    defaults = dict(kernel="SpMV", dataset="bcsstk30", scale=TINY)
    defaults.update(kwargs)
    return api.CompileRequest(**defaults)


class TestCompileRequest:
    def test_resolved_fills_defaults(self):
        req = api.CompileRequest(kernel="SpMV").resolved()
        assert req.dataset == api.first_dataset("SpMV")
        assert req.scale == api.DEFAULT_SCALE
        assert req.seed == api.DEFAULT_SEED
        assert req.action == "evaluate"

    def test_canonical_json_is_the_key(self):
        # Equivalent requests — defaults spelled out vs omitted — must
        # produce identical canonical JSON, because that JSON *is* the
        # cache-key input shared by every construction path.
        minimal = api.CompileRequest(kernel="SpMV")
        explicit = api.CompileRequest(
            kernel="SpMV", dataset=api.first_dataset("SpMV"),
            scale=api.DEFAULT_SCALE, seed=api.DEFAULT_SEED)
        assert minimal.canonical_json() == explicit.canonical_json()
        # Deterministic rendering: sorted keys, no whitespace.
        text = minimal.canonical_json()
        assert text == json.dumps(json.loads(text), sort_keys=True,
                                  separators=(",", ":"))

    def test_compile_action_drops_runtime_fields(self):
        # Platform filter and engine don't affect generated code, so a
        # compile request canonicalises them away (wider cache sharing).
        req = _req(action="compile", platforms=("V100 GPU",),
                   engine="numpy").resolved()
        canon = req.canonical()
        assert canon["platforms"] is None
        assert canon["engine"] is None
        assert req.stage == "compile"
        assert _req().resolved().stage == "evaluate"

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            api.CompileRequest(kernel="NoSuch").resolved()
        with pytest.raises(ValueError, match="unknown dataset"):
            _req(dataset="nope").resolved()
        with pytest.raises(ValueError, match="unknown engine"):
            _req(engine="fortran").resolved()
        with pytest.raises(ValueError, match="action"):
            _req(action="transpile").resolved()
        with pytest.raises(ValueError, match="scale"):
            _req(scale=-1.0).resolved()

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown"):
            api.CompileRequest.from_dict({"kernel": "SpMV", "sclae": 0.1})
        with pytest.raises(ValueError, match="kernel"):
            api.CompileRequest.from_dict({"scale": 0.1})
        with pytest.raises(ValueError):
            api.CompileRequest.from_dict({"kernel": "SpMV",
                                          "platforms": "V100 GPU"})

    def test_json_round_trip(self):
        req = _req(platforms=("Capstan (HBM2E)", "V100 GPU")).resolved()
        again = api.CompileRequest.from_json(req.canonical_json()).resolved()
        assert again.canonical_json() == req.canonical_json()


class TestVerbs:
    def test_evaluate_result_round_trips_bytes(self, fresh_cache):
        result = api.evaluate(_req())
        clone = api.CompileResult.from_dict(
            json.loads(result.to_json()))
        assert clone.to_json() == result.to_json()
        times = result.platform_times()
        assert times.normalised()[api.BASELINE_PLATFORM] == 1.0

    def test_equivalent_requests_share_the_cache_entry(self, fresh_cache):
        api.evaluate(api.CompileRequest(kernel="SpMV", scale=TINY))
        misses = fresh_cache.stats.misses
        api.evaluate(api.CompileRequest(
            kernel="SpMV", dataset=api.first_dataset("SpMV"), scale=TINY,
            seed=api.DEFAULT_SEED))
        assert fresh_cache.stats.misses == misses  # pure hit

    def test_cached_peeks_without_computing(self, fresh_cache):
        req = _req()
        assert api.cached(req) is None
        result = api.evaluate(req)
        hit = api.cached(req)
        assert hit is not None
        assert hit.to_json() == result.to_json()
        assert fresh_cache.stats.stage_hits.get("evaluate", 0) >= 1

    def test_compile_action(self, fresh_cache):
        result = api.compile(_req(action="compile"))
        assert result.spatial_loc > 10
        assert result.input_loc > 0
        assert "SpMV" in result.source or "x(i)" in result.source
        assert result.seconds is None
        with pytest.raises(ValueError, match="platform times"):
            result.platform_times()

    def test_execute_dispatches_on_action(self, fresh_cache):
        assert api.execute(_req()).seconds is not None
        assert api.execute(_req(action="compile")).source is not None


class TestStatsPayload:
    def test_shared_formatter_shape(self, fresh_cache):
        api.evaluate(_req())
        payload = cache_stats_payload()
        assert set(payload) == {"compiler", "disk", "counters", "metrics"}
        assert set(payload["disk"]) == {"dir", "entries", "bytes"}
        assert set(payload["metrics"]) == {"counters", "gauges", "histograms"}
        counters = payload["counters"]
        assert counters["misses"] > 0
        assert "evaluate" in counters["stages"]
        rendered = json.loads(render_cache_stats())
        assert set(rendered) == set(payload)


def test_public_api_surface():
    for name in api.__all__:
        assert hasattr(api, name), name
    # The package root re-exports the request/result types.
    import repro

    assert repro.CompileRequest is api.CompileRequest
    assert repro.CompileResult is api.CompileResult
    assert repro.ENGINES is api.ENGINES
