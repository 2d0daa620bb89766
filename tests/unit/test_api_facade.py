"""The repro.api stability contract: the blessed surface must import,
and the top-level package must re-export it."""

import pytest


def test_blessed_surface_imports():
    from repro.api import (  # noqa: F401
        DATASETS,
        BoundsConfig,
        CuRipplesEngine,
        DirectedGraph,
        EIMEngine,
        Engine,
        EngineResult,
        GIMEngine,
        IMMOptions,
        IMMResult,
        InfluenceQuery,
        InfluenceService,
        QueryOutcome,
        ReproError,
        ResilienceOptions,
        RipplesCPUEngine,
        ServiceClosedError,
        ServiceError,
        ServiceOptions,
        ServiceOverloadedError,
        ValidationError,
        assign_ic_weights,
        assign_lt_weights,
        load_dataset,
        load_edgelist,
        run_imm,
    )


def test_api_all_is_complete():
    import repro.api as api

    for name in api.__all__:
        assert hasattr(api, name), f"repro.api.__all__ lists missing {name}"


def test_top_level_reexports_api():
    import repro
    import repro.api as api

    for name in api.__all__:
        assert getattr(repro, name) is getattr(api, name), name


def test_top_level_all_is_complete():
    import repro

    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.__all__ lists missing {name}"


def test_legacy_top_level_names_still_work():
    # pre-facade convenience exports stay importable (compat, not blessed)
    from repro import (  # noqa: F401
        CoverageIndex,
        estimate_spread,
        run_celf_greedy,
        sample_rrr_ic,
        simulate_ic,
    )


def test_service_error_hierarchy():
    from repro.api import (
        ReproError,
        ServiceClosedError,
        ServiceError,
        ServiceOverloadedError,
    )

    assert issubclass(ServiceOverloadedError, ServiceError)
    assert issubclass(ServiceClosedError, ServiceError)
    assert issubclass(ServiceError, ReproError)
    err = ServiceOverloadedError(queue_depth=9, max_queue_depth=8)
    assert err.queue_depth == 9 and err.max_queue_depth == 8
    assert "retry" in str(err)


def test_version_has_one_source():
    """pyproject.toml reads the version from ``repro.__version__``."""
    from pathlib import Path

    import repro

    pyproject = Path(__file__).resolve().parents[2] / "pyproject.toml"
    text = pyproject.read_text()
    assert 'dynamic = ["version"]' in text
    assert 'version = {attr = "repro.__version__"}' in text
    assert repro.__version__ == "2.0.0"
