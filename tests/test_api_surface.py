"""Guards on the stable ``repro.api`` surface.

Three layers of pinning:

* **name snapshot** — ``repro.api.__all__`` must equal the golden list
  below.  Adding a name is a conscious act (update the golden and
  ``docs/api.md``); removing or renaming one is a breaking change.
* **signature snapshot** — ``inspect.signature`` strings of the
  callable surface.  Any parameter rename, reorder, default change, or
  annotation change fails here before it reaches a caller.
* **behavioural contracts** — the ``RunResult.meta`` vocabulary
  (:func:`repro.core.result.validate_meta`) holds on real runs, every
  rng-accepting entry point takes ``int | Generator | None``, and retired
  names keep resolving, with a ``DeprecationWarning``, for one release
  (the single-service archive shims forward to the v4 snapshot format
  and keep the served bits).
"""

import inspect
import warnings

import numpy as np
import pytest

from repro import api
from repro.baselines import knn_baseline, majority_baseline, solo_baseline, svd_baseline
from repro.core.result import META_KEYS, validate_meta
from repro.utils.rng import as_seed

#: Golden snapshot of the stable surface.  Keep sorted groups in sync
#: with repro/api.py — an api change must edit both files (and docs).
GOLDEN_ALL = [
    # substrate
    "ProbeOracle",
    "ProbeStats",
    "BudgetExceededError",
    "BitMatrix",
    "kernel_backend",
    "kernel_info",
    "numpy_kernels",
    # model
    "Instance",
    "Community",
    # algorithms
    "Params",
    "RunResult",
    "META_KEYS",
    "validate_meta",
    "find_preferences",
    "find_preferences_unknown_d",
    "anytime_find_preferences",
    # metrics
    "evaluate",
    # workloads
    "WORKLOADS",
    "make_instance",
    # parallel trials
    "run_trials",
    "derive_seeds",
    "sweep_trials",
    "SharedInstanceStore",
    "SharedInstanceHandle",
    # serving
    "serve",
    "ServeRuntime",
    "ServeService",
    "ServeConfig",
    "MicroBatchRouter",
    "RouterConfig",
    "save_runtime",
    "load_runtime",
    "run_loadgen",
    "LoadgenConfig",
    "LoadgenReport",
    "save_probe_stats",
    "load_probe_stats",
    # live metrics
    "MetricRegistry",
    "MetricsSnapshotSink",
    "metrics_collecting",
    # rng contract
    "as_generator",
]

#: Golden ``inspect.signature`` strings for the callable surface.
GOLDEN_SIGNATURES = {
    "kernel_backend": "() -> 'str'",
    "kernel_info": "() -> 'dict[str, Any]'",
    "numpy_kernels": "() -> 'Iterator[None]'",
    "find_preferences": (
        "(oracle: 'ProbeOracle', alpha: 'float', D: 'int', *, "
        "params: 'Params | None' = None, "
        "rng: 'int | np.random.Generator | None' = None) -> 'RunResult'"
    ),
    "find_preferences_unknown_d": (
        "(oracle: 'ProbeOracle', alpha: 'float', *, "
        "params: 'Params | None' = None, "
        "rng: 'int | np.random.Generator | None' = None, "
        "d_max: 'int | None' = None) -> 'RunResult'"
    ),
    "anytime_find_preferences": (
        "(oracle: 'ProbeOracle', *, params: 'Params | None' = None, "
        "rng: 'int | np.random.Generator | None' = None, "
        "max_phases: 'int | None' = None, d_max: 'int | None' = None, "
        "phase_callback: 'Callable[[int, float, np.ndarray], None] | None' = None)"
        " -> 'RunResult'"
    ),
    "make_instance": (
        "(workload: 'str', n: 'int', m: 'int', alpha: 'float', D: 'int', "
        "rng: 'int | np.random.Generator | None' = None) -> 'Instance'"
    ),
    "run_trials": (
        "(worker: 'Callable[..., Any]', trial_args: 'Sequence[tuple]', *, "
        "max_workers: 'int | None' = None, parallel: 'bool | None' = None)"
        " -> 'list[Any]'"
    ),
    "derive_seeds": (
        "(base_seed: 'int | np.random.Generator | None', count: 'int')"
        " -> 'list[int]'"
    ),
    "sweep_trials": (
        "(worker: 'Callable[..., Any]', instance: 'Instance', "
        "seeds: 'Sequence[int]', *, parallel: 'bool | None' = None, "
        "max_workers: 'int | None' = None) -> 'list[Any]'"
    ),
    "evaluate": (
        "(outputs: 'np.ndarray', truth: 'np.ndarray', "
        "members: 'Sequence[int] | np.ndarray | None' = None, *, "
        "diam: 'int | None' = None) -> 'EvaluationReport'"
    ),
    "as_generator": (
        "(rng: 'int | np.random.Generator | np.random.SeedSequence | None')"
        " -> 'np.random.Generator'"
    ),
    "ServeService": (
        "(instance: 'Instance | np.ndarray | BitMatrix', *,"
        " config: 'ServeConfig | None' = None,"
        " _restore: 'ServiceCheckpoint | None' = None)"
        " -> 'None'"
    ),
    "MicroBatchRouter": (
        "(service: 'ServeService', *, config: 'RouterConfig | None' = None) -> 'None'"
    ),
    "serve": (
        "(instance: 'Instance | np.ndarray | BitMatrix',"
        " config: 'ServeConfig | None' = None)"
        " -> 'ServeRuntime'"
    ),
    "save_runtime": "(path: 'str | Path', runtime: 'ServeRuntime') -> 'Path'",
    "load_runtime": "(path: 'str | Path', *, workers: 'int | None' = None) -> 'ServeRuntime'",
    "run_loadgen": "(config: 'LoadgenConfig | None' = None) -> 'LoadgenReport'",
    "save_probe_stats": "(path: 'str | Path', stats: 'ProbeStats') -> 'Path'",
    "load_probe_stats": "(path: 'str | Path') -> 'ProbeStats'",
    "MetricRegistry": "() -> 'None'",
    "MetricsSnapshotSink": (
        "(path: 'str | Path', registry: 'MetricRegistry', *, "
        "interval_s: 'float' = 1.0, meta: 'dict[str, Any] | None' = None) -> 'None'"
    ),
    "metrics_collecting": "(registry: 'MetricRegistry') -> 'Iterator[MetricRegistry]'",
}


class TestSurfaceSnapshot:
    def test_all_matches_golden(self):
        assert list(api.__all__) == GOLDEN_ALL

    def test_every_name_resolves(self):
        for name in api.__all__:
            assert getattr(api, name) is not None

    def test_signatures_match_golden(self):
        for name, golden in GOLDEN_SIGNATURES.items():
            actual = str(inspect.signature(getattr(api, name)))
            assert actual == golden, f"signature drift on api.{name}:\n{actual}"

    def test_top_level_package_exposes_api(self):
        import repro

        assert "api" in repro.__all__
        assert repro.api is api


def _instance(n=32, m=32, D=0, seed=3):
    return api.make_instance("planted", n=n, m=m, alpha=0.5, D=D, rng=seed)


class TestMetaVocabulary:
    def test_meta_keys_documented(self):
        for key, doc in META_KEYS.items():
            assert isinstance(doc, str) and doc, f"META_KEYS[{key!r}] lacks a description"

    def test_validate_meta_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown RunResult.meta keys"):
            validate_meta({"alpha": 0.5, "made_up_key": 1})

    def test_real_runs_stay_within_vocabulary(self):
        inst = _instance(D=2)
        runs = [
            api.find_preferences(api.ProbeOracle(inst), 0.5, 2, rng=7),
            api.find_preferences_unknown_d(api.ProbeOracle(inst), 0.5, rng=7, d_max=4),
            api.anytime_find_preferences(
                api.ProbeOracle(inst, budget=64), rng=7, d_max=2, max_phases=1
            ),
        ]
        for run in runs:
            assert validate_meta(run.meta) is run.meta

    def test_baselines_stay_within_vocabulary(self):
        inst = _instance(D=2)
        runs = [
            majority_baseline(api.ProbeOracle(inst), 8, rng=7),
            solo_baseline(api.ProbeOracle(inst), budget=8, rng=7),
            svd_baseline(api.ProbeOracle(inst), 8, rng=7),
            knn_baseline(api.ProbeOracle(inst), anchor=1, spread=4, rng=7),
        ]
        for run in runs:
            assert validate_meta(run.meta) is run.meta


class TestRngContract:
    """Every seed-ish parameter accepts int | Generator | None uniformly."""

    def test_find_preferences_accepts_generator(self):
        inst = _instance()
        a = api.find_preferences(api.ProbeOracle(inst), 0.5, 0, rng=11)
        b = api.find_preferences(
            api.ProbeOracle(inst), 0.5, 0, rng=np.random.default_rng(11)
        )
        assert np.array_equal(a.outputs, b.outputs)

    def test_derive_seeds_accepts_generator_and_none(self):
        assert api.derive_seeds(9, 4) == api.derive_seeds(np.random.default_rng(9), 4)
        assert len(api.derive_seeds(None, 4)) == 4

    def test_experiment_run_accepts_generator(self):
        from repro.experiments import exp_select

        a = exp_select.run(quick=True, rng=5)
        b = exp_select.run(quick=True, rng=np.random.default_rng(5))
        assert a.passed == b.passed
        assert a.table.rows == b.table.rows

    def test_build_report_accepts_generator(self):
        from repro.reporting import build_report

        report = build_report(["E1"], quick=True, seed=np.random.default_rng(2))
        assert isinstance(report.seed, int)  # resolved for the report header

    def test_as_seed_roundtrip(self):
        assert as_seed(123) == 123
        assert as_seed(np.int64(7)) == 7
        drawn = as_seed(np.random.default_rng(1))
        assert drawn == as_seed(np.random.default_rng(1))
        assert isinstance(drawn, int)


#: The retired storage and probe-driver switches: off the surface, but
#: resolvable through ``repro.api.__getattr__`` for one release.
RETIRED_TOGGLES = ["dense_substrate", "packed_substrate", "sequential_probes", "batched_probes"]
RETIRED_PREDICATES = ["packed_substrate_enabled", "batching_enabled"]
#: The single-service archive functions: forwarding shims onto v4, with
#: the signatures they had on the surface.
RETIRED_ARCHIVES = {
    "save_service": "(path: 'str | Path', service: 'ServeService') -> 'Path'",
    "load_service": "(path: 'str | Path') -> 'ServeService'",
}

_SERVE_QUICK = dict(sessions=32, D=2, seed=5, max_phases=1, d_max=1, window=8, probes_per_request=8)


@pytest.fixture(scope="module")
def served_bits():
    report = api.run_loadgen(api.LoadgenConfig(**_SERVE_QUICK))
    return report.outputs_sha, report.probes_total


class TestDeprecationShims:
    @pytest.mark.parametrize("name", RETIRED_TOGGLES)
    def test_retired_toggle_warns_and_leaves_served_bits(self, name, served_bits):
        with pytest.deprecated_call(match=f"repro.api.{name} is deprecated"):
            toggle = getattr(api, name)
        with toggle():
            report = api.run_loadgen(api.LoadgenConfig(**_SERVE_QUICK))
        assert (report.outputs_sha, report.probes_total) == served_bits

    @pytest.mark.parametrize("name", RETIRED_PREDICATES)
    def test_retired_predicate_warns_and_reports_enabled(self, name):
        with pytest.deprecated_call(match=f"repro.api.{name} is deprecated"):
            predicate = getattr(api, name)
        assert predicate() is True

    @pytest.mark.parametrize("name", sorted(RETIRED_ARCHIVES))
    def test_retired_archive_shim_warns_and_keeps_signature(self, name):
        with pytest.deprecated_call(match=f"repro.api.{name} is deprecated"):
            shim = getattr(api, name)
        assert str(inspect.signature(shim)) == RETIRED_ARCHIVES[name]

    def test_retired_archive_shims_forward_to_v4(self, tmp_path):
        """``save_service`` writes a v4 directory ``load_runtime`` reads,
        and ``load_service`` resumes it to the uninterrupted bits."""
        inst = _instance()
        config = api.ServeConfig(seed=5, max_phases=1, d_max=1, window=8, probes_per_request=8)
        with api.serve(inst, config) as runtime:
            ref_outputs, ref_counts = runtime.run_to_completion(), runtime.probe_counts()
        with api.serve(inst, config) as runtime:
            for player in runtime.open_players():
                runtime.submit(player)
            runtime.flush()
            with pytest.deprecated_call():
                written = api.save_service(tmp_path / "svc", runtime.service)
        assert (written / "manifest.json").is_file()
        with api.load_runtime(written) as restored:
            assert restored.workers == 1
        with pytest.deprecated_call():
            service = api.load_service(written)
        assert isinstance(service, api.ServeService)
        router = api.MicroBatchRouter(service, config=config.router_config())  # repro: noqa[RPL012]
        assert np.array_equal(router.run_to_completion(), ref_outputs)
        assert np.array_equal(service.oracle.stats().per_player, ref_counts)

    def test_retired_names_left_the_surface(self):
        for name in RETIRED_TOGGLES + RETIRED_PREDICATES + sorted(RETIRED_ARCHIVES):
            assert name not in api.__all__
            assert name not in GOLDEN_SIGNATURES

    def test_unknown_attribute_still_raises(self):
        import importlib

        with pytest.raises(AttributeError):
            api.does_not_exist
        # The two moved-name shims of earlier releases are gone: the old
        # locations no longer resolve.
        select_mod = importlib.import_module("repro.core.select")
        with pytest.raises(AttributeError):
            select_mod.select_batched
        service_mod = importlib.import_module("repro.serve.service")
        with pytest.raises(AttributeError):
            service_mod.ServeConfig

    def test_stable_surface_emits_no_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            inst = _instance()
            api.find_preferences(api.ProbeOracle(inst), 0.5, 0, rng=1)
            for name in api.__all__:
                getattr(api, name)
            api.derive_seeds(1, 2)
