"""Kernel-tier registry: resolution rules, cache-key exclusion, tape
lowering, and the JIT drivers' python cores (exercised without numba).

The golden suites pin the tiers bit-identical through the public
evaluation APIs; these tests pin the registry mechanics — what a tier
name resolves to, that the tier can never split the evaluation cache,
and that the tape lowered onto a program is cached and structurally
sound.
"""

import warnings

import numpy as np
import pytest

from repro.errors import ConfigError, SimulationError
from repro.experiments import RunConfig, evaluate_application
from repro.experiments.evalcache import evaluation_key
from repro.offline import build_plan
from repro.sim import kernels
from repro.sim.compiled import compile_plan
from repro.workloads import application_with_load, atr_graph
from tests.conftest import build_nested_or_graph


class TestTierResolution:
    def test_default_is_the_numpy_tape_interpreter(self):
        # RunConfig.kernel_tier=None must resolve to the session
        # default, which (absent REPRO_KERNEL_TIER) is the tape tier
        assert kernels.resolve_kernel_tier(None) == \
            kernels.DEFAULT_KERNEL_TIER

    def test_session_default_is_monkeypatchable(self, monkeypatch):
        monkeypatch.setattr(kernels, "DEFAULT_KERNEL_TIER", "legacy")
        assert kernels.resolve_kernel_tier(None) == "legacy"

    def test_concrete_tiers_pass_through_idempotently(self):
        for tier in ("legacy", "numpy"):
            assert kernels.resolve_kernel_tier(tier) == tier
            assert kernels.resolve_kernel_tier(
                kernels.resolve_kernel_tier(tier)) == tier

    def test_auto_without_numba_warns_once_and_falls_back(self,
                                                          monkeypatch):
        monkeypatch.setattr(kernels, "_jit_probe", False)
        monkeypatch.setattr(kernels, "_warned_no_jit", False)
        with pytest.warns(RuntimeWarning, match="numba is not installed"):
            assert kernels.resolve_kernel_tier("auto") == "numpy"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a second warning would raise
            assert kernels.resolve_kernel_tier("jit") == "numpy"

    def test_auto_with_numba_selects_jit(self, monkeypatch):
        monkeypatch.setattr(kernels, "_jit_probe", True)
        assert kernels.resolve_kernel_tier("auto") == "jit"
        assert kernels.resolve_kernel_tier("jit") == "jit"

    def test_unknown_tier_raises(self):
        with pytest.raises(ConfigError):
            kernels.resolve_kernel_tier("vectorized")
        with pytest.raises(ConfigError):
            kernels.get_kernels("vectorized")

    def test_runconfig_validation_in_sync_with_registry(self):
        # RunConfig hardcodes the accepted names to stay import-light;
        # this pins them to the registry so they cannot drift apart
        for tier in ("auto",) + kernels.TIERS:
            assert RunConfig(kernel_tier=tier).kernel_tier == tier
        with pytest.raises(ConfigError):
            RunConfig(kernel_tier="vectorized")

    def test_get_kernels_returns_distinct_callables_per_tier(self):
        fixed_l, dyn_l = kernels.get_kernels("legacy")
        fixed_n, dyn_n = kernels.get_kernels("numpy")
        fixed_j, dyn_j = kernels.get_kernels("jit")
        assert len({fixed_l, fixed_n, fixed_j}) == 3
        assert len({dyn_l, dyn_n, dyn_j}) == 3


class TestCacheKeyExclusion:
    def test_tier_never_splits_the_evaluation_cache(self):
        # the tier is an execution knob: every tier is bit-identical,
        # so cached results must be shared across them
        app = application_with_load(atr_graph(), 0.5, 2)
        base = RunConfig(schemes=("GSS",), n_runs=10, seed=1)
        keys = {evaluation_key(app, base.with_(kernel_tier=t))
                for t in (None, "auto", "legacy", "numpy", "jit")}
        assert len(keys) == 1
        # sanity: result-relevant fields do split the key
        assert evaluation_key(app, base.with_(seed=2)) not in keys


class TestTapeLowering:
    def test_tape_is_cached_on_the_program(self):
        app = application_with_load(build_nested_or_graph(), 0.6, 2)
        prog = compile_plan(build_plan(app, 2))
        prog._tape = None  # force a fresh lowering
        before = kernels.tape_cache_stats()
        tape = kernels.build_tape(prog)
        again = kernels.build_tape(prog)
        assert again is tape
        after = kernels.tape_cache_stats()
        assert after["misses"] == before["misses"] + 1
        assert after["hits"] == before["hits"] + 1

    def test_section_tapes_are_structurally_sound(self):
        app = application_with_load(build_nested_or_graph(), 0.6, 2)
        prog = compile_plan(build_plan(app, 2))
        tape = kernels.build_tape(prog)
        for sid, sec in prog.sections.items():
            st = tape.sections[sid]
            n = len(sec.entries)
            assert st.kind.shape == (n,)
            assert st.pred_off.shape == (n + 1,)
            assert st.pred_off[0] == 0
            assert st.pred_off[-1] == len(st.pred_idx)
            # CSR rows reproduce each entry's predecessor list exactly
            for k, entry in enumerate(sec.entries):
                row = st.pred_idx[st.pred_off[k]:st.pred_off[k + 1]]
                assert list(row) == list(entry[6])


class TestWcetPrecheck:
    """The tape interpreter hoists the per-entry WCET check into one
    per-section precheck; pin its error selection (first entry in entry
    order with any violating run, first violating run in the group) and
    its message to the legacy kernel, which checks entry by entry."""

    def _doctored_batch(self):
        from repro.sim import sample_realization_batch
        app = application_with_load(atr_graph(), 0.6, 2)
        plan = build_plan(app, 2)
        prog = compile_plan(plan)
        rng = np.random.default_rng(3)
        batch = sample_realization_batch(plan.structure, rng, 64)
        matrix = prog.realization_matrix(batch)
        groups, path_keys = prog.executed_paths(batch.choices, len(batch))
        tape = kernels.build_tape(prog)
        # doctor two computation entries of one executed section past
        # their WCET — later entry on every run, earlier entry on every
        # run but the group's first — so the raised error must name the
        # earlier entry and the group's *second* run
        path, idx, st = next(
            (path, idx, tape.sections[sid])
            for path, idx in groups if idx.size >= 2
            for sid in path if tape.sections[sid].comp_cols.size >= 2)
        matrix[idx[1:], st.comp_cols[0]] = 1e9
        matrix[idx, st.comp_cols[1]] = 1e9
        return plan, prog, matrix, groups, path_keys

    def test_fixed_kernel_error_matches_legacy(self):
        from repro.power import PAPER_OVERHEAD, transmeta_model
        from repro.sim.compiled import run_fixed_batch
        _plan, prog, matrix, groups, path_keys = self._doctored_batch()
        power = transmeta_model()
        msgs = {}
        for tier in ("legacy", "numpy"):
            with pytest.raises(SimulationError) as ei:
                run_fixed_batch(prog, power, PAPER_OVERHEAD, matrix,
                                groups, path_keys, [("NPM", power.s_max)],
                                kernel_tier=tier)
            msgs[tier] = str(ei.value)
        assert "exceeds WCET" in msgs["legacy"]
        assert msgs["numpy"] == msgs["legacy"]

    def test_dynamic_kernel_error_matches_legacy(self):
        from repro.core import get_policy
        from repro.power import PAPER_OVERHEAD, transmeta_model
        from repro.sim import supports_dynamic_batch
        from repro.sim.compiled import run_dynamic_batch
        plan, prog, matrix, groups, path_keys = self._doctored_batch()
        power = transmeta_model()
        run = get_policy("GSS").start_run(plan, power, PAPER_OVERHEAD)
        assert supports_dynamic_batch(run, power)
        msgs = {}
        for tier in ("legacy", "numpy"):
            with pytest.raises(SimulationError) as ei:
                run_dynamic_batch(prog, power, PAPER_OVERHEAD, matrix,
                                  groups, path_keys, [("GSS", run)],
                                  kernel_tier=tier)
            msgs[tier] = str(ei.value)
        assert "exceeds WCET" in msgs["legacy"]
        assert msgs["numpy"] == msgs["legacy"]


class TestStackedErrorParity:
    """A ``numpy`` walk over several schemes raises what a per-scheme
    loop raises: the first failing scheme's error, in caller order,
    also when a tiny row cap splits the schemes over several walks."""

    @staticmethod
    def _inputs(m=2):
        from repro.power import PAPER_OVERHEAD, transmeta_model
        from repro.sim import sample_realization_batch
        app = application_with_load(atr_graph(), 0.6, m)
        plan = build_plan(app, m)
        prog = compile_plan(plan)
        batch = sample_realization_batch(plan.structure,
                                         np.random.default_rng(3), 64)
        matrix = prog.realization_matrix(batch)
        groups, keys = prog.executed_paths(batch.choices, len(batch))
        power = transmeta_model()
        return plan, power, (prog, power, PAPER_OVERHEAD, matrix, groups,
                             keys)

    @staticmethod
    def _loop_error(kernel, args, specs):
        """The error of one single-scheme walk per spec, in order."""
        for spec in specs:
            try:
                kernel(*args, [spec])
            except SimulationError as exc:
                return exc
        raise AssertionError("no scheme failed")

    def _assert_parity(self, monkeypatch, kernel, args, specs):
        from repro.sim.kernels import interp
        want = self._loop_error(kernel, args, specs)
        for cap in (1 << 40, 2 * args[3].shape[0], 1):
            monkeypatch.setattr(interp, "_WALK_ROWS", cap)
            with pytest.raises(type(want)) as ei:
                kernel(*args, specs)
            assert str(ei.value) == str(want)
        return want

    def test_deadline_miss_names_the_second_of_three(self, monkeypatch):
        from repro.errors import DeadlineMissError
        from repro.sim.compiled import run_fixed_batch
        from repro.sim.kernels.interp import run_fixed_tape
        _plan, power, args = self._inputs()
        slow = float(power.level_speed_table()[0])
        specs = [("FAST", power.s_max), ("SLOW", slow), ("SLOWER", slow)]
        want = self._assert_parity(monkeypatch, run_fixed_tape, args, specs)
        assert isinstance(want, DeadlineMissError)
        assert want.scheme == "SLOW"
        with pytest.raises(DeadlineMissError) as ei:
            run_fixed_batch(*args, specs, kernel_tier="legacy")
        assert ei.value.scheme == "SLOW"

    def test_guarantee_violation_follows_caller_order(self, monkeypatch):
        """The second scheme violates only after ``t > 0`` and the third
        at the very first task: the walk meets the third's violation
        first, yet the second's is the one raised."""
        from types import SimpleNamespace
        from repro.core import get_policy
        from repro.sim.kernels.interp import run_dynamic_tape
        plan, power, args = self._inputs()
        gss = get_policy("GSS").start_run(plan, power, args[2])
        late = SimpleNamespace(floor_const=None, or_respec=None,
                               floor_step=(0.0, 10.0, 1e-9))
        early = SimpleNamespace(floor_const=10.0, or_respec=None,
                                floor_step=None)
        specs = [("GSS", gss), ("LATE", late), ("EARLY", early)]
        want = self._assert_parity(monkeypatch, run_dynamic_tape, args,
                                   specs)
        assert "guarantee violated" in str(want)
        assert str(want) != str(self._loop_error(
            run_dynamic_tape, args, specs[2:]))

    def test_wcet_violation_is_checked_once_with_legacy_message(
            self, monkeypatch):
        from repro.sim.compiled import run_fixed_batch
        from repro.sim.kernels import interp
        _plan, prog, matrix, groups, keys = \
            TestWcetPrecheck()._doctored_batch()
        power = self._inputs()[1]
        from repro.power import PAPER_OVERHEAD
        args = (prog, power, PAPER_OVERHEAD, matrix, groups, keys)
        specs = [("NPM", power.s_max), ("A", 0.8), ("B", 0.6)]
        with pytest.raises(SimulationError) as legacy:
            run_fixed_batch(*args, specs, kernel_tier="legacy")
        calls = []
        precheck = interp._precheck_wcet
        monkeypatch.setattr(interp, "_precheck_wcet",
                            lambda *a: calls.append(1) or precheck(*a))
        monkeypatch.setattr(interp, "_WALK_ROWS", 1)
        with pytest.raises(SimulationError) as ei:
            interp.run_fixed_tape(*args, specs)
        assert "exceeds WCET" in str(ei.value)
        assert str(ei.value) == str(legacy.value)
        assert calls == [1]

    @pytest.mark.parametrize("which", ["fixed", "dynamic"])
    def test_negative_idle_time_still_raises(self, monkeypatch, which):
        """A processor pick that ignores occupation lets tasks overlap,
        and with the deadline check off a near-zero deadline leaves the
        window at the overlapped makespan: busy time outgrows it, and
        the physical check fires."""
        import copy
        from functools import partial
        from repro.core import get_policy
        from repro.sim.kernels import interp
        plan, power, args = self._inputs()
        first_idle = interp._Procs.first_idle

        def overlapping(procs):
            mn, flat = first_idle(procs)
            return np.full_like(mn, -np.inf), flat
        monkeypatch.setattr(interp._Procs, "first_idle", overlapping)
        prog = copy.copy(args[0])
        prog.deadline = 1e-3
        args = (prog,) + args[1:]
        if which == "fixed":
            kernel = interp.run_fixed_tape
            specs = [("NPM", power.s_max), ("A", 0.8), ("B", 0.6)]
        else:
            kernel = interp.run_dynamic_tape
            specs = [(name, get_policy(name).start_run(plan, power,
                                                       args[2]))
                     for name in ("GSS", "SS2", "AS")]
        want = self._assert_parity(
            monkeypatch, partial(kernel, check_deadline=False), args, specs)
        assert type(want) is SimulationError
        assert str(want).startswith("negative idle time")


class TestJitPythonCores:
    """The jit drivers run their (numba-targeted) cores as plain
    python when numba is absent — pin them bit-identical to the
    legacy kernels through the full evaluation API."""

    @pytest.fixture(autouse=True)
    def force_jit_driver(self, monkeypatch):
        # bypass the numba probe: resolve every request to the jit
        # driver, whose cores run uncompiled without numba
        monkeypatch.setattr(kernels, "resolve_kernel_tier",
                            lambda tier=None: "jit")

    @pytest.mark.parametrize("model", ["transmeta", "xscale"])
    def test_jit_driver_equals_dict_engine(self, model):
        from repro.core import ALL_SCHEMES
        app = application_with_load(build_nested_or_graph(), 0.8, 2)
        cfg = RunConfig(schemes=ALL_SCHEMES, n_runs=25, seed=13,
                        power_model=model)
        r_jit = evaluate_application(app, cfg)
        r_dict = evaluate_application(app, cfg.with_(engine="dict"))
        assert r_jit.path_keys == r_dict.path_keys
        for scheme in ALL_SCHEMES:
            assert np.array_equal(r_jit.absolute[scheme],
                                  r_dict.absolute[scheme]), scheme
            assert np.array_equal(r_jit.speed_changes[scheme],
                                  r_dict.speed_changes[scheme]), scheme

    def test_jit_driver_handles_infeasible_dynamic_plans(self):
        app = application_with_load(atr_graph(), 1.0, 2)
        cfg = RunConfig(schemes=("GSS", "AS"), n_runs=10, seed=11)
        r_jit = evaluate_application(app, cfg)
        r_dict = evaluate_application(app, cfg.with_(engine="dict"))
        for scheme in cfg.schemes:
            assert np.array_equal(r_jit.normalized[scheme],
                                  r_dict.normalized[scheme]), scheme


class TestKernelMeta:
    def test_meta_snapshot_shape(self):
        meta = kernels.kernel_meta("legacy")
        assert meta["tier"] == "legacy"
        assert set(meta["program_cache"]) == {"hits", "misses", "size"}
        assert set(meta["stacked_cache"]) == {"hits", "misses", "size"}
        # tapes live on their program instances — no store, no size
        assert set(meta["tape_cache"]) == {"hits", "misses"}

    def test_sweep_meta_records_the_kernel(self):
        from repro.experiments.sweeps import sweep_load
        cfg = RunConfig(schemes=("SPM",), n_runs=5, seed=2)
        series = sweep_load(atr_graph(), cfg, loads=(0.4, 0.6))
        kernel = series.meta["kernel"]
        assert kernel["tier"] == kernels.resolve_kernel_tier(None)
        assert "tape_cache" in kernel and "stacked_cache" in kernel
