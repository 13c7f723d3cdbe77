"""The tape kernels: tape lowering, error selection and messages, and
the kernel meta snapshot.

The golden suites pin the kernels bit-identical to the dict engine
through the public evaluation APIs; these tests pin what those suites
cannot see — that the tape lowered onto a program is cached and
structurally sound, and which run, entry and scheme a doctored batch's
error names.
"""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.experiments import RunConfig
from repro.offline import build_plan
from repro.sim import kernels
from repro.sim.compiled import compile_plan
from repro.workloads import application_with_load, atr_graph
from tests.conftest import build_nested_or_graph


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
            assert st.n_entries == len(st.steps) == len(st.names) == n
            gids = [entry[1] for entry in sec.entries]
            comp = [k for k, entry in enumerate(sec.entries)
                    if not entry[0]]
            assert list(st.comp_sel) == comp
            assert list(st.comp_cols) == [sec.entries[k][2] for k in comp]
            for k, (entry, (is_and, pred, crel)) in enumerate(
                    zip(sec.entries, st.steps)):
                assert is_and == entry[0]
                assert crel == (comp.index(k) if not is_and else -1)
                # the step's entry indices name exactly the entry's
                # predecessor slots, each an earlier entry
                preds = ([] if pred is None
                         else [pred] if isinstance(pred, int)
                         else list(pred))
                assert [gids[p] for p in preds] == list(entry[6])
                assert all(p < k for p in preds)


class TestWcetPrecheck:
    """The tape kernels check every WCET once per call, ahead of the
    walks; pin the error they raise: the first entry in entry order with
    a violating run, the first violating run of the group, and the
    scalar kernel's message."""

    @staticmethod
    def _doctored_batch():
        """A batch with two computation entries of one executed section
        doctored past their WCET — the later entry on every run of a
        path group, the earlier one on every run but the group's first —
        plus the message the kernels must raise for it: the earlier
        entry at the group's *second* run."""
        from repro.sim import sample_realization_batch
        app = application_with_load(atr_graph(), 0.6, 2)
        plan = build_plan(app, 2)
        prog = compile_plan(plan)
        rng = np.random.default_rng(3)
        batch = sample_realization_batch(plan.structure, rng, 64)
        matrix = prog.realization_matrix(batch)
        groups, path_keys = prog.executed_paths(batch.choices, len(batch))
        # entries are (is_and, gid, col, wcet, finish_bound, name, preds)
        idx, first, later = next(
            (idx, comp[0], comp[1])
            for path, idx in groups if idx.size >= 2
            for comp in ([e for e in prog.sections[sid].entries
                          if not e[0]] for sid in path)
            if len(comp) >= 2)
        # distinct values per run, so the message pins the run too
        matrix[idx[1:], first[2]] = 1e9 + np.arange(1, idx.size)
        matrix[idx, later[2]] = 2e9 + np.arange(idx.size)
        want = (f"actual time {matrix[idx[1], first[2]]} of "
                f"{first[5]!r} exceeds WCET {first[3]}")
        return plan, prog, matrix, groups, path_keys, want

    def test_fixed_kernel_names_earlier_entry_second_run(self):
        from repro.power import PAPER_OVERHEAD, transmeta_model
        from repro.sim.compiled import run_fixed_batch
        _plan, prog, matrix, groups, path_keys, want = \
            self._doctored_batch()
        power = transmeta_model()
        with pytest.raises(SimulationError) as ei:
            run_fixed_batch(prog, power, PAPER_OVERHEAD, matrix, groups,
                            path_keys, [("NPM", power.s_max)])
        assert str(ei.value) == want

    def test_dynamic_kernel_names_earlier_entry_second_run(self):
        from repro.core import get_policy
        from repro.power import PAPER_OVERHEAD, transmeta_model
        from repro.sim import supports_dynamic_batch
        from repro.sim.compiled import run_dynamic_batch
        plan, prog, matrix, groups, path_keys, want = \
            self._doctored_batch()
        power = transmeta_model()
        run = get_policy("GSS").start_run(plan, power, PAPER_OVERHEAD)
        assert supports_dynamic_batch(run, power)
        with pytest.raises(SimulationError) as ei:
            run_dynamic_batch(prog, power, PAPER_OVERHEAD, matrix, groups,
                              path_keys, [("GSS", run)])
        assert str(ei.value) == want


class TestStackedErrorParity:
    """A walk over several schemes raises what a per-scheme loop
    raises: the first failing scheme's error, in caller order,
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
            run_fixed_batch(*args, specs)
        assert ei.value.scheme == "SLOW"
        assert str(ei.value).startswith("scheme 'SLOW' finished at ")

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

    def test_wcet_violation_is_checked_once(self, monkeypatch):
        from repro.power import PAPER_OVERHEAD
        from repro.sim.kernels import interp
        _plan, prog, matrix, groups, keys, want = \
            TestWcetPrecheck._doctored_batch()
        power = self._inputs()[1]
        args = (prog, power, PAPER_OVERHEAD, matrix, groups, keys)
        specs = [("NPM", power.s_max), ("A", 0.8), ("B", 0.6)]
        calls = []
        precheck = interp._precheck_wcet
        monkeypatch.setattr(interp, "_precheck_wcet",
                            lambda *a: calls.append(1) or precheck(*a))
        monkeypatch.setattr(interp, "_WALK_ROWS", 1)
        with pytest.raises(SimulationError) as ei:
            interp.run_fixed_tape(*args, specs)
        assert str(ei.value) == want
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


class TestKernelMeta:
    def test_meta_snapshot_shape(self):
        meta = kernels.kernel_meta()
        assert set(meta) == {"program_cache", "tape_cache", "stacked_cache"}
        assert set(meta["program_cache"]) == {"hits", "misses", "size"}
        assert set(meta["stacked_cache"]) == {"hits", "misses", "size"}
        # tapes live on their program instances — no store, no size
        assert set(meta["tape_cache"]) == {"hits", "misses"}

    def test_sweep_meta_records_the_kernel(self):
        from repro.experiments.sweeps import sweep_load
        cfg = RunConfig(schemes=("SPM",), n_runs=5, seed=2)
        series = sweep_load(atr_graph(), cfg, loads=(0.4, 0.6))
        kernel = series.meta["kernel"]
        assert set(kernel) == {"program_cache", "tape_cache",
                               "stacked_cache"}
