"""Flat numeric tape form of a compiled section program.

A :class:`~repro.sim.compiled.CompiledPlan` (or a
:class:`~repro.sim.sweepc.StackedProgram`) stores each section as a
tuple of per-entry tuples — convenient to build, but the batch kernels
then pay CPython tuple unpacking and a nested ``for p in preds`` Python
reduction on every entry of every path group.  This module lowers a
program once into a **tape**: parallel ``int32``/``float64`` arrays per
section —

* ``kind``  — 1 for AND nodes, 0 for computation tasks;
* ``gid``   — the entry's slot in the global finishes buffer;
* ``col``   — its column in the realization matrix (``-1`` for AND);
* ``c``/``fb`` — WCET and finish bound (the scalar lanes);
* ``pred_off``/``pred_idx`` — intra-section predecessors in CSR form,
  so the readiness max-reduction becomes one gather + ``max`` over the
  CSR row instead of a Python loop;

plus, for stacked programs whose constants vary per sweep point,
``c_pt``/``fb_pt`` matrices of shape ``(n_entries, n_points)`` with
scalar rows broadcast — one fancy-index per executed section then
gathers *every* entry's per-run constants at once.  Broadcasting a
scalar to a vector changes no float: the kernels perform the same
elementwise operations on the same values, so tape execution stays
bit-identical to the entry-tuple loop.

Entry *names* survive only in ``names`` for error paths (WCET
violations, guarantee violations); the hot loop never touches a string.

The tape is built lazily and cached on the program instance
(``prog._tape``), so it compiles once per program per process and
travels with the program through the pool initializer.  ``steps`` is a
derived iteration structure for the pure-NumPy interpreter: per entry,
its predecessors as *entry indices within the section* (``None`` /
single ``int`` / index array — the interpreter's finish buffer is sized
per section) and its computation ordinal; the canonical arrays above
are what the JIT tier consumes.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

_tape_hits = 0
_tape_misses = 0


def tape_cache_stats() -> Dict[str, int]:
    """Hit/miss counters of this process's tape builds (hits = a program
    whose tape was already built, misses = fresh lowerings)."""
    return {"hits": _tape_hits, "misses": _tape_misses}


def clear_tape_cache() -> None:
    """Reset the tape hit/miss counters (tapes themselves live on their
    program instances and are dropped with them)."""
    global _tape_hits, _tape_misses
    _tape_hits = 0
    _tape_misses = 0


class SectionTape:
    """One section of a program, lowered to flat arrays."""

    __slots__ = ("n_entries", "kind", "gid", "col", "c", "fb",
                 "pred_off", "pred_idx", "names", "steps",
                 "c_pt", "fb_pt", "c_list", "fb_list",
                 "comp_sel", "comp_cols", "c_guard")

    def __init__(self, sec, n_points: int):
        entries = sec.entries
        n = len(entries)
        self.n_entries = n
        kind = np.empty(n, dtype=np.int32)
        gid = np.empty(n, dtype=np.int32)
        col = np.empty(n, dtype=np.int32)
        c_lane = np.empty(n, dtype=np.float64)
        fb_lane = np.empty(n, dtype=np.float64)
        pred_off = np.zeros(n + 1, dtype=np.int32)
        # intra-section predecessors come earlier in dispatch order, so
        # every pred slot is already in here when its successor reads it
        entry_of = {}
        pred_flat = []
        steps = []
        names = []
        c_cols = []
        fb_cols = []
        stacked = False
        n_comp = 0
        for e, (is_and, g, cl, c, fb, name, preds) in enumerate(entries):
            kind[e] = 1 if is_and else 0
            gid[e] = g
            col[e] = cl
            names.append(name)
            entry_of[g] = e
            pred_flat.extend(preds)
            pred_off[e + 1] = len(pred_flat)
            if not preds:
                pred = None
            elif len(preds) == 1:
                pred = entry_of[preds[0]]
            else:
                pred = np.asarray([entry_of[p] for p in preds],
                                  dtype=np.intp)
            # crel: this entry's ordinal among the section's computation
            # entries — its column in the interpreter's per-section
            # precomputed matrices (-1 for AND nodes, never used)
            crel = -1
            if not is_and:
                crel = n_comp
                n_comp += 1
            steps.append((bool(is_and), pred, crel))
            c_cols.append(c)
            fb_cols.append(fb)
            c_vec = isinstance(c, np.ndarray)
            fb_vec = isinstance(fb, np.ndarray)
            stacked = stacked or c_vec or fb_vec
            # the scalar lane is only meaningful when c_pt/fb_pt is None
            c_lane[e] = np.nan if c_vec else float(c)
            fb_lane[e] = np.nan if fb_vec else float(fb)
        self.kind = kind
        self.gid = gid
        self.col = col
        self.c = c_lane
        self.fb = fb_lane
        self.pred_off = pred_off
        self.pred_idx = np.asarray(pred_flat, dtype=np.int32)
        self.names = tuple(names)
        self.steps = tuple(steps)
        self.c_list = tuple(c_cols)
        self.fb_list = tuple(fb_cols)
        #: computation entries only: their entry indices, realization
        #: columns, and WCET guard row (``c * (1 + 1e-9)``, the exact
        #: product the per-entry check computes) — lets the interpreter
        #: run one whole-section WCET check instead of one per entry
        self.comp_sel = np.nonzero(kind == 0)[0].astype(np.intp)
        self.comp_cols = col[self.comp_sel].astype(np.intp)
        self.c_guard = c_lane[self.comp_sel] * (1 + 1e-9)
        self.c_pt: Optional[np.ndarray] = None
        self.fb_pt: Optional[np.ndarray] = None
        if stacked and n_points:
            c_pt = np.empty((n, n_points))
            fb_pt = np.empty((n, n_points))
            for e in range(n):
                c_pt[e, :] = c_cols[e]   # broadcasts point-agreed scalars
                fb_pt[e, :] = fb_cols[e]
            self.c_pt = c_pt
            self.fb_pt = fb_pt


class ProgramTape:
    """The tape of every section of one program, plus per-path caches."""

    __slots__ = ("sections", "n_points", "path_cache", "col_guard")

    def __init__(self, sections: Dict[int, SectionTape], n_points: int):
        self.sections = sections
        self.n_points = n_points
        #: flattened (concatenated-section) views per executed path,
        #: built on demand by the JIT driver
        self.path_cache: Dict[Tuple[int, ...], tuple] = {}
        #: per realization column, the smallest WCET guard
        #: ``c * (1 + 1e-9)`` any point applies to it (``inf`` for a
        #: column no section reads): an actual at or below it passes
        #: every point's check, so one column-max comparison clears a
        #: whole batch before the exact per-path WCET check is needed
        n_cols = 1 + max((int(st.comp_cols.max())
                          for st in sections.values()
                          if st.comp_cols.size), default=-1)
        guard = np.full(n_cols, np.inf)
        for st in sections.values():
            if st.c_pt is not None:
                guard[st.comp_cols] = (st.c_pt[st.comp_sel]
                                       * (1 + 1e-9)).min(axis=1)
            else:
                guard[st.comp_cols] = st.c_guard
        self.col_guard = guard


def build_tape(prog) -> ProgramTape:
    """The program's tape, lowered once and cached on the instance."""
    global _tape_hits, _tape_misses
    tape = getattr(prog, "_tape", None)
    if tape is not None:
        _tape_hits += 1
        return tape
    _tape_misses += 1
    n_points = int(getattr(prog, "n_points", 0) or 0)
    tape = ProgramTape({sid: SectionTape(sec, n_points)
                        for sid, sec in prog.sections.items()}, n_points)
    prog._tape = tape
    return tape
