"""Span tracer that wraps the package's public functions from outside.

Each wrapped call records one span: name, start, end, parent span and job
id.  Spans stay in memory; ``write`` dumps them when the run ends.  Per
name the tracer also keeps calls, inclusive time and self time (inclusive
minus the time covered by child spans), plus a few work counters computed
from the call's arguments and result.

A function is patched under every name it is bound to in any loaded
``dualcircle`` module, so ``smith_normal_form`` is caught when called as
``abgroups.smith_normal_form`` as well as ``matrices.smith_normal_form``.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter


def _snf_cells(stats, args, kwargs, result):
    m = args[0]
    cells = m.rows * m.cols
    stats["matrices.smith_normal_form.cells"] += cells
    stats["matrices.smith_normal_form.max_cells"] = max(
        stats["matrices.smith_normal_form.max_cells"], cells)


def _mul_flops(stats, args, kwargs, result):
    a, b = args
    stats["matrices.IntMatrix.mul.flops"] += 2 * a.rows * a.cols * b.cols


def _oracle_nonzero(stats, args, kwargs, result):
    stats["cyclic.NormalizedHochschild.homology.nonzero"] += not result.is_trivial()


def _tensor_basis(stats, args, kwargs, result):
    n, m = args
    stats["cyclic.max_tensor_basis"] = max(
        stats["cyclic.max_tensor_basis"], len(m.generators) ** n)


# counters the hooks above fill in, besides calls, s and self_s per span
HOOK_COUNTERS = ("matrices.smith_normal_form.cells",
                 "matrices.smith_normal_form.max_cells",
                 "matrices.IntMatrix.mul.flops",
                 "cyclic.NormalizedHochschild.homology.nonzero",
                 "cyclic.max_tensor_basis")

# (module, attribute path, counter hook): the public entry points of every
# layer that the per-layer metrics name
TARGETS = [
    ("operads", "compose", None),
    ("operads", "action_map", None),
    ("operads", "compose_action_maps", None),
    ("operads", "eval_action", None),
    ("operads", "is_zero_map", None),
    ("cyclic", "weight_homology_fg", _tensor_basis),
    ("cyclic", "cell_weight_homology_fg", _tensor_basis),
    ("cyclic", "rotation_matrix", None),
    ("cyclic", "NormalizedHochschild.__init__", None),
    ("cyclic", "NormalizedHochschild.homology", _oracle_nonzero),
    ("matrices", "smith_normal_form", _snf_cells),
    ("matrices", "IntMatrix.mul", _mul_flops),
    ("matrices", "IntMatrix.apply", None),
    ("matrices", "solve_integral", None),
    ("matrices", "kernel_basis", None),
    ("matrices", "image_lattice_basis", None),
    ("matrices", "cokernel_invariants", None),
    ("abgroups", "homology_with_orders", None),
    ("abgroups", "les_fiber", None),
    ("primes", "irregular_indices", None),
    ("primes", "is_prime", None),
    ("spectra", "homology_graded", None),
    ("spectra", "fiber_homology", None),
    ("qspaces", "bousfield_pi_q", None),
    ("tc", "table1", None),
    ("tc", "table2", None),
    ("tc", "check_fr_commute", None),
    ("tc", "coassembly_conclusion", None),
    ("tc", "e_homology", None),
    ("checks", "run_operad_check", None),
    ("checks", "run_hh_verify", None),
    ("checks", "run_tc_table1", None),
    ("checks", "run_tc_table2", None),
    ("checks", "run_check_fr", None),
    ("checks", "run_coassembly", None),
    ("checks", "run_negative_controls", None),
    ("report", "Report.render", None),
    ("cli", "main", None),
]


def span_name(module: str, path: str) -> str:
    # a constructor span is named after its class
    return f"{module}.{path.removesuffix('.__init__')}"


class Stats(dict):
    """Counters keyed by metric name; missing counters read as zero."""

    def __missing__(self, key):
        return 0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, job]
        self.job = None
        self.stats = Stats()
        self._open: list[list] = []  # [span index, time covered by children]
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, hook=None):
        spans, open_, tracer = self.spans, self._open, self

        def traced(*args, **kwargs):
            parent = open_[-1][0] if open_ else -1
            frame = [len(spans), 0.0]
            spans.append([name, 0.0, 0.0, parent, tracer.job])
            open_.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                open_.pop()
                span = spans[frame[0]]
                span[1], span[2] = start, end
                duration = end - start
                if open_:
                    open_[-1][1] += duration
                st = tracer.stats
                st[name + ".calls"] += 1
                st[name + ".s"] += duration
                st[name + ".self_s"] += duration - frame[1]
            if hook is not None:
                hook(st, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Patch every target under every name that binds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "dualcircle" or n.startswith("dualcircle.")]
        for module_name, path, hook in TARGETS:
            owner = importlib.import_module(f"dualcircle.{module_name}")
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self.wrap(span_name(module_name, path), original, hook)
            holders = [owner] if cls_path else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._undo.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()

    def reset(self) -> Stats:
        """Start a new round of counters; return the finished round's."""
        done, self.stats = self.stats, Stats()
        return done

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps([name, round(start, 7), round(end, 7),
                                     parent, job]) + "\n")
