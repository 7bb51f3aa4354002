"""Spans around the library's module-level public functions, installed from
outside the library for a traced pass and removed afterwards.

A span records its name, start, end, parent span and the id of the command it
belongs to.  Spans stay in memory until the run ends.  A span's self time is
its duration minus the time covered by its child spans; summed per layer, the
self times give the per-layer metrics.  Time inside a command that falls in no
layer span (argument parsing, click dispatch) is reported as unattributed.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
from collections import Counter
from time import perf_counter

# span name -> per-layer self-time metric.  Spans not listed here still nest
# correctly; their self time goes to the metric of the listed span.
SELF_TIME = {
    "files.read_s": ["files.read_configuration", "files.load_point_input",
                     "files.read_euclidean", "files.read_lattice", "files.read_graph"],
    "files.write_s": ["files.write_json", "files.write_configuration",
                      "files.write_coordinates"],
    "exact.validate_s": ["exact.GramMatrix.__post_init__",
                         "exact.Configuration.__post_init__", "exact.Configuration.from_gram"],
    "exact.ldl_s": ["exact.ldl_decompose"],
    "exact.rank_s": ["exact.gram_rank"],
    "constructors.build_s": ["constructors.srg_spectral_embedding",
                             "constructors.simplex_midpoints", "constructors.c7_prime",
                             "constructors.antipodal_union", "constructors.standard_polytope",
                             "constructors.figure1_adjacency"],
    "balance.spherical_s": ["balance.check_balanced"],
    "balance.euclidean_s": ["balance.check_balanced_euclidean"],
    "designs.theorem1_s": ["designs.theorem1_check"],
    "designs.strength_s": ["designs.design_strength"],
    "symmetry.graph_s": ["symmetry.colored_graph_from_config"],
    "symmetry.search_s": ["symmetry.automorphism_group"],
    "symmetry.order_s": ["symmetry.PermutationGroup.order"],
    "symmetry.orbits_s": ["symmetry.PermutationGroup.orbits"],
    "symmetry.stabilizer_s": ["symmetry.PermutationGroup.point_stabilizer"],
    "symmetry.fixed_dim_s": ["symmetry.fixed_subspace_dim"],
    "symmetry.group_balanced_s": ["symmetry.check_group_balanced"],
    "lattice.minimal_norm_s": ["lattice.minimal_norm"],
    "lattice.short_vectors_s": ["lattice.short_vectors"],
    "lattice.enum_s": ["lattice.enumerate_quadratic"],
    "lattice.gram_build_s": ["lattice.kissing_configuration"],
    "numerics.coords_s": ["numerics.coordinates_from_gram"],
    "numerics.float_balance_s": ["numerics.check_balanced_float", "numerics.spectrum_float"],
    "numerics.float_design_s": ["numerics.design_strength_float",
                                "numerics.theorem1_check_float"],
    "numerics.energy_s": ["numerics.energy"],
    "numerics.force_s": ["numerics.tangential_force"],
    "report.self_s": ["report.build_report", "report.build_report_float"],
}

CLI_SPAN = "cli.command"
COMMAND_SPAN = "command"
READERS = set(SELF_TIME["files.read_s"])

LAYER_OF = {name: metric for metric, names in SELF_TIME.items() for name in names}
LAYER_OF[CLI_SPAN] = "cli.self_s"


class Recorder:
    """In-memory span list plus exact counters, for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, command]
        self.stack: list[int] = []
        self.command = -1
        self.counts: Counter = Counter()

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.command])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        # a generator closed by garbage collection may leave deeper spans open
        while self.stack and self.stack.pop() != idx:
            pass

    def self_times(self, scales) -> Counter:
        """Self time per span name: duration minus the children's durations,
        each scaled like the normalized time of the command it belongs to."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for idx, (name, start, end, _, command) in enumerate(self.spans):
            out[name] += ((end - start) - child[idx]) * scales[command]
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _wrap(rec: Recorder, name: str, fn, on_return=None):
    if inspect.isgeneratorfunction(fn):

        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = rec.open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    rec.close(idx)
                rec.counts[name + ".yielded"] += 1
                yield item

        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.counts[name + ".calls"] += 1
        if name in READERS and args and isinstance(args[0], str) and os.path.isfile(args[0]):
            rec.counts["files.bytes_in"] += os.path.getsize(args[0])
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if on_return is not None:
            on_return(result)
        return result

    return wrapper


class Tracer:
    """Installs span wrappers on the balanced package and removes them."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self.undo: list[tuple] = []

    def _patch(self, owner, attr, value):
        self.undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                          else getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_function(self, module_name: str, fn_name: str, on_return=None) -> None:
        """Replace the function in every balanced module that binds it."""
        fn = getattr(sys.modules[f"balanced.{module_name}"], fn_name)
        wrapped = _wrap(self.rec, f"{module_name}.{fn_name}", fn, on_return)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "balanced" or mod_name.startswith("balanced."):
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, attr, wrapped)

    def _patch_method(self, module_name: str, cls_name: str, meth: str, on_return=None) -> None:
        cls = getattr(sys.modules[f"balanced.{module_name}"], cls_name)
        raw = cls.__dict__[meth]
        name = f"{module_name}.{cls_name}.{meth}"
        if isinstance(raw, classmethod):
            self._patch(cls, meth, classmethod(_wrap(self.rec, name, raw.__func__, on_return)))
        else:
            self._patch(cls, meth, _wrap(self.rec, name, raw, on_return))

    def install(self) -> None:
        import click

        from balanced import cli

        counts = self.rec.counts

        def count_generators(group):
            counts["symmetry.generators"] += len(group.generators)

        def count_kept(config):
            counts["lattice.kept"] += config.size

        def count_bytes_out(text):
            counts["files.bytes_out"] += len(text.encode())

        hooks = {("symmetry", "automorphism_group"): count_generators,
                 ("lattice", "kissing_configuration"): count_kept,
                 ("files", "write_json"): count_bytes_out}
        for name in LAYER_OF:
            parts = name.split(".")
            if parts[0] == "cli":
                continue
            if len(parts) == 2:
                self._patch_function(parts[0], parts[1], hooks.get(tuple(parts)))
            else:
                self._patch_method(*parts)

        def commands(group):
            for cmd in group.commands.values():
                if isinstance(cmd, click.Group):
                    yield from commands(cmd)
                else:
                    yield cmd

        for cmd in commands(cli.main):
            self._patch(cmd, "callback", _wrap(self.rec, CLI_SPAN, cmd.callback))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self.undo):
            setattr(owner, attr, value)
        self.undo.clear()


def layer_metrics(rec: Recorder, passes: int, scales) -> dict:
    """Per-layer metrics from the spans of `passes` identical traced passes:
    normalized self times per pass, counts per pass (exact, identical across
    passes).  scales[command] normalizes the spans of one command."""
    self_times = rec.self_times(scales)
    out = {metric: 0.0 for metric in list(SELF_TIME) + ["cli.self_s"]}
    for name, secs in self_times.items():
        if name in LAYER_OF:
            out[LAYER_OF[name]] += secs / passes
    c = rec.counts
    configs = c["exact.Configuration.__post_init__.calls"] // passes
    ldl = c["exact.ldl_decompose.calls"] // passes
    rank = c["exact.gram_rank.calls"] // passes
    yielded = c["lattice.enumerate_quadratic.yielded"] // passes
    out.update({
        "files.bytes_in": c["files.bytes_in"] // passes,
        "files.bytes_out": c["files.bytes_out"] // passes,
        "exact.ldl_calls": ldl,
        "exact.rank_calls": rank,
        "exact.configs": configs,
        "exact.eliminations_per_config": (ldl + rank) / configs if configs else 0.0,
        "symmetry.stabilizer_calls": c["symmetry.PermutationGroup.point_stabilizer.calls"] // passes,
        "symmetry.generators": c["symmetry.generators"] // passes,
        "lattice.enum_yielded": yielded,
        "lattice.kept_ratio": c["lattice.kept"] / c["lattice.enumerate_quadratic.yielded"]
        if yielded else 0.0,
        "trace.unattributed_s": self_times[COMMAND_SPAN] / passes,
    })
    return out
