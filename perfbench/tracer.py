"""Spans around the public entry points of each nuctrace layer.

The tracer patches the library from outside: each traced function is
replaced, in every ``nuctrace`` module namespace that holds it, by a
wrapper that records one span (name, start, end, parent span, op id,
whether it raised).  ``uninstall`` puts the originals back, so untraced
passes run the unmodified library.  Spans stay in memory in columnar
arrays and are written once, at exit, by :meth:`Tracer.save`.

The recorder assumes one thread: the parent of a span is the innermost
open span.  Case-level threading (``GLT_THREADS`` > 1) would interleave
spans, so the benchmark refuses to trace with it.
"""

from __future__ import annotations

import functools
import json
import sys
import types
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

MODULES = ("exponents", "seqspace", "nuclear", "factorization", "spectra", "harness", "cli")


def _arg(args, kw, index, name):
    return args[index] if len(args) > index else kw[name]


# Computed counts: derived from argument shapes and sizes, never from timing,
# so they repeat exactly for a fixed input.


def _count_compose(counters, args, kw, result):
    ops = _arg(args, kw, 0, "ops")
    cols = ops[0].matrix.shape[1]
    flops = sum(2 * op.matrix.shape[0] * op.matrix.shape[1] * cols for op in ops[1:])
    counters["seqspace.compose.gflop"] += flops / 1e9


def _count_dense(counters, args, kw, result):
    counters["seqspace.DenseOperator.mb"] += args[0].matrix.nbytes / 1e6


def _count_terms(counters, args, kw, result):
    counters["nuclear.NuclearRep.terms_in"] += len(_arg(args, kw, 2, "terms"))


def _count_eigen(counters, args, kw, result):
    n = _arg(args, kw, 0, "op").matrix.shape[0]
    counters["spectra.eigen_spectrum.gflop"] += 10 * n**3 / 1e9


def _count_read(counters, args, kw, result):
    counters["cli.bytes_read"] += len(_arg(args, kw, 0, "s"))


def _count_written(counters, args, kw, result):
    counters["cli.bytes_written"] += len(result)


def _targets(nt):
    """(span name, owner, attribute, count hook) for every traced entry point."""
    ex, sq, nu, fa, sp, ha = (
        nt.exponents, nt.seqspace, nt.nuclear, nt.factorization, nt.spectra, nt.harness
    )
    return [
        ("exponents.Exponent_float", ex.Exponent, "__float__", None),
        ("exponents.s_from_p", ex, "s_from_p", None),
        ("exponents.check_holder_chain", ex, "check_holder_chain", None),
        ("seqspace.lp_norm", sq, "lp_norm", None),
        ("seqspace.compose", sq, "compose", _count_compose),
        ("seqspace.DenseOperator", sq.DenseOperator, "__post_init__", _count_dense),
        ("seqspace.operator_to_json", sq, "operator_to_json", None),
        ("nuclear.NuclearRep", nu.NuclearRep, "__init__", _count_terms),
        ("nuclear.rewrite_equivalent", nu, "rewrite_equivalent", None),
        ("nuclear.nuclear_trace", nu, "nuclear_trace", None),
        ("nuclear.assemble", nu, "assemble", None),
        ("nuclear.adjoint_rep", nu, "adjoint_rep", None),
        ("nuclear.rep_from_json", nu, "rep_from_json", None),
        ("factorization.build_pipeline", fa, "build_pipeline", None),
        ("factorization.summing_certificates", fa, "summing_certificates", None),
        ("factorization.pipeline_to_json", fa, "pipeline_to_json", None),
        ("spectra.eigen_spectrum", sp, "eigen_spectrum", _count_eigen),
        ("spectra.spectral_report", sp, "spectral_report", None),
        ("spectra.summability_ladder", sp, "summability_ladder", None),
        ("harness.generate_family", ha, "generate_family", None),
        ("harness.config_from_json", ha, "config_from_json", None),
        ("harness.run_trace_suite", ha, "run_trace_suite", None),
        ("harness.run_factorization_suite", ha, "run_factorization_suite", None),
        ("harness.run_ladder_suite", ha, "run_ladder_suite", None),
        ("harness.write_suite_report", ha, "write_suite_report", None),
        ("cli.cli_main", nt.cli, "cli_main", None),
        # the json calls the CLI makes; harness and benchmark json stay untraced
        ("cli.json_decode", json, "loads", _count_read),
        ("cli.json_encode", json, "dumps", _count_written),
    ]


class Tracer:
    def __init__(self, nt):
        self._nt = nt
        self.names = [target[0] for target in _targets(nt)]
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.err = array("b")
        self.start = array("d")
        self.end = array("d")
        self.op_pass: list[int] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self._stack = [-1]
        self._op_id = -1
        self._pass = -1
        self._patches: list[tuple] = []

    # --- recording ------------------------------------------------------------

    def begin_pass(self, pass_index: int) -> int:
        """Reset the computed counts; returns the index of the pass's first span."""
        self._pass = pass_index
        self.counters = defaultdict(float)
        return len(self.start)

    def begin_op(self) -> None:
        self.op_pass.append(self._pass)
        self._op_id = len(self.op_pass) - 1

    @property
    def span_count(self) -> int:
        return len(self.start)

    def _wrap(self, name_id: int, fn, hook):
        name, parent, op, err = self.name, self.parent, self.op, self.err
        start, end, stack = self.start, self.end, self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kw):
            i = len(start)
            name.append(name_id)
            parent.append(stack[-1])
            op.append(tracer._op_id)
            err.append(0)
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            t0 = perf_counter()
            try:
                result = fn(*args, **kw)
            except BaseException:
                err[i] = 1
                raise
            finally:
                end[i] = perf_counter()
                start[i] = t0
                stack.pop()
            if hook is not None:
                hook(tracer.counters, args, kw, result)
            return result

        return traced

    # --- patching -------------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        cli_json = types.SimpleNamespace(**vars(json))
        namespaces = [m for k, m in sys.modules.items() if k.split(".")[0] == "nuctrace"]
        for name_id, (span, owner, attr, hook) in enumerate(_targets(self._nt)):
            if owner is json:
                setattr(cli_json, attr, self._wrap(name_id, getattr(json, attr), hook))
                continue
            original = getattr(owner, attr)
            traced = self._wrap(name_id, original, hook)
            if isinstance(owner, type):
                self._patch(owner, attr, original, traced)
                continue
            for module in namespaces:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, traced)
                    elif isinstance(value, dict):  # e.g. the CLI's suite table
                        for k, v in list(value.items()):
                            if v is original:
                                self._patch(value, k, original, traced)
        self._patch(self._nt.cli, "json", json, cli_json)

    def _patch(self, owner, key, original, replacement) -> None:
        if isinstance(owner, dict):
            owner[key] = replacement
        else:
            setattr(owner, key, replacement)
        self._patches.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    # --- analysis -------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "err": np.frombuffer(self.err, dtype=np.int8),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path) -> None:
        """Write every span, plus the name table and op-to-pass map, as ``.npz``."""
        np.savez(
            path,
            names=np.array(self.names),
            op_pass=np.array(self.op_pass, dtype=np.int32),
            **self.arrays(),
        )


def layer_stats(tracer: Tracer, first: int, stop: int) -> dict[str, float]:
    """Per-name calls / busy / self / error counts and per-module self time
    for the spans with indices in ``[first, stop)`` (one traced pass).

    A span's self time is its duration minus the durations of its direct
    children; spans nest strictly on one thread, so children never overlap.
    """
    a = {k: v[first:stop] for k, v in tracer.arrays().items()}
    n_names = len(tracer.names)
    dur = a["end"] - a["start"]
    inner = a["parent"] >= first
    child = np.zeros(stop - first)
    np.add.at(child, a["parent"][inner] - first, dur[inner])
    self_time = dur - child
    calls = np.bincount(a["name"], minlength=n_names)
    busy = np.bincount(a["name"], weights=dur, minlength=n_names)
    own = np.bincount(a["name"], weights=self_time, minlength=n_names)
    errors = np.bincount(a["name"], weights=a["err"], minlength=n_names)
    stats: dict[str, float] = {}
    for i, span in enumerate(tracer.names):
        stats[f"{span}.calls"] = int(calls[i])
        stats[f"{span}.busy_s"] = float(busy[i])
        stats[f"{span}.own_s"] = float(own[i])
        stats[f"{span}.errors"] = int(errors[i])
    for module in MODULES:
        stats[f"{module}.self_s"] = sum(
            stats[f"{span}.own_s"] for span in tracer.names if span.startswith(module + ".")
        )
    # assemble calls made from inside a spectra span, per eigensolve
    spectra_ids = [i for i, s in enumerate(tracer.names) if s.startswith("spectra.")]
    assemble_id = tracer.names.index("nuclear.assemble")
    parents = a["parent"][a["name"] == assemble_id]
    parents = parents[parents >= first] - first
    stats["spectra.assembles_in_spectra"] = int(np.isin(a["name"][parents], spectra_ids).sum())
    # rewrites that generate_family makes itself build the family (rotations,
    # which always apply); the others are the suites' drawn rewrites and their
    # split fallbacks
    rewrites = a["name"] == tracer.names.index("nuclear.rewrite_equivalent")
    has_parent = a["parent"] >= first
    from_family = np.zeros_like(rewrites)
    from_family[has_parent] = (a["name"][a["parent"][has_parent] - first]
                               == tracer.names.index("harness.generate_family"))
    chain = rewrites & ~from_family
    stats["nuclear.rewrite.chain_calls"] = int(chain.sum())
    stats["nuclear.rewrite.chain_errors"] = int(a["err"][chain].sum())
    return stats
