"""Span tracing of the calls into each wanloc module, installed from outside
the program.

`install` rebinds, for the duration of a `with` block, every module-level
name through which wanloc code reaches a traced function (for example
`wanloc.cli.gap_certificate` and `wanloc.xhat.operator_norm`) to a wrapper
that records a span.  Because functions look their globals up at call time,
calls made inside a module are seen as well as calls from the CLI.  Nothing
under `src/` is edited; leaving the block restores the original objects.
"""

import functools
import importlib
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass

LAYERS = ("cli", "lattice", "spectral", "dichotomy", "xhat", "diagnostics",
          "io", "linalg")

# span name -> every "module:attribute" binding that reaches the function.
# The layer of a span is the part of its name before the first dot.
TRACED = {
    "cli.run_pipeline": ["wanloc.cli:run_pipeline"],
    "cli.run_verify": ["wanloc.cli:run_verify"],
    "cli.run_chern": ["wanloc.cli:run_chern"],
    "lattice.build": ["wanloc.cli:build_haldane",
                      "wanloc.cli:build_disordered_insulator",
                      "wanloc.cli:build_ssh_chain", "wanloc.cli:build_atomic"],
    "lattice.make_grid": ["wanloc.cli:make_grid"],
    "lattice.position_operators": ["wanloc.cli:position_operators"],
    "spectral.fermi_projector": ["wanloc.cli:fermi_projector"],
    "spectral.kernel_decay_fit": ["wanloc.cli:kernel_decay_fit"],
    "spectral.matrix_decay_fit": ["wanloc.dichotomy:matrix_decay_fit",
                                  "wanloc.spectral:matrix_decay_fit"],
    "spectral.operator_norm": ["wanloc.spectral:operator_norm",
                               "wanloc.dichotomy:operator_norm",
                               "wanloc.xhat:operator_norm",
                               "wanloc.diagnostics:operator_norm"],
    "spectral.range_basis": ["wanloc.spectral:range_basis",
                             "wanloc.dichotomy:range_basis"],
    "spectral.tilt_operator": ["wanloc.dichotomy:tilt_operator",
                               "wanloc.xhat:tilt_operator"],
    "dichotomy.initial_basis": ["wanloc.cli:initial_basis"],
    "dichotomy.check_bounded_density": ["wanloc.cli:check_bounded_density"],
    "dichotomy.relabel_to_lattice": ["wanloc.cli:relabel_to_lattice"],
    "dichotomy.attach_moments": ["wanloc.cli:attach_moments",
                                 "wanloc.dichotomy:attach_moments"],
    "dichotomy.projected_spectrum": ["wanloc.cli:projected_spectrum",
                                     "wanloc.dichotomy:projected_spectrum",
                                     "wanloc.xhat:projected_spectrum"],
    "dichotomy.detect_uniform_gaps": ["wanloc.cli:detect_uniform_gaps"],
    "dichotomy.band_projectors": ["wanloc.cli:band_projectors"],
    "dichotomy.strip_localization_check":
        ["wanloc.cli:strip_localization_check"],
    "dichotomy.wannierize_band": ["wanloc.cli:wannierize_band"],
    "xhat.build_xtilde": ["wanloc.cli:build_xtilde"],
    "xhat.build_xhat": ["wanloc.cli:build_xhat"],
    "xhat.gap_midpoints": ["wanloc.cli:gap_midpoints"],
    "xhat.gap_certificate": ["wanloc.cli:gap_certificate"],
    "xhat.sqrt_resolvent": ["wanloc.xhat:sqrt_resolvent",
                            "wanloc.diagnostics:sqrt_resolvent"],
    "xhat.tilt_lipschitz": ["wanloc.cli:tilt_lipschitz"],
    "xhat.closeness_norm": ["wanloc.cli:closeness_norm"],
    "diagnostics.fit_exponential": ["wanloc.diagnostics:fit_exponential"],
    "diagnostics.chern_marker": ["wanloc.diagnostics:chern_marker"],
    "diagnostics.chern_number_kspace":
        ["wanloc.diagnostics:chern_number_kspace"],
    "diagnostics.lemma_decay_check": ["wanloc.diagnostics:lemma_decay_check"],
    "diagnostics.lemma_prod_sum_check":
        ["wanloc.diagnostics:lemma_prod_sum_check"],
    "diagnostics.schur_row_sums": ["wanloc.diagnostics:schur_row_sums"],
    "diagnostics.sqrt_bound_survey": ["wanloc.diagnostics:sqrt_bound_survey"],
    "diagnostics.tilted_comm_survey":
        ["wanloc.diagnostics:tilted_comm_survey"],
    "io.write_csv": ["wanloc.io:write_csv"],
    "io.write_matrix": ["wanloc.io:write_matrix"],
    # dense LAPACK kernels: wanloc calls numpy's through the numpy.linalg
    # module attribute and scipy's svdvals through its own imported name
    "linalg.eigh": ["numpy.linalg:eigh"],
    "linalg.eigvalsh": ["numpy.linalg:eigvalsh"],
    "linalg.svdvals": ["wanloc.spectral:svdvals", "wanloc.dichotomy:svdvals"],
}


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    rows: int | None = None     # linalg spans: rows of the factorized matrix
    nbytes: int | None = None   # io spans: size of the file written

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Collects the spans of one workload call in memory."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    def open(self, name):
        span = Span(sid=len(self.spans), name=name, start=time.perf_counter(),
                    end=float("nan"),
                    parent=self._stack[-1] if self._stack else None,
                    run_id=self.run_id)
        self.spans.append(span)
        self._stack.append(span.sid)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()


def _wrapper(tracer, fn, name):
    layer = name.split(".", 1)[0]

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if layer == "linalg":
            span.rows = len(args[0])
        elif layer == "io":
            span.nbytes = os.path.getsize(args[0])
        return result

    return traced


@contextmanager
def install(tracer):
    """Route every binding in TRACED through `tracer` inside the block."""
    saved = []
    try:
        for name, bindings in TRACED.items():
            for binding in bindings:
                mod_name, attr = binding.split(":")
                module = importlib.import_module(mod_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, _wrapper(tracer, original, name))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans):
    """Per span id: its duration minus the part its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.sid: s.duration - covered(children[s.sid], s.start, s.end)
            for s in spans}


def layer_metrics(spans, n_rows):
    """The per-layer metrics of one traced call.

    `*_s` metrics are inclusive times summed over a function's spans,
    `*.self_s` are a layer's self time, and `*_calls` are span counts.
    A linalg factorization is "dense" when its matrix has n_rows rows (the
    model dimension N) and "small" otherwise.
    """
    total, calls = Counter(), Counter()
    for s in spans:
        total[s.name] += s.duration
        calls[s.name] += 1
    own = self_times(spans)
    layer_self = Counter()
    for s in spans:
        layer_self[s.layer] += own[s.sid]
    dense = [s for s in spans if s.layer == "linalg" and s.rows == n_rows]
    small = [s for s in spans if s.layer == "linalg" and s.rows != n_rows]
    io_spans = [s for s in spans if s.layer == "io"]
    metrics = {
        "lattice.build_s": total["lattice.build"],
        "spectral.fermi_projector_s": total["spectral.fermi_projector"],
        "spectral.kernel_decay_fit_s": total["spectral.kernel_decay_fit"],
        "spectral.operator_norm_calls": calls["spectral.operator_norm"],
        "spectral.operator_norm_s": total["spectral.operator_norm"],
        "dichotomy.initial_basis_s": total["dichotomy.initial_basis"],
        "dichotomy.projected_spectrum_calls":
            calls["dichotomy.projected_spectrum"],
        "dichotomy.projected_spectrum_s": total["dichotomy.projected_spectrum"],
        "dichotomy.band_projectors_s": total["dichotomy.band_projectors"],
        "dichotomy.strip_check_s": total["dichotomy.strip_localization_check"],
        "dichotomy.wannierize_s": total["dichotomy.wannierize_band"],
        "xhat.build_xtilde_s": total["xhat.build_xtilde"],
        "xhat.build_xhat_s": total["xhat.build_xhat"],
        "xhat.certificate_calls": calls["xhat.gap_certificate"],
        "xhat.certificate_s": total["xhat.gap_certificate"],
        "xhat.sqrt_resolvent_s": total["xhat.sqrt_resolvent"],
        "xhat.tilt_lipschitz_s": total["xhat.tilt_lipschitz"],
        "xhat.closeness_s": total["xhat.closeness_norm"],
        "diagnostics.fit_exponential_calls":
            calls["diagnostics.fit_exponential"],
        "diagnostics.fit_exponential_s": total["diagnostics.fit_exponential"],
        "diagnostics.chern_marker_s": total["diagnostics.chern_marker"],
        "diagnostics.surveys_s": (total["diagnostics.sqrt_bound_survey"]
                                  + total["diagnostics.tilted_comm_survey"]),
        "diagnostics.inequality_cases_s": (
            total["diagnostics.lemma_decay_check"]
            + total["diagnostics.lemma_prod_sum_check"]
            + total["diagnostics.schur_row_sums"]),
        "io.write_s": sum(s.duration for s in io_spans),
        "io.bytes_written": sum(s.nbytes or 0 for s in io_spans),
        "linalg.dense_N_factorizations": len(dense),
        "linalg.dense_N_s": sum(s.duration for s in dense),
        "linalg.small_factorizations": len(small),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self[layer]
    return metrics


# metrics that count work; they repeat exactly for one input
COUNT_METRICS = ("spectral.operator_norm_calls",
                 "dichotomy.projected_spectrum_calls", "xhat.certificate_calls",
                 "diagnostics.fit_exponential_calls", "io.bytes_written",
                 "linalg.dense_N_factorizations", "linalg.small_factorizations")


def span_table(spans):
    """Per span name: calls, inclusive seconds and self seconds."""
    own = self_times(spans)
    table = defaultdict(lambda: [0, 0.0, 0.0])
    for s in spans:
        row = table[s.name]
        row[0] += 1
        row[1] += s.duration
        row[2] += own[s.sid]
    return dict(table)


def spans_as_records(spans):
    own = self_times(spans)
    return [dict(asdict(s), self_s=own[s.sid]) for s in spans]
