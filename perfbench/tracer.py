"""Outside-in tracing of rydsim's public functions.

`Tracer.install()` replaces each traced function by a recording wrapper in
every rydsim module that holds a reference to it.  A module that did
`from .propagation import transmission_batch` has its own binding of the
name, so patching only the defining module would miss its calls.  Each
call becomes a span (name, parent span, start, end); spans stay in memory
until `layer_metrics()` reduces them.  Self time is a span's duration
minus the time its child spans cover.  `uninstall()` puts the originals
back.  No file of the program is changed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

# (defining module, attribute) of every traced callable
TARGETS = (
    ("rydsim.config", "load_config"),
    ("rydsim.config", "build_setup"),
    ("rydsim.presets", "load_pair_system"),
    ("rydsim.runner", "run_experiment"),
    ("rydsim.atomic_states", "resonance_fields"),
    ("rydsim.interaction", "effective_c6"),
    ("rydsim.propagation", "chi_values"),
    ("rydsim.propagation", "transmission_batch"),
    ("rydsim.propagation", "transmission_freq"),
    ("rydsim.propagation", "transmission_time_oracle"),
    ("rydsim.ensemble", "sample_geometry"),
    ("rydsim.ensemble", "boxcar_convolve"),
    ("rydsim.ensemble", "field_scan"),
    ("rydsim.detection", "poisson_mixture_pmf"),
    ("rydsim.detection", "detection_fidelity"),
    ("rydsim.detection", "fidelity_scan"),
    ("rydsim.spinwave", "photon_channel"),
    ("rydsim.spinwave", "transverse_channels"),
    ("rydsim.spinwave", "retrieval_efficiency_curve"),
)
# properties traced on their class: (module, class, property)
PROPERTIES = (("rydsim.spinwave", "PhotonChannel", "decoherence_matrix"),)


def _span_name(module: str, attr: str) -> str:
    return f"{module.split('.', 1)[1]}.{attr}"


class Tracer:
    """Span recorder for one traced round."""

    def __init__(self):
        self.spans = []          # [name, parent index, start, end]
        self.counts = defaultdict(int)
        self._stack = []
        self._patches = []       # (owner, attribute, original)
        self._grid_points = {}   # z_extent -> graded grid points per row

    # -- recording -------------------------------------------------------
    def _wrap(self, name, fn, counter=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, stack[-1] if stack else -1, 0.0, 0.0])
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][2:] = (start, end)
            if counter is not None:
                counter(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    # -- computed counts -------------------------------------------------
    def _count_batch(self, fn):
        sig = inspect.signature(fn)

        def count(args, kwargs, result):
            a = sig.bind(*args, **kwargs).arguments
            if a.get("gate_positions") is None or a.get("interaction") is None:
                return
            z_extent = a["params"].z_extent
            if z_extent not in self._grid_points:
                # no fallback: if the grid function goes, the traced run fails
                grid = sys.modules["rydsim.propagation"]._graded_grid
                self._grid_points[z_extent] = grid(z_extent, [0.0]).shape[1]
            rows = len(a["offsets"])
            self.counts["propagation.transmission_batch.chi_points"] += (
                rows * self._grid_points[z_extent]
            )
        return count

    def _count_pmf(self, fn):
        sig = inspect.signature(fn)

        def count(args, kwargs, result):
            a = sig.bind(*args, **kwargs).arguments
            self.counts["detection.poisson_mixture_pmf.pmf_cells"] += (
                len(a["mus"]) * (int(a["k_max"]) + 1)
            )
        return count

    def _count_channel(self, args, kwargs, result):
        self.counts["spinwave.channel_bytes"] += (
            result.transmit.nbytes + result.scatter.nbytes
        )

    # -- installation ----------------------------------------------------
    def install(self) -> "Tracer":
        for modname, _ in TARGETS:
            importlib.import_module(modname)
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "rydsim" or n.startswith("rydsim."))]
        counters = {
            "transmission_batch": self._count_batch,
            "poisson_mixture_pmf": self._count_pmf,
            "photon_channel": lambda fn: self._count_channel,
        }
        for modname, attr in TARGETS:
            original = getattr(sys.modules[modname], attr)
            make = counters.get(attr)
            traced = self._wrap(_span_name(modname, attr), original,
                                make(original) if make else None)
            for m in mods:
                if m.__dict__.get(attr) is original:
                    self._patch(m, attr, traced)
        for modname, cls_name, prop in PROPERTIES:
            cls = getattr(sys.modules[modname], cls_name)
            fget = cls.__dict__[prop].fget
            name = f"{_span_name(modname, cls_name)}.{prop}"
            self._patch(cls, prop, property(self._wrap(name, fget)))
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reduction -------------------------------------------------------
    def layer_metrics(self) -> dict:
        """Per span name: calls, total seconds and self seconds; plus counts."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(float)
        for i, (name, parent, start, end) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += end - start - child_time[i]
        out.update(self.counts)
        return dict(out)
