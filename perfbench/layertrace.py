"""Outside-in layer trace for the grushin benchmark.

``install`` replaces each traced library function with a timing wrapper,
on every ``grushin`` module that holds it by name (its home module and
every module that imported it with ``from .x import name``), so calls
made through any of those names are seen.  Nothing inside the library
changes.  Self time is inclusive time minus the inclusive time of
wrapped callees; work counts are read from call arguments and return
values, so they repeat exactly from run to run.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from collections import Counter, defaultdict


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _profile_points(out, args, kwargs):
    return {"profile_points": out.size}


def _atoms(out, args, kwargs):
    return {"atoms": out.shape[0]}


def _kernel_triples(out, args, kwargs):
    return {"kernel_triples": len(out)}


def _coeff_terms(out, args, kwargs):
    return {"coeff_terms": out.size}


def _expansion(out, args, kwargs):
    # build_expansion returns once the next-octave tail drops below
    # tol * mass, or when it reaches l_cap; only the first converged.
    details = out.details
    converged = out.tail_bound < details["tol"] * details["series_mass"]
    return {"truncation_sum": out.truncation,
            "expansion_converged": int(bool(converged)),
            "expansion_cap_hits": int(not converged)}


def _contract_pairs(out, args, kwargs):
    return {"contract_pairs": _arg(args, kwargs, 0, "mt").size}


def _write_bytes(out, args, kwargs):
    return {"write_bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


def _map_items(out, args, kwargs):
    return {"parallel_map_items": len(out)}


# (module, function, timer, counter): a timer name collects self seconds
# and calls; several functions may share one timer.
TRACED = (
    ("hermite", "scaled_profile_matrix", "hermite.profile", _profile_points),
    ("calculus", "atom_projection_values", "calculus.atom_projection", _atoms),
    ("calculus", "bilinear_kernel_batch", "calculus.kernel_batch",
     _kernel_triples),
    ("calculus", "build_atoms", "calculus.build_atoms", None),
    ("calculus", "bilinear_weighted_l2", "calculus.gram", None),
    ("calculus", "second_layer_channel_l2", "calculus.gram", None),
    ("calculus", "linear_first_layer_weighted_l2", "calculus.gram", None),
    ("calculus", "apply_linear_multiplier_gridded", "calculus.gridded_apply",
     None),
    ("riesz", "fourier_coeff_batch", "riesz.coeff", _coeff_terms),
    ("riesz", "build_expansion", "riesz.expansion", _expansion),
    ("riesz", "truncated_series_symbol", "riesz.series_symbol", None),
    ("riesz", "bilinear_apply_separated", "riesz.separated", None),
    ("riesz", "bilinear_apply_direct", "riesz.direct", None),
    ("riesz", "_bilinear_contract", "riesz.contract", _contract_pairs),
    ("fields", "synthesize", "fields.synthesize", None),
    ("fields", "analyze", "fields.analyze", None),
    ("fields", "lp_norm", "fields.norm", None),
    ("fields", "mixed_norm", "fields.norm", None),
    ("fields", "write_field_binary", "fields.write", _write_bytes),
    ("fields", "write_field_csv", "fields.write", _write_bytes),
    ("grid", "make_grid", "grid.make_grid", None),
    ("reductions", "parallel_map", "reductions.parallel_map", _map_items),
    ("verifier", "pointwise_kernel_probe", "verifier.pointwise_kernel_probe",
     None),
    ("verifier", "weighted_plancherel_probe",
     "verifier.weighted_plancherel_probe", None),
    ("verifier", "restriction_probe", "verifier.restriction_probe", None),
    ("verifier", "coefficient_decay_probe", "verifier.coefficient_decay_probe",
     None),
    ("verifier", "dyadic_decay_probe", "verifier.dyadic_decay_probe", None),
    ("verifier", "mixed_norm_decay_probe", "verifier.mixed_norm_decay_probe",
     None),
    ("cli", "main", "cli.main", None),
)


class LayerTrace:
    """Self-time timers and work counters for the functions in ``TRACED``."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, timer: str, counter):
        def traced(*args, **kwargs):
            stack = self._stack()
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                self.self_s[timer] += elapsed - children
                self.calls[timer] += 1
            if counter is not None:
                self.counts.update(counter(out, args, kwargs))
            return out

        return traced

    def install(self) -> list[str]:
        """Wrap every traced function on every loaded grushin module.

        Returns the traced names the library no longer defines; the
        caller fails the run for them, since their metrics would read 0.
        """
        modules = [m for name, m in sys.modules.items()
                   if (name == "grushin" or name.startswith("grushin."))
                   and m is not None]
        missing = []
        for home, name, timer, counter in TRACED:
            original = getattr(sys.modules.get(f"grushin.{home}"), name, None)
            if original is None:
                missing.append(f"{home}.{name}")
                continue
            wrapper = self._wrap(original, timer, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
        return missing

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counts": dict(self.counts)}
