"""Per-layer spans around the calls into chslab, installed from outside.

A layer is a chslab module.  Every function in a module's ``__all__``, plus
``cli.main``, is wrapped in each chslab namespace that holds it, so a call
is seen whichever module looks the name up.  ``Operator`` and
``StateVector`` construction (validation included) is a ``linalg`` span,
and numpy's ``eigh``/``eigvalsh``/``svd`` are the ``spectral`` layer.

Spans are kept in memory as ``[name, layer, start, end, parent]`` and
reduced to metrics at the end.  A layer's self time is its spans' time
minus their child spans' time; time under no span is unattributed.  Work
done in worker processes shows only inside the span that started them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict

import numpy as np

MODULES = ("linalg", "typespace", "pseudo", "commitment", "locc",
           "registry", "cli", "rng")
SPECTRAL = ("eigh", "eigvalsh", "svd")
MB = 2**20

# metric -> span names whose outermost calls it times, children included
INCLUSIVE = {
    "typespace.haar_moment_s": ("typespace.haar_moment",),
    "typespace.good_type_s": ("typespace.prob_good_type",
                              "typespace.is_l_fold_prefix_collision_free"),
    "typespace.haar_sample_s": ("typespace.haar_states_block", "typespace.sample_haar"),
    "locc.mc_s": ("locc.locc_advantage_mc",),
    "locc.ppt_s": ("locc.ppt_diff_norm", "locc.ppt_vs_haar_bound"),
}


def _arg(args, kwargs, name: str, pos: int):
    return kwargs[name] if name in kwargs else args[pos]


# span name -> (args, kwargs, result) -> (counter, increment)
COUNTERS = {
    "typespace.enumerate_types": lambda a, k, r: ("typespace.types_enumerated", len(r)),
    "pseudo.prs_hybrids":
        lambda a, k, r: ("pseudo.keys_averaged", 2 ** _arg(a, k, "params", 0).lam),
    "pseudo.prs_multikey_hybrids":
        lambda a, k, r: ("pseudo.keys_averaged",
                         2 ** (_arg(a, k, "params", 0).lam * _arg(a, k, "num_keys", 1))),
    "pseudo.prfs_hybrids": lambda a, k, r: ("pseudo.keys_averaged", r.keys_used),
    "locc.locc_advantage_mc":
        lambda a, k, r: ("locc.mc_trials", _arg(a, k, "lp", 0).trials),
    "linalg.Operator":
        lambda a, k, r: ("linalg.max_operator_bytes", a[0].entries.nbytes),
    **{f"spectral.{name}": lambda a, k, r: ("spectral.max_dim", np.shape(a[0])[-1])
       for name in SPECTRAL},
}
MAX_COUNTERS = ("linalg.max_operator_bytes", "spectral.max_dim")


class Tracer:
    """Records spans while ``active``; the wrappers pass straight through
    otherwise, so the benchmark's own checks leave no spans."""

    def __init__(self) -> None:
        self.active = False
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, name: str, layer: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = [name, layer, time.perf_counter(), 0.0,
                   self._open[-1] if self._open else -1]
            self._open.append(len(self.spans))
            self.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                self._open.pop()
            if counter is not None:
                key, value = counter(args, kwargs, result)
                if key in MAX_COUNTERS:
                    self.counts[key] = max(self.counts[key], int(value))
                else:
                    self.counts[key] += int(value)
            return result

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import chslab

        modules = [importlib.import_module(f"chslab.{m}") for m in MODULES]
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            names = list(getattr(mod, "__all__", ())) + (["main"] if layer == "cli" else [])
            for name in names:
                fn = getattr(mod, name)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = (fn, self.wrap(f"{layer}.{name}", layer, fn))
        for mod in [chslab] + modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, hit[1])
        linalg = modules[0]
        for cls in (linalg.Operator, linalg.StateVector):
            self._patch(cls, "__post_init__",
                        self.wrap(f"linalg.{cls.__name__}", "linalg", cls.__post_init__))
        for name in SPECTRAL:
            self._patch(np.linalg, name,
                        self.wrap(f"spectral.{name}", "spectral", getattr(np.linalg, name)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer figures for spans recorded over ``wall_s`` seconds."""
        child = defaultdict(float)
        for name, layer, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        top = 0.0
        for i, (name, layer, start, end, parent) in enumerate(self.spans):
            self_s[layer] += (end - start) - child[i]
            if parent < 0:
                top += end - start
        inclusive = {}
        for metric, names in INCLUSIVE.items():
            total = 0.0
            for name, layer, start, end, parent in self.spans:
                if name in names and not self._under(parent, names):
                    total += end - start
            inclusive[metric] = total
        calls = Counter(span[0] for span in self.spans)
        out = {
            "typespace.haar_moment_s": inclusive["typespace.haar_moment_s"],
            "typespace.haar_moment_calls": calls["typespace.haar_moment"],
            "typespace.good_type_s": inclusive["typespace.good_type_s"],
            "typespace.types_enumerated": self.counts["typespace.types_enumerated"],
            "typespace.haar_sample_s": inclusive["typespace.haar_sample_s"],
            "typespace.self_s": self_s["typespace"],
            "pseudo.self_s": self_s["pseudo"],
            "pseudo.keys_averaged": self.counts["pseudo.keys_averaged"],
            "linalg.self_s": self_s["linalg"],
            "linalg.max_operator_mb": self.counts["linalg.max_operator_bytes"] / MB,
            "spectral.s": self_s["spectral"],
            "spectral.calls": sum(calls[f"spectral.{n}"] for n in SPECTRAL),
            "spectral.max_dim": self.counts["spectral.max_dim"],
            "commitment.self_s": self_s["commitment"],
            "locc.mc_s": inclusive["locc.mc_s"],
            "locc.mc_trials": self.counts["locc.mc_trials"],
            "locc.mc_trials_per_s": (self.counts["locc.mc_trials"] / inclusive["locc.mc_s"]
                                     if inclusive["locc.mc_s"] > 0 else 0.0),
            "locc.ppt_s": inclusive["locc.ppt_s"],
            "locc.self_s": self_s["locc"],
            "registry.self_s": self_s["registry"],
            "cli.self_s": self_s["cli"],
            "rng.self_s": self_s["rng"],
            "trace.unattributed_s": wall_s - top,
            "trace.spans": len(self.spans),
        }
        return out

    def _under(self, parent: int, names) -> bool:
        while parent >= 0:
            if self.spans[parent][0] in names:
                return True
            parent = self.spans[parent][4]
        return False
