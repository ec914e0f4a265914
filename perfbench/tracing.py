"""Spans around calls into noksurf's layers, recorded from outside the program.

`Tracer.install` wraps the public (and a few private) functions of each
module and patches every binding of them in every loaded `noksurf` module,
because functions such as `pair`, `walk_ray`, `alpha_beta` and
`zariski_decompose` are imported by name into several modules.  Each call
appends one span [name, start, end, parent, op, nested, extra] to an
in-memory list; `uninstall` restores the original bindings.

`nested` marks a span inside another span of the same name, so inclusive
times and call counts use outermost spans only; `extra` is a number read
off the call's result (chambers of a walk, accepted trials of a search).
"""
from __future__ import annotations

import json
import sys
from time import perf_counter


def _segments(profile) -> int:
    return len(profile.segments)


def _accepted(cert) -> int:
    return len(cert.coefficients) + int(cert.independent)


# span name -> [(module, attribute, result measure)]; attribute "Class.method"
# wraps a method.  Only the bindings of the function object are replaced.
LAYERS = {
    "docio.parse": [
        ("docio", a, None)
        for a in (
            "load_document",
            "parse_surface",
            "parse_divisor",
            "parse_flag",
            "parse_candidates",
            "parse_labels",
            "parse_fan",
            "parse_toric_divisor",
        )
    ],
    "docio.dump": [("docio", "dump_json", None), ("docio", "fmt", None), ("docio", "fmt_point", None)],
    "lattice.model_init": [("lattice", "SurfaceModel.__init__", None)],
    "lattice.pair": [("lattice", "pair", None)],
    "lattice.gram_matrix": [("lattice", "gram_matrix", None)],
    "linalg.inertia": [("linalg", "inertia", None)],
    "linalg.solve": [("linalg", "solve_many", None), ("linalg", "solve", None)],
    "linalg.rank": [("linalg", "rank", None)],
    "raywalk.walk": [("raywalk", "walk_ray", _segments)],
    "raywalk.segment_system": [("raywalk", "_segment_system", None)],
    "raywalk.enlarge": [("raywalk", "_enlarge_support", None)],
    "intmath.squarefree": [("intmath", "squarefree_part", None)],
    "zariski.decompose": [("zariski", "zariski_decompose", None)],
    "flagbuilder.search": [("flagbuilder", "find_ordered_ample_class", _accepted)],
    "flagbuilder.probe": [("flagbuilder", "_probe", None)],
    "polygon.alpha_beta": [("polygon", "alpha_beta", None)],
    "polygon.build": [("polygon", "build_polygon", None)],
    "polygon.certificates": [
        ("polygon", a, None)
        for a in (
            "side_slopes",
            "predict_interior_vertices",
            "rightmost_count",
            "vertex_bound_check",
            "leftmost_side_check",
        )
    ],
    "toric.crosscheck": [("toric", "crosscheck", None)],
}
# the halving loops test each trial class with is_model_ample; counting the
# binding that flagbuilder holds counts trials (plus one divisor check per search)
MODULE_ONLY = {"flagbuilder.ample_check": ("flagbuilder", "is_model_ample")}
FIELDS = ["name", "start", "end", "parent", "op", "nested", "extra"]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._active: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name: str, fn, measure):
        nid = len(self.names) if name not in self.names else self.names.index(name)
        if nid == len(self.names):
            self.names.append(name)
            self._active.append(0)
        spans, stack, active = self.spans, self._stack, self._active

        def wrapper(*args, **kwargs):
            rec = [nid, 0.0, 0.0, stack[-1] if stack else -1, self.op, active[nid] > 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            active[nid] += 1
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                active[nid] -= 1
                stack.pop()
            if measure is not None:
                rec[6] = measure(result)
            return result

        return wrapper

    def install(self) -> None:
        mods = {k[len("noksurf.") :]: m for k, m in sys.modules.items() if k.startswith("noksurf.")}
        for name, targets in LAYERS.items():
            for mod, attr, measure in targets:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mods[mod], cls_name)
                    fn = cls.__dict__[meth]
                    self._set(cls, meth, self._wrap(name, fn, measure), fn)
                    continue
                fn = getattr(mods[mod], attr)
                wrapper = self._wrap(name, fn, measure)
                for m in mods.values():
                    for key, val in list(vars(m).items()):
                        if val is fn:
                            self._set(m, key, wrapper, fn)
        for name, (mod, attr) in MODULE_ONLY.items():
            fn = getattr(mods[mod], attr)
            self._set(mods[mod], attr, self._wrap(name, fn, None), fn)

    def _set(self, owner, key, new, old) -> None:
        setattr(owner, key, new)
        self._undo.append((owner, key, old))

    def uninstall(self) -> None:
        for owner, key, old in reversed(self._undo):
            setattr(owner, key, old)
        self._undo.clear()

    def write(self, path, ops) -> None:
        """Spans as JSON: the name table, the operations, one row per span."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "ops": ops, "fields": FIELDS, "spans": self.spans}, fh)


def layer_metrics(names, spans, op_commands, untraced_ops_per_s, traced_ops_per_s) -> dict:
    """Per-operation layer figures derived from the spans of the traced passes."""
    n_ops = len(op_commands)
    idx = {n: i for i, n in enumerate(names)}
    count = [0] * len(names)
    incl = [0.0] * len(names)
    self_t = [0.0] * len(names)
    extra = [0] * len(names)
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    # inherited flags: inside a search, inside a probe
    in_search = [False] * len(spans)
    in_probe = [False] * len(spans)
    search, probe = idx["flagbuilder.search"], idx["flagbuilder.probe"]
    walk, dec = idx["raywalk.walk"], idx["zariski.decompose"]
    ab = idx["polygon.alpha_beta"]
    replay = probes = ab_polygon = 0
    for i, (nid, t0, t1, parent, op, nested, ex) in enumerate(spans):
        if parent >= 0:
            pn = spans[parent][0]
            in_search[i] = in_search[parent] or pn == search
            in_probe[i] = in_probe[parent] or pn == probe
        self_t[nid] += (t1 - t0) - child[i]
        if nested:
            continue
        count[nid] += 1
        incl[nid] += t1 - t0
        extra[nid] += ex
        if nid == walk and in_search[i]:
            replay += 1
        if nid == dec and in_probe[i]:
            probes += 1
        if nid == ab and op_commands[op] == "polygon":
            ab_polygon += 1

    def calls(n):
        return count[idx[n]] / n_ops

    def ms(n):
        return 1000 * incl[idx[n]] / n_ops

    def self_ms(n):
        return 1000 * self_t[idx[n]] / n_ops

    chambers = extra[walk]
    seg_calls = count[idx["raywalk.segment_system"]]
    trials = count[idx["flagbuilder.ample_check"]] - count[search]
    polygon_ops = sum(1 for c in op_commands if c == "polygon")
    return {
        "docio.parse.ms": ms("docio.parse"),
        "lattice.model_init.ms": ms("lattice.model_init"),
        "lattice.model_init.calls": calls("lattice.model_init"),
        "docio.dump.ms": ms("docio.dump"),
        "lattice.pair.calls": calls("lattice.pair"),
        "lattice.pair.self_ms": self_ms("lattice.pair"),
        "lattice.gram_matrix.calls": calls("lattice.gram_matrix"),
        "linalg.inertia.calls": calls("linalg.inertia"),
        "linalg.inertia.self_ms": self_ms("linalg.inertia"),
        "linalg.solve.calls": calls("linalg.solve"),
        "linalg.solve.self_ms": self_ms("linalg.solve"),
        "linalg.rank.calls": calls("linalg.rank"),
        "raywalk.walk.calls": calls("raywalk.walk"),
        "raywalk.walk.ms": ms("raywalk.walk"),
        "raywalk.chambers": chambers / n_ops,
        "raywalk.ms_per_chamber": 1000 * incl[walk] / chambers if chambers else 0.0,
        "raywalk.segment_system.calls": seg_calls / n_ops,
        "raywalk.segment_system.per_chamber": seg_calls / chambers if chambers else 0.0,
        "raywalk.enlarge.calls": calls("raywalk.enlarge"),
        "intmath.squarefree.calls": calls("intmath.squarefree"),
        "intmath.squarefree.ms": ms("intmath.squarefree"),
        "zariski.decompose.calls": calls("zariski.decompose"),
        "zariski.decompose.ms": ms("zariski.decompose"),
        "flagbuilder.search.calls": calls("flagbuilder.search"),
        "flagbuilder.search.ms": ms("flagbuilder.search"),
        "flagbuilder.trials": trials / n_ops,
        "flagbuilder.trial_accept_ratio": extra[search] / trials if trials else 0.0,
        "flagbuilder.replay_walks": replay / n_ops,
        "flagbuilder.probe_decompositions": probes / n_ops,
        "polygon.alpha_beta.calls": ab_polygon / polygon_ops if polygon_ops else 0.0,
        "polygon.alpha_beta.ms": ms("polygon.alpha_beta"),
        "polygon.build.ms": ms("polygon.build"),
        "polygon.certificates.ms": ms("polygon.certificates"),
        "toric.crosscheck.calls": calls("toric.crosscheck"),
        "toric.crosscheck.ms": ms("toric.crosscheck"),
        "trace.overhead_frac": untraced_ops_per_s / traced_ops_per_s - 1,
    }

