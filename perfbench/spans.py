"""Per-layer spans recorded around quadclif's public functions.

install() replaces each traced function, in every quadclif module that
bound it by name, with a wrapper that records a span: its name, its
duration, and the span that was open when it started.  Spans are folded
in memory into a call tree keyed by the path of span names, so a long
run costs a dictionary update per call, and the tree is written out when
the run ends.  A span's self time is its duration minus the time of its
child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, attribute, span name); several attributes may share a span name
TRACED = (
    ("pencil", "pencil_isotropy_witness", "pencil.pencil_isotropy_witness"),
    ("pencil", "amer_brumer_check", "pencil.amer_brumer_check"),
    ("pencil", "analyze", "pencil.analyze"),
    ("pencil", "common_isotropic_vector", "pencil.common_isotropic_vector"),
    ("pencil", "brauer_triviality_rank4", "pencil.brauer_triviality_rank4"),
    ("pencil", "common_isotropic_plane_rank6", "pencil.common_isotropic_plane_rank6"),
    ("splitting", "find_isotropic", "splitting.find_isotropic"),
    ("splitting", "reduce_fully", "splitting.reduce_fully"),
    ("clifford", "even_clifford", "clifford.even_clifford"),
    ("clifford", "full_clifford", "clifford.full_clifford"),
    ("clifford", "center_report", "clifford.center_report"),
    ("morita", "build_P", "morita.build_P"),
    ("morita", "endomorphism_algebra", "morita.endomorphism_algebra"),
    ("morita", "morita_witness", "morita.morita_witness"),
    ("lagrangian", "enumerate_isotropic", "lagrangian.enumerate_isotropic"),
    ("lagrangian", "ruling_components", "lagrangian.ruling_components"),
    ("lagrangian", "stein_vs_center", "lagrangian.stein_vs_center"),
    ("rings", "Matrix.rref", "rings.Matrix.rref"),
    ("rings", "irreducible_factors", "rings.irreducible_factors"),
    ("cli", "parse_form_literal", "cli.parse"),
    ("cli", "parse_pencil_literal", "cli.parse"),
    ("cli", "render_machine", "cli.render_machine"),
)


class Tracer:
    def __init__(self):
        self._stack = []  # open spans: [path, child seconds]
        self.tree = {}  # path tuple -> [calls, total seconds, self seconds]

    def wrap(self, name, fn):
        stack, tree, clock = self._stack, self.tree, time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            path = (stack[-1][0] + (name,)) if stack else (name,)
            frame = [path, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                node = tree.get(path)
                if node is None:
                    node = tree[path] = [0, 0.0, 0.0]
                node[0] += 1
                node[1] += dt
                node[2] += dt - frame[1]

        return span

    def by_name(self):
        """name -> (calls, self seconds), summed over every path."""
        out = {}
        for path, (calls, _, self_s) in self.tree.items():
            c, s = out.get(path[-1], (0, 0.0))
            out[path[-1]] = (c + calls, s + self_s)
        return out

    def dump(self):
        return [{"path": "/".join(path), "calls": calls, "total_s": total, "self_s": self_s}
                for path, (calls, total, self_s) in sorted(self.tree.items())]


def install(package="quadclif"):
    """Wrap every traced function; returns the Tracer collecting spans."""
    tracer = Tracer()
    for mod_name, _, _ in TRACED:
        importlib.import_module("%s.%s" % (package, mod_name))
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == package or name.startswith(package + "."))]
    for mod_name, attr, span_name in TRACED:
        mod = sys.modules["%s.%s" % (package, mod_name)]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, tracer.wrap(span_name, getattr(cls, meth)))
            continue
        orig = getattr(mod, attr)
        wrapped = tracer.wrap(span_name, orig)
        for m in modules:
            for key, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, key, wrapped)
    return tracer
