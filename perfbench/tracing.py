"""Span recorder that wraps gradlab's layers from outside the program.

`Tracer.install()` replaces every public function of the traced modules
with a thin wrapper that opens a span on entry and closes it on return.
The program is not edited: the wrappers are bound into the module
namespaces (and into every module that imported a name with
``from .x import name``) and are removed again by `Tracer.uninstall()`.

Two methods are wrapped as well, because the kernel suite's hot loop goes
through them rather than through a module function:
``OperatorHandle.apply_vector`` (one single-column operator application)
and ``DealiasedBasis.columns``.  ``scipy.linalg.eigh`` is wrapped on the
scipy module itself, so every dense eigensolve in the process is counted,
whichever gradlab module issues it.

Handles capture ``fields.gradient``, ``gradients.d1`` and friends when
they are built, so the tracer must be installed before any handle exists;
the benchmark installs it before calling ``gradlab.cli.main``.

Spans are kept in memory as (name, start, end, parent) in flat arrays.
Per-name aggregates are updated as spans close: calls, self time (the
span minus the time its child spans cover) and outermost time (the
inclusive time of spans that have no enclosing span of the same group,
so recursion and nested helpers are not counted twice).
"""

import functools
import importlib
import time
from array import array

import numpy as np

TRACED_MODULES = (
    "config", "expressions", "fiber", "geometry",
    "fields", "gradients", "spectral", "harness",
)
# modules whose namespaces may hold from-imported copies of traced names
REBIND_MODULES = TRACED_MODULES + ("cli",)

# spans whose outermost time is pooled under one group name
GROUPS = {
    "config.load_config": "config.load",
    "config.apply_overrides": "config.load",
    "gradients.weitzenbock_K": "gradients.weitzenbock",
    "gradients.weitzenbock_q_form": "gradients.weitzenbock",
    "gradients.weitzenbock_identity_report": "gradients.weitzenbock",
    "spectral.build_dealiased_basis": "spectral.basis",
    "spectral.DealiasedBasis.columns": "spectral.basis",
    "spectral.flat_kernel_oracle": "spectral.oracle",
    "spectral.mode_injectivity_scan": "spectral.oracle",
    "harness.flat_joint_kernel_oracle": "spectral.oracle",
    "spectral.symbol_eval": "spectral.symbol",
    "spectral.symbol_sphere_scan": "spectral.symbol",
}

EIGH = "spectral.eigh"
APPLY = "spectral.OperatorHandle.apply_vector"


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self._group_of = []          # name id -> group id
        self._group_ids = {}
        self._active = []            # group id -> open spans of that group
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []             # [span index, group id, outermost, child time]
        self.calls = []
        self.self_s = []
        self.outer_s = []            # group id -> outermost inclusive time
        self.eigh_dofs = []
        self.gram_blocks = 0
        self.gram_block_keys = set()
        self._patches = []           # (owner, attribute, original, wrapper)

    # -- recording ---------------------------------------------------------

    def _name_id(self, name):
        i = self._name_ids.get(name)
        if i is None:
            i = len(self.names)
            self._name_ids[name] = i
            self.names.append(name)
            group = GROUPS.get(name, name)
            g = self._group_ids.get(group)
            if g is None:
                g = len(self._group_ids)
                self._group_ids[group] = g
                self._active.append(0)
                self.outer_s.append(0.0)
            self._group_of.append(g)
            self.calls.append(0)
            self.self_s.append(0.0)
        return i

    def open(self, name):
        i = self._name_id(name)
        g = self._group_of[i]
        idx = len(self.span_start)
        self.span_name.append(i)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append([idx, g, self._active[g] == 0, 0.0])
        self._active[g] += 1
        self.calls[i] += 1
        self.span_start.append(time.perf_counter())

    def close(self):
        end = time.perf_counter()
        idx, g, outermost, child = self._stack.pop()
        self.span_end[idx] = end
        dur = end - self.span_start[idx]
        self.self_s[self.span_name[idx]] += dur - child
        self._active[g] -= 1
        if outermost:
            self.outer_s[g] += dur
        if self._stack:
            self._stack[-1][3] += dur

    def _wrap(self, name, fn, probe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name(args, kwargs) if callable(name) else name
            if probe is not None:
                probe(args, kwargs)
            self.open(span)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close()
        return traced

    # -- probes: counts taken from the arguments of a call -----------------

    def _probe_eigh(self, args, kwargs):
        a = args[0] if args else kwargs["a"]
        self.eigh_dofs.append(int(np.shape(a)[0]))

    def _probe_gram(self, args, kwargs):
        cache, p, handles = args[:3]
        for h in handles:
            self.gram_blocks += 1
            self.gram_block_keys.add((h.name, tuple(cache.spec.shape), int(p)))

    # -- installing and removing wrappers -----------------------------------

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr), wrapper))
        setattr(owner, attr, wrapper)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        import scipy.linalg

        modules = {m: importlib.import_module(f"gradlab.{m}") for m in REBIND_MODULES}
        spectral = modules["spectral"]
        probes = {"harness.gram_pencil": self._probe_gram}
        wrappers = {}
        for m in TRACED_MODULES:
            mod = modules[m]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                name = f"{m}.{attr}"
                if attr == "stein_weiss_d1":
                    def name(args, kwargs, _base=name):
                        route = args[1] if len(args) > 1 else kwargs.get("route", "formula")
                        return f"{_base}[{route}]"
                wrappers[id(obj)] = (obj, self._wrap(name, obj, probes.get(f"{m}.{attr}")))
        # rebind the original and every from-imported copy of it
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
        self._patch(spectral.OperatorHandle, "apply_vector",
                    self._wrap(APPLY, spectral.OperatorHandle.apply_vector))
        self._patch(spectral.DealiasedBasis, "columns",
                    self._wrap("spectral.DealiasedBasis.columns",
                               spectral.DealiasedBasis.columns))
        self._patch(scipy.linalg, "eigh",
                    self._wrap(EIGH, scipy.linalg.eigh, self._probe_eigh))
        return self

    def uninstall(self):
        """Restore every patched name; returns the names still not restored."""
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        left = [f"{owner.__name__}.{attr}" for owner, attr, original, _ in self._patches
                if getattr(owner, attr) is not original]
        self._patches = []
        return left

    # -- derived numbers -----------------------------------------------------

    def _calls(self, *names):
        return sum(self.calls[self._name_ids[n]] for n in names if n in self._name_ids)

    def _self(self, *names):
        return float(sum(self.self_s[self._name_ids[n]] for n in names if n in self._name_ids))

    def _outer(self, group):
        g = self._group_ids.get(group)
        return 0.0 if g is None else self.outer_s[g]

    def _layer(self, prefix):
        return [n for n in self.names if n.startswith(prefix + ".")]

    def layer_metrics(self):
        """The per-layer numbers of one traced call, by metric name."""
        fiber = self._layer("fiber")
        harness = self._layer("harness")
        dofs = self.eigh_dofs
        return {
            "config.load_s": self._outer("config.load"),
            "geometry.build_s": self._outer("geometry.build_geometry"),
            "geometry.build_calls": self._calls("geometry.build_geometry"),
            "fiber.calls": self._calls(*fiber),
            "fiber.s": self._self(*fiber),
            "fields.gradient_calls": self._calls("fields.gradient"),
            "fields.gradient_s": self._outer("fields.gradient"),
            "fields.divergence_s": self._outer("fields.divergence"),
            "gradients.decompose_calls": self._calls("gradients.decompose"),
            "gradients.decompose_s": self._outer("gradients.decompose"),
            "gradients.d1_s": self._outer("gradients.d1"),
            "gradients.stein_weiss_formula_s":
                self._outer("gradients.stein_weiss_d1[formula]"),
            "gradients.stein_weiss_transpose_s":
                self._outer("gradients.stein_weiss_d1[transpose]"),
            "gradients.weitzenbock_s": self._outer("gradients.weitzenbock"),
            "gradients.integral_s": self._outer("gradients.integral_identity_report"),
            "spectral.apply_calls": self._calls(APPLY),
            "spectral.apply_s": self._outer(APPLY),
            "spectral.eigh_calls": self._calls(EIGH),
            "spectral.eigh_s": self._outer(EIGH),
            "spectral.eigh_dof_max": max(dofs, default=0),
            "spectral.eigh_dof3_sum": float(sum(d ** 3 for d in dofs)),
            "spectral.basis_s": self._outer("spectral.basis"),
            "spectral.dealiased_pencil_self_s": self._self("spectral.dealiased_pencil"),
            "spectral.oracle_s": self._outer("spectral.oracle"),
            "spectral.symbol_s": self._outer("spectral.symbol"),
            "harness.gram_pencil_self_s": self._self("harness.gram_pencil"),
            "harness.gram_blocks": self.gram_blocks,
            "harness.gram_blocks_distinct": len(self.gram_block_keys),
            "harness.identity_s": self._outer("harness.run_identity_suite"),
            "harness.kernel_s": self._outer("harness.kernel_experiment"),
            "harness.convergence_s": self._outer("harness.convergence_study"),
            "harness.render_s": self._outer("harness.emit_report"),
            "harness.self_s": self._self(*harness),
            "trace.spans": len(self.span_start),
        }

    def save_spans(self, path):
        """Write every span as flat arrays (parent -1 marks a root span)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
