"""Which public calls of the ``repro`` package belong to which layer.

Tracing is done from outside the library: :class:`LayerTracer` swaps
each listed public function for a timed wrapper (an instance attribute
for methods, a module attribute for the free functions the cluster
imports by name) and puts the originals back on :meth:`uninstall`.
Because methods are wrapped on the instance, a tier's calls to its own
public methods are timed too and appear as nested spans of one layer.
"""

from __future__ import annotations

from typing import Any, Callable

import repro.core.cluster as cluster_module

from perfbench.spans import SpanRecorder

__all__ = ["LAYERS", "STAGES", "LayerTracer"]

#: Layers in report order.  ``core`` owns the stage spans and everything
#: inside the timed window that no other layer claims.
LAYERS = (
    "data",
    "plan",
    "mem",
    "mem.cache",
    "ssd",
    "hbm",
    "hbm.allreduce",
    "nn",
    "ckpt",
    "core",
)

#: Pipeline stages a cluster may register, in pipeline order.
STAGES = ("read", "prefetch", "prepare", "load", "train", "snapshot")

_MEM_CALLS = (
    "prepare",
    "prefetch",
    "fetch_local",
    "serve_remote",
    "absorb_updates",
    "apply_gradients",
    "end_batch",
)
_CACHE_CALLS = (
    "get_batch",
    "put_batch",
    "peek_batch",
    "residency",
    "prefetch_resolve",
    "resolve_pinned",
    "values_at",
    "update_rows",
    "touch_rows",
    "update_batch_if_present",
    "settle_overflow",
    "take_pending_flush",
    "pin_batch",
    "unpin_batch",
    "pin_rows",
    "unpin_rows",
    "unpin_rows_except",
)
_HBM_CALLS = (
    "load_working_set",
    "pull_embeddings",
    "push_gradients",
    "drain_gradients",
    "apply_update",
    "dump",
)


def _method_targets(cluster: Any) -> list[tuple[str, Any, tuple[str, ...]]]:
    """``(layer, object, method names)`` for every traced instance."""
    out: list[tuple[str, Any, tuple[str, ...]]] = []
    for node in cluster.nodes:
        out += [
            ("data", node.hdfs, ("read", "peek")),
            ("mem", node.mem_ps, _MEM_CALLS),
            ("mem.cache", node.mem_ps.cache, _CACHE_CALLS),
            ("ssd", node.ssd_ps, ("load", "dump")),
            ("hbm", node.hbm_ps, _HBM_CALLS),
            ("nn", node.model, ("train_minibatch",)),
            ("nn", node.dense_optimizer, ("step",)),
        ]
    out.append(("ckpt", cluster, ("save_checkpoint",)))
    return out


#: marks an attribute that was not in the object's ``__dict__`` before
_ABSENT = object()

#: ``(layer, module attribute)`` of the free functions the cluster calls.
_MODULE_TARGETS = (
    ("plan", "build_round_plan"),
    ("hbm.allreduce", "hierarchical_allreduce"),
    ("hbm.allreduce", "allreduce_dense"),
)


class LayerTracer:
    """Installs and removes span wrappers around each layer's calls."""

    def __init__(self, cluster: Any, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._patches: list[tuple[Any, str, Callable]] = []
        for layer, obj, names in _method_targets(cluster):
            for name in names:
                fn = getattr(obj, name, None)
                if fn is None:
                    raise AttributeError(
                        f"{type(obj).__name__} has no public call {name!r}"
                    )
                self._patches.append((obj, name, recorder.wrap(layer, name, fn)))
        for layer, name in _MODULE_TARGETS:
            fn = getattr(cluster_module, name)
            self._patches.append(
                (cluster_module, name, recorder.wrap(layer, name, fn))
            )
        self._saved: list[tuple[Any, str, Any]] | None = None

    @property
    def installed(self) -> bool:
        return self._saved is not None

    def install(self) -> None:
        if self._saved is not None:
            raise RuntimeError("layer tracing is already installed")
        saved = []
        for obj, name, wrapper in self._patches:
            # A method is shadowed by an instance attribute (removed again on
            # uninstall); a module function is replaced and put back.
            saved.append((obj, name, obj.__dict__.get(name, _ABSENT)))
            setattr(obj, name, wrapper)
        self._saved = saved

    def uninstall(self) -> None:
        if self._saved is None:
            raise RuntimeError("layer tracing is not installed")
        for obj, name, original in reversed(self._saved):
            if original is _ABSENT:
                delattr(obj, name)
            else:
                setattr(obj, name, original)
        self._saved = None

