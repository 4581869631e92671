"""The repo's machine-checked invariants, one :class:`Rule` each.

===============  ======================================================
rule id          invariant
===============  ======================================================
``hot-loop``     hot-path modules (``mem/ ssd/ hbm/ plan/ store/``)
                 never iterate batch key arrays per element in Python —
                 the PR-1/5/6 vectorization work must not silently rot
``atomic-write`` durable-artifact modules (``ckpt/ ssd/ bench/``) never
                 write files with bare ``open(..., "w")`` — every
                 durable byte goes through ``atomic_write_bytes`` so a
                 crash can never expose a torn file under its final name
``seeded-rng``   randomness flows from seeded generators: no
                 global-state ``np.random.*`` calls, no unseeded
                 ``default_rng()`` outside ``utils/rng.py`` — the
                 bit-parity oracles depend on byte-reproducible streams
``sim-time``     simulation code never reads a wall clock
                 (``time.time`` / ``datetime.now``): simulated seconds
                 come from the cost model, and sim-seconds parity gates
                 would silently become machine-dependent otherwise
``f64-hot-path`` hot-path arithmetic does not introduce float64
                 temporaries (``astype(np.float64)`` / ``dtype=float64``)
                 outside the explicitly-allowed bit-exact accumulations
``typed-faults`` fault-injection code (``faults/``) never raises or
                 catches bare ``Exception``/``RuntimeError`` — the
                 supervisor's recovery classification depends on every
                 failure carrying a typed ``FaultError`` scope
``no-assert``    library code (``src/``) states its invariants as
                 explicit raises, never bare ``assert`` — ``python -O``
                 strips asserts, silently disabling the check
===============  ======================================================

Every escape is an in-source ``# repro: allow(<rule>)`` with the
justification next to the code (see :mod:`repro.analysis.findings`).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.linter import ModuleSource, RawFinding

__all__ = [
    "HotLoopRule",
    "AtomicWriteRule",
    "SeededRngRule",
    "SimTimeRule",
    "Float64HotPathRule",
    "TypedFaultsRule",
    "NoAssertRule",
    "DEFAULT_RULES",
]

#: package subdirectories whose code is on the vectorized hot path
HOT_PATH_DIRS = frozenset({"mem", "ssd", "hbm", "plan", "store"})

#: package subdirectories that materialize durable artifacts
DURABLE_DIRS = frozenset({"ckpt", "ssd", "bench"})


def _repro_subdir(relpath: str) -> str | None:
    """The package segment directly under ``repro`` (None outside it)."""
    parts = relpath.split("/")
    try:
        i = parts.index("repro")
    except ValueError:
        return None
    return parts[i + 1] if i + 1 < len(parts) - 1 else None


def _dotted(node: ast.expr) -> str | None:
    """``a.b.c`` attribute chains as a dotted string (else None)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _terminal_name(node: ast.expr) -> str | None:
    """The final identifier of a Name / Attribute expression."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


class HotLoopRule:
    """No per-key Python loops over batch arrays in hot-path modules."""

    id = "hot-loop"
    title = "hot-path modules must not iterate batch key arrays per key"
    rationale = (
        "PRs 1/5/6 made every store/cache/plan hot path batch-first; a "
        "per-key Python loop over a key array reintroduces the seed's "
        "O(batch) interpreter overhead and silently regresses rounds/s. "
        "Intentional scalar paths (parity oracles, collision-split runs) "
        "carry an explicit allow."
    )

    #: iterable names treated as batch key arrays
    _KEYISH_EXACT = frozenset({"keys", "working", "uniq"})

    def applies_to(self, relpath: str) -> bool:
        return _repro_subdir(relpath) in HOT_PATH_DIRS

    def _keyish(self, name: str | None) -> bool:
        return name is not None and (
            name in self._KEYISH_EXACT or name.endswith("_keys")
        )

    def _target_is_array_collection(self, target: ast.expr) -> bool:
        """``for keys in list_of_key_arrays`` iterates arrays, not keys."""
        names = [
            n.id for n in ast.walk(target) if isinstance(n, ast.Name)
        ]
        return any(self._keyish(n) for n in names)

    def _iter_hits(self, node: ast.expr) -> str | None:
        """The offending array name if ``node`` iterates per key."""
        name = _terminal_name(node)
        if self._keyish(name):
            return name
        if not isinstance(node, ast.Call):
            return None
        fn = _terminal_name(node.func)
        if fn == "range" and len(node.args) == 1:
            (arg,) = node.args
            # range(x.size) / range(len(x))
            if isinstance(arg, ast.Attribute) and arg.attr == "size":
                inner = _terminal_name(arg.value)
                if self._keyish(inner):
                    return inner
            if (
                isinstance(arg, ast.Call)
                and _terminal_name(arg.func) == "len"
                and len(arg.args) == 1
            ):
                inner = _terminal_name(arg.args[0])
                if self._keyish(inner):
                    return inner
            return None
        if fn in ("enumerate", "zip", "as_keys"):
            for arg in node.args:
                inner = _terminal_name(arg)
                if self._keyish(inner):
                    return inner
        return None

    def check(self, module: ModuleSource) -> Iterator[RawFinding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.For, ast.AsyncFor)):
                continue
            hit = self._iter_hits(node.iter)
            if hit is None:
                continue
            if self._target_is_array_collection(node.target):
                continue
            yield RawFinding(
                node.lineno,
                f"per-key Python loop over batch array '{hit}' in a "
                "hot-path module; vectorize it (or justify with "
                "`# repro: allow(hot-loop)`)",
            )


class AtomicWriteRule:
    """Durable writes must go through ``atomic_write_bytes``."""

    id = "atomic-write"
    title = "durable-artifact modules must not open files for writing"
    rationale = (
        "The crash-consistency sweeps (PR 3/7) assume every durable "
        "write is write-temp -> fsync -> os.replace; one bare "
        "open(..., 'w') can expose a torn payload, manifest, or bench "
        "ledger under its final name after a crash."
    )

    def applies_to(self, relpath: str) -> bool:
        if relpath.endswith("utils/io.py"):
            return False  # the one sanctioned open("wb"): the implementation
        return _repro_subdir(relpath) in DURABLE_DIRS

    def check(self, module: ModuleSource) -> Iterator[RawFinding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if not (
                isinstance(node.func, ast.Name) and node.func.id == "open"
            ):
                continue
            mode: ast.expr | None = None
            if len(node.args) >= 2:
                mode = node.args[1]
            for kw in node.keywords:
                if kw.arg == "mode":
                    mode = kw.value
            if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
                continue
            if any(ch in mode.value for ch in ("w", "a", "x", "+")):
                yield RawFinding(
                    node.lineno,
                    f"bare open(..., {mode.value!r}) in a durable-write "
                    "module; route the write through "
                    "repro.utils.io.atomic_write_bytes",
                )


class SeededRngRule:
    """All randomness flows from explicitly seeded generators."""

    id = "seeded-rng"
    title = "no global-state np.random.* or unseeded default_rng()"
    rationale = (
        "Bit-parity oracles (planned vs unplanned, lockstep vs "
        "pipelined, checkpoint resume) require byte-identical random "
        "streams; process-global or unseeded RNG state breaks them "
        "nondeterministically.  utils/rng.py is the one seeding point."
    )

    _ALLOWED_ATTRS = frozenset(
        {"Generator", "BitGenerator", "SeedSequence", "default_rng"}
    )

    def applies_to(self, relpath: str) -> bool:
        return not relpath.endswith("utils/rng.py")

    def check(self, module: ModuleSource) -> Iterator[RawFinding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Attribute):
                dotted = _dotted(node)
                if dotted is None:
                    continue
                for prefix in ("np.random.", "numpy.random."):
                    if dotted.startswith(prefix):
                        leaf = dotted.split(".")[2]
                        if leaf not in self._ALLOWED_ATTRS:
                            yield RawFinding(
                                node.lineno,
                                f"global-state RNG '{dotted}': use "
                                "repro.utils.rng.make_rng/spawn with an "
                                "explicit seed",
                            )
                        break
            elif isinstance(node, ast.Call):
                fn = _terminal_name(node.func)
                if fn != "default_rng":
                    continue
                unseeded = not node.args and not node.keywords
                if node.args and (
                    isinstance(node.args[0], ast.Constant)
                    and node.args[0].value is None
                ):
                    unseeded = True
                if unseeded:
                    yield RawFinding(
                        node.lineno,
                        "unseeded default_rng(): derive the generator "
                        "from an explicit seed (repro.utils.rng)",
                    )


class SimTimeRule:
    """Simulation code never reads the wall clock."""

    id = "sim-time"
    title = "no wall-clock reads outside the bench harness"
    rationale = (
        "Every duration in the simulator is simulated seconds charged "
        "through the cost ledger; a time.time()/datetime.now() read "
        "makes results machine-dependent and breaks the bit-exact "
        "sim-seconds parity gates.  Wall-clock instrumentation belongs "
        "to repro/bench and the benchmarks/ harness only."
    )

    _CLOCKS = frozenset(
        {
            "time.time",
            "time.time_ns",
            "time.monotonic",
            "time.monotonic_ns",
            "time.perf_counter",
            "time.perf_counter_ns",
            "time.process_time",
            "datetime.now",
            "datetime.utcnow",
            "datetime.today",
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
            "datetime.date.today",
            "date.today",
        }
    )

    def applies_to(self, relpath: str) -> bool:
        if relpath.split("/")[0] == "benchmarks":
            return False  # wall-clock measurement is the benchmarks' job
        return _repro_subdir(relpath) != "bench"

    def check(self, module: ModuleSource) -> Iterator[RawFinding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Attribute):
                continue
            dotted = _dotted(node)
            if dotted in self._CLOCKS:
                yield RawFinding(
                    node.lineno,
                    f"wall-clock read '{dotted}' in simulation code; "
                    "durations must come from the simulated cost model",
                )


class Float64HotPathRule:
    """No float64 temporaries in hot-path arithmetic."""

    id = "f64-hot-path"
    title = "hot-path modules keep value arrays float32"
    rationale = (
        "Parameter slabs and gradient buffers are float32 by design "
        "(PR 4 removed per-mini-batch float64 temporaries); an "
        "accidental astype(np.float64) doubles bandwidth and memory on "
        "the hot path.  The sanctioned exceptions — bit-exact float64 "
        "accumulation in the all-reduce and gradient-apply paths — each "
        "carry an explicit allow."
    )

    def applies_to(self, relpath: str) -> bool:
        return _repro_subdir(relpath) in HOT_PATH_DIRS

    @staticmethod
    def _is_f64(node: ast.expr) -> bool:
        dotted = _dotted(node)
        if dotted in ("np.float64", "numpy.float64", "float"):
            return True
        return isinstance(node, ast.Constant) and node.value == "float64"

    def check(self, module: ModuleSource) -> Iterator[RawFinding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "astype"
                and node.args
                and self._is_f64(node.args[0])
            ):
                yield RawFinding(
                    node.lineno,
                    "float64 temporary (astype) in hot-path arithmetic; "
                    "keep slabs float32 or justify the bit-exact "
                    "accumulation with `# repro: allow(f64-hot-path)`",
                )
                continue
            for kw in node.keywords:
                if kw.arg == "dtype" and self._is_f64(kw.value):
                    yield RawFinding(
                        node.lineno,
                        "float64 array allocation (dtype=) in a hot-path "
                        "module; keep slabs float32 or justify with "
                        "`# repro: allow(f64-hot-path)`",
                    )
                    break


class TypedFaultsRule:
    """Fault-layer failures stay typed end to end."""

    id = "typed-faults"
    title = "faults/ must not raise or catch bare Exception/RuntimeError"
    rationale = (
        "The supervisor classifies escaped failures by their FaultError "
        "scope (round / node / global) to pick the cheapest safe "
        "recovery; a bare Exception or RuntimeError raised inside the "
        "fault layer would bypass that classification, and a bare "
        "`except Exception` would swallow the typed signal before the "
        "supervisor sees it."
    )

    _BARE = frozenset({"Exception", "RuntimeError"})

    def applies_to(self, relpath: str) -> bool:
        return _repro_subdir(relpath) == "faults"

    def _bare_name(self, node: ast.expr | None) -> str | None:
        """The offending name if ``node`` denotes a bare builtin error."""
        if node is None:
            return None
        if isinstance(node, ast.Call):
            node = node.func
        name = _terminal_name(node)
        return name if name in self._BARE else None

    def check(self, module: ModuleSource) -> Iterator[RawFinding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Raise):
                hit = self._bare_name(node.exc)
                if hit is not None:
                    yield RawFinding(
                        node.lineno,
                        f"bare `raise {hit}` in fault-injection code; "
                        "raise a typed repro.faults.errors.FaultError "
                        "subclass so the supervisor can classify it",
                    )
            elif isinstance(node, ast.ExceptHandler):
                if node.type is None:
                    yield RawFinding(
                        node.lineno,
                        "bare `except:` in fault-injection code; catch "
                        "the specific FaultError type instead",
                    )
                    continue
                types = (
                    node.type.elts
                    if isinstance(node.type, ast.Tuple)
                    else [node.type]
                )
                for t in types:
                    hit = self._bare_name(t)
                    if hit is not None:
                        yield RawFinding(
                            node.lineno,
                            f"`except {hit}` in fault-injection code "
                            "swallows the typed fault signal; catch the "
                            "specific FaultError subclass",
                        )


class NoAssertRule:
    """Library invariants are typed raises, not ``assert``."""

    id = "no-assert"
    title = "src/ states invariants as explicit raises, not assert"
    rationale = (
        "`python -O` strips assert statements, so an invariant written "
        "as a bare assert silently stops being checked in optimized "
        "runs.  Library code raises a typed error (RuntimeError for a "
        "broken internal invariant, ValueError for bad input) with a "
        "message naming what diverged.  Tests keep using assert."
    )

    def applies_to(self, relpath: str) -> bool:
        return relpath.split("/")[0] == "src"

    def check(self, module: ModuleSource) -> Iterator[RawFinding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Assert):
                yield RawFinding(
                    node.lineno,
                    "bare `assert` in library code vanishes under "
                    "`python -O`; raise a RuntimeError/ValueError with "
                    "a message instead",
                )


DEFAULT_RULES = (
    HotLoopRule(),
    AtomicWriteRule(),
    SeededRngRule(),
    SimTimeRule(),
    Float64HotPathRule(),
    TypedFaultsRule(),
    NoAssertRule(),
)
