"""Per-component content hashes of the code a verdict depends on.

The persistent :class:`~repro.engine.store.ResultStore` used to be
invalidated by one monolithic code-version salt: any bump (or any model
edit, since the salt was all-or-nothing) cold-invalidated every verdict
and snapshot in the store.  This module makes invalidation *surgical*
by splitting the code version into per-component content hashes:

* ``bdd`` — the BDD kernel (``src/repro/bdd/``): node representation,
  ITE core, GC, snapshots.
* ``relational`` — the relational subsystem (``src/repro/relational/``):
  beta-relation extraction, the relational product and image
  computation, snapshot (de)serialisation.
* ``verifier`` — the verdict path itself: the executor, the core
  verification/observation/report modules, the filtering-string and
  logic layers, and the ISA definitions.
* ``model:vsm`` / ``model:alpha0`` / ``model:interrupts`` /
  ``model:superscalar`` / ``model:scoreboard`` — each architecture's
  symbolic (or concrete) processor models under ``src/repro/processors/``;
  the VSM and Alpha0 entries also cover their ISA module, whose
  instruction-bit order shapes the extracted relations.

A component hash is a SHA-256 over the *source text* of the component's
module files, so it changes exactly when the code changes — no manual
salt bump needed.  :meth:`~repro.engine.scenario.Scenario.dependencies`
names the components a scenario's verdict depends on; the store records
the resulting ``{component: hash}`` dependency vector in every record
envelope and refuses a record only when one of *its own* components
changed.  A record therefore stays valid when an unrelated component
changed — the ~90% of scenarios whose inputs didn't change keep their
warm-store latency after a one-model edit.

Safety contract: the component map must be *conservative* — every
module whose behaviour can influence verdict bytes must be covered by
at least one component, and every scenario must depend on every
component that can influence its verdict.  Over-approximating a
dependency costs a recompute; under-approximating could serve a stale
verdict, which the store's rule ("stale degrades to recompute, never a
wrong verdict") forbids.  Engine-level record-format changes are still
covered by :data:`~repro.engine.store.STORE_VERSION` and
:data:`~repro.engine.store.CODE_SALT`.

Hashes are computed lazily from the files on disk and cached per
``(mtime_ns, size)`` stat signature, so an on-disk edit is picked up by
the next store handle without restarting the process (the running
module objects are of course unaffected — which is exactly why a
refused record can always be recomputed to byte-identical verdicts
until the process reloads).
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

#: Root of the ``repro`` package (component paths below are relative to it).
PACKAGE_ROOT = Path(__file__).resolve().parent.parent

#: Component name -> package-relative module files / directories.
#: Directories are expanded to their sorted ``*.py`` files (one level).
COMPONENTS: Dict[str, Tuple[str, ...]] = {
    "bdd": ("bdd",),
    "relational": ("relational",),
    "verifier": (
        "engine/executor.py",
        "core",
        "strings",
        "logic",
        "isa",
    ),
    "model:vsm": (
        "processors/state.py",
        "processors/symbolic.py",
        "processors/sym_vsm.py",
        "processors/vsm_pipelined.py",
        "processors/vsm_unpipelined.py",
        "isa/vsm.py",
    ),
    "model:alpha0": (
        "processors/state.py",
        "processors/symbolic.py",
        "processors/sym_alpha0.py",
        "processors/alpha0_pipelined.py",
        "processors/alpha0_unpipelined.py",
        "isa/alpha0.py",
    ),
    "model:interrupts": ("processors/interrupts.py",),
    "model:superscalar": ("processors/superscalar.py",),
    "model:scoreboard": ("processors/scoreboard.py",),
}

#: The architecture-model components (every ``model:*`` entry).
MODEL_COMPONENTS: Tuple[str, ...] = tuple(
    name for name in COMPONENTS if name.startswith("model:")
)

#: Test hook: extra content folded into a component's hash, simulating a
#: source edit without touching the working tree.  Keyed by component
#: name; install/remove via :func:`set_override` / :func:`clear_overrides`.
_OVERRIDES: Dict[str, str] = {}

#: Per-file digest cache: path -> ((mtime_ns, size), sha256 hex).
_FILE_DIGESTS: Dict[str, Tuple[Tuple[int, int], str]] = {}


def set_override(component: str, token: str) -> None:
    """Fold ``token`` into ``component``'s hash (tests: simulate an edit)."""
    if component not in COMPONENTS:
        raise KeyError(f"unknown component {component!r}; valid: {sorted(COMPONENTS)}")
    _OVERRIDES[component] = token


def clear_overrides() -> None:
    """Remove every test override installed via :func:`set_override`."""
    _OVERRIDES.clear()


def component_files(component: str) -> List[Path]:
    """The module files whose source text makes up ``component``'s hash."""
    try:
        entries = COMPONENTS[component]
    except KeyError:
        raise KeyError(
            f"unknown component {component!r}; valid: {sorted(COMPONENTS)}"
        ) from None
    files: List[Path] = []
    for entry in entries:
        path = PACKAGE_ROOT / entry
        if path.is_dir():
            files.extend(sorted(path.glob("*.py")))
        else:
            files.append(path)
    return files


def _file_digest(path: Path) -> str:
    """SHA-256 of one file's bytes, cached by its stat signature.

    A missing file hashes to a distinct marker instead of raising: the
    store must keep *working* (as a cold store) even when the source
    tree is partially absent — a wrong hash only ever costs a recompute.
    """
    key = str(path)
    try:
        stat = path.stat()
    except OSError:
        return "missing"
    signature = (stat.st_mtime_ns, stat.st_size)
    cached = _FILE_DIGESTS.get(key)
    if cached is not None and cached[0] == signature:
        return cached[1]
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    _FILE_DIGESTS[key] = (signature, digest)
    return digest


def component_hash(component: str) -> str:
    """SHA-256 hex content hash of one component's source text."""
    hasher = hashlib.sha256()
    for path in component_files(component):
        relative = path.relative_to(PACKAGE_ROOT).as_posix()
        hasher.update(f"{relative}\x00{_file_digest(path)}\n".encode("utf-8"))
    override = _OVERRIDES.get(component)
    if override is not None:
        hasher.update(f"override\x00{override}\n".encode("utf-8"))
    return hasher.hexdigest()


def component_vector(components: Iterable[str]) -> Dict[str, str]:
    """The ``{component: hash}`` dependency vector for ``components``.

    Sorted by component name so the vector has one canonical JSON form
    (record envelopes embed it; envelope comparison is dict equality,
    but a deterministic order keeps the stored bytes reproducible).
    """
    return {name: component_hash(name) for name in sorted(set(components))}


def components_for_architecture(architecture) -> Tuple[str, ...]:
    """The components a beta-relation *snapshot* for ``architecture`` depends on.

    An extracted relation is a pure function of the BDD kernel, the
    extraction protocol (the relational subsystem) and the architecture's
    symbolic models — not of the verifier core, which only consumes it.
    Unknown (custom) architectures conservatively depend on every model
    component: over-approximation costs a re-extraction, never a wrong
    relation.
    """
    from ..core.architectures import Alpha0Architecture, VSMArchitecture

    if isinstance(architecture, VSMArchitecture):
        model: Tuple[str, ...] = ("model:vsm",)
    elif isinstance(architecture, Alpha0Architecture):
        model = ("model:alpha0",)
    else:
        model = MODEL_COMPONENTS
    return ("bdd", "relational") + model
