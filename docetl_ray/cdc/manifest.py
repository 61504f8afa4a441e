"""The one commit protocol of the CDC stores (``LakeTable``,
``DedupIndex``): an optimistic, version-checked log commit, the kind
Delta Lake builds its table format on.

A store's state is ``root/manifest.json``: a ``generation`` that every
commit bumps, and tag logs (``epochs``, ``compactions``, ``resplits``)
naming what is committed.  ``commit`` applies a store's ``change(m)``
to the manifest on disk, under an exclusive ``flock`` on
``root/manifest.lock``:

1. re-read the manifest;
2. a tag already in its log returns it unchanged: nothing is written
   and ``generation`` does not move (idempotent replay);
3. a ``generation`` other than the one the caller read raises
   ``StaleManifest`` and writes nothing: writing back a manifest read
   before another commit landed would silently drop that commit;
4. fsync the directories the new records point into and those above
   them, write ``manifest.json.tmp``, fsync it, ``os.replace`` it and
   fsync ``root``.

The tasks that stage data files fsync each before its rename, so the
new manifest names only files on disk.  A crash before the rename
leaves the previous manifest live (the next commit overwrites a leftover
``.tmp``).  Readers take no lock: the rename is atomic.
"""

from __future__ import annotations

import fcntl
import json
import os
import uuid
from typing import Any, Callable, Iterable

MANIFEST = "manifest.json"


class StaleManifest(RuntimeError):
    """Another commit landed after this handle read the manifest: re-read
    and re-run the unit of work."""


def fsync_path(path: str) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _ancestors(d: str):
    """``d`` and each directory above it, below the root."""
    while d:
        yield d
        d = os.path.dirname(d)


def run_dir(prefix: str) -> str:
    """``prefix/<run id>``, a new run id per call: one run's staging
    directory, so a stale run of a committed epoch or tag writes beside
    the committed files, never over them (its commit is step 2's no-op)."""
    return os.path.join(prefix, uuid.uuid4().hex[:16])


def load(root: str) -> dict[str, Any] | None:
    """The committed manifest under ``root``; None before the first commit."""
    try:
        with open(os.path.join(root, MANIFEST)) as f:
            return json.load(f)
    except FileNotFoundError:
        return None


def commit(root: str, seen: dict, log: str, tag, change: Callable[[dict], None],
           dirs: Iterable[str]) -> dict[str, Any]:
    """Commit ``change`` (it edits a manifest in place) as ``tag`` of
    ``log``, against ``seen``, the manifest the caller read; ``dirs``
    (relative to ``root``) hold the new records' files.  Returns the
    manifest now committed."""
    os.makedirs(root, exist_ok=True)
    with open(os.path.join(root, "manifest.lock"), "a") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # released when the file closes
        m = load(root)
        if m is None:  # the first commit starts from the store's empty manifest
            m = json.loads(json.dumps(seen)) if not seen.get("generation") else {}
        if tag in m.get(log, []):
            return m
        if m.get("generation", 0) != seen.get("generation", 0):
            raise StaleManifest(f"{root}: manifest at generation {m.get('generation', 0)}, "
                                f"read at {seen.get('generation', 0)}")
        change(m)
        m[log] = m.get(log, []) + [tag]
        if log == "epochs":
            m[log].sort()  # WAL positions, whatever order they land in
        m["generation"] = m.get("generation", 0) + 1
        # each directory, then its entry in its parent, up to the root
        # (a run directory is new, and so may be its epoch's or tag's)
        for d in sorted({p for d in dirs for p in _ancestors(d)}, reverse=True):
            fsync_path(os.path.join(root, d))
        path = os.path.join(root, MANIFEST)
        with open(path + ".tmp", "w") as f:
            json.dump(m, f, indent=1, sort_keys=True)
            f.flush()
            os.fsync(f.fileno())
        os.replace(path + ".tmp", path)
        fsync_path(root)
    return m


class Store:
    """What ``LakeTable`` and ``DedupIndex`` share: a manifest cached per
    handle, loaded through the store's open-time check (``_opened``),
    and commits through ``commit`` against it."""

    root: str
    _manifest: dict[str, Any] | None

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.root, MANIFEST)

    def manifest(self, *, refresh: bool = False) -> dict[str, Any]:
        if self._manifest is None or refresh:
            self._manifest = self._opened(load(self.root) or self._empty())
        return self._manifest

    def _commit(self, log: str, tag, change, dirs: Iterable[str]) -> dict[str, Any]:
        self._manifest = self._opened(commit(self.root, self.manifest(), log, tag, change, dirs))
        return self._manifest
