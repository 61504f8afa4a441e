"""Testing utilities (importable by Ray worker processes — test modules
themselves are not on the workers' import path)."""

from __future__ import annotations

import os

import pyarrow as pa

from .cdc.apply import _ApplyPartition


class PoisonedApplier(_ApplyPartition):
    """Fault-injection applier: raises on the FIRST attempt for every
    partition (marker files track attempts across task processes), so
    Ray's task retry path gets exercised end-to-end."""

    def __init__(self, ref, root, epoch, mode="merge", poison_dir=None):
        super().__init__(ref, root, epoch, mode)
        self.poison_dir = poison_dir

    def __call__(self, group: pa.Table) -> list[dict]:
        if group.num_rows == 0:
            return super().__call__(group)
        pid = int(group["part"][0].as_py())
        marker = os.path.join(self.poison_dir, f"pid-{pid}")
        if not os.path.exists(marker):
            open(marker, "w").close()
            raise RuntimeError(f"injected failure for partition {pid}")
        return super().__call__(group)
