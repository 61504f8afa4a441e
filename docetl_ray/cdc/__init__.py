"""CDC / incremental-ingest core: WAL tail -> keyed LWW upsert ->
exactly-once partitioned Parquet lake table with manifest checkpoints."""

from .manifest import StaleManifest  # noqa: F401
from .table import LakeTable  # noqa: F401
from .apply import apply_events, compact, read_state, resplit  # noqa: F401
from .replay import replay_oracle  # noqa: F401
from .tail import tail, tail_once, write_segment, discover_segments  # noqa: F401
from .dedup_index import (  # noqa: F401
    DedupIndex,
    incremental_exact_dedup,
    incremental_minhash_dedup,
)
