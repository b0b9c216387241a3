"""Content-addressed result cache persisted as JSON under ``.repro_cache/``.

Each cached cell is one file named ``<sha256>.json`` holding the unit
name, its canonical params, the code version, the result payload and a
content checksum.  Keys come from :func:`repro.runner.units.unit_key`;
because the key covers (config fields, trace seed, code version),
invalidation is automatic — a stale key is simply never looked up
again and the file becomes garbage that ``clear()`` or deleting the
directory reclaims.

Writes are atomic (tmp file + ``os.replace``) so parallel workers and
concurrent runs never observe a torn cell.  Reads verify the checksum
(a SHA-256 over the rest of the payload); a cell that is unreadable,
unparsable or checksum-mismatched counts as a miss and is moved to
``.repro_cache/quarantine/`` for post-mortem rather than silently
feeding a corrupt result into an experiment table
(docs/ROBUSTNESS.md).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path
from typing import Any, Optional

from .units import WorkUnit, canonical, code_version

DEFAULT_CACHE_DIR = ".repro_cache"

#: Subdirectory (under the cache root) holding quarantined cells.
QUARANTINE_DIR = "quarantine"


def payload_checksum(payload: dict) -> str:
    """Checksum over a cell payload, excluding the checksum field itself."""
    body = {key: value for key, value in payload.items()
            if key != "checksum"}
    return hashlib.sha256(
        json.dumps(body, sort_keys=True).encode()).hexdigest()


class ResultCache:
    """JSON file store mapping unit keys to experiment cell results."""

    def __init__(self, root: str | Path = DEFAULT_CACHE_DIR) -> None:
        self.root = Path(root)
        self.quarantined = 0        # cells quarantined by this instance

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: str) -> Optional[Any]:
        """Return the cached result for ``key``, or None on miss.

        A cell that exists but is unreadable, unparsable, shaped wrong
        or checksum-mismatched is quarantined and counts as a miss;
        the next ``put`` writes a fresh cell.
        """
        path = self._path(key)
        try:
            text = path.read_text()
        except FileNotFoundError:
            return None
        except OSError:
            self._quarantine(path)
            return None
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            self._quarantine(path)
            return None
        if (not isinstance(payload, dict) or "result" not in payload
                or payload.get("checksum") != payload_checksum(payload)):
            self._quarantine(path)
            return None
        return payload["result"]

    def put(self, key: str, unit: WorkUnit, result: Any) -> None:
        """Persist ``result`` for ``key`` atomically."""
        self.root.mkdir(parents=True, exist_ok=True)
        payload = {
            "key": key,
            "unit": unit.fn.__name__,
            "experiment": unit.experiment,
            "label": unit.label,
            "params": canonical(dict(unit.params)),
            "code_version": code_version(),
            "created": time.time(),
            "result": result,
        }
        payload["checksum"] = payload_checksum(payload)
        path = self._path(key)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(payload, sort_keys=True))
        os.replace(tmp, path)

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt cell aside so it cannot serve future lookups."""
        target = self.root / QUARANTINE_DIR / path.name
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
        except OSError:
            # The cell may be gone already (concurrent runner) or the
            # filesystem read-only; either way it will not be served.
            return
        self.quarantined += 1

    def clear(self) -> int:
        """Delete every cached cell; returns the number removed."""
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob("*.json"):
                path.unlink(missing_ok=True)
                removed += 1
        return removed

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.json"))
