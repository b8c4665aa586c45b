"""Record the world digest of every workload into digests.json.

World generation has no specification apart from its code, so every
study checks its generated world against the digest
recorded here (post timestamps, communities and hashes, KYM gallery
hashes).  Re-record only after a change that is meant to alter
generation's output:

    python3 perfbench/record_digests.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run  # noqa: F401  (fixes the thread budget before numpy loads)

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import oracles  # noqa: E402
from workloads import WORLDS, world_config  # noqa: E402

from repro.communities import SyntheticWorld  # noqa: E402


def main() -> int:
    worlds = {}
    for name in WORLDS:
        world = SyntheticWorld.generate(world_config(name))
        worlds[name] = oracles.world_digest(world)
        print(f"{name}: {len(world.posts)} posts  {worlds[name]}")
    record = {
        "world_configs": {name: f"WorldConfig(**{kw})" for name, kw in WORLDS.items()},
        "command": "python3 perfbench/record_digests.py",
        "worlds": worlds,
    }
    (HERE / "digests.json").write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
