"""Self-tests of the benchmark's checks: each must pass on the program's
real output and fail on a deliberately corrupted copy of it.

    python3 perfbench/selftest.py

Exits 0 when every check behaves, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
from pathlib import Path

import run  # noqa: F401  (fixes the thread budget before numpy loads)

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import oracles  # noqa: E402
from workloads import world_config  # noqa: E402

from repro.communities import SyntheticWorld  # noqa: E402
from repro.core import run_pipeline  # noqa: E402
from repro.service import MemeMatchService  # noqa: E402
from repro.stream import StreamConfig, StreamIngester  # noqa: E402

FAILURES: list[str] = []


def expect(name: str, clean_ok: bool, corrupt_caught: bool) -> None:
    status = "ok" if clean_ok and corrupt_caught else "FAIL"
    print(f"{status:4s} {name}: clean output passes={clean_ok}, corruption caught={corrupt_caught}")
    if status != "ok":
        FAILURES.append(name)


def drop_occurrence(result, index: int):
    occ = result.occurrences
    keep = np.ones(len(occ.posts), dtype=bool)
    keep[index] = False
    dropped = dataclasses.replace(
        occ,
        posts=[p for p, k in zip(occ.posts, keep) if k],
        cluster_indices=occ.cluster_indices[keep],
        entry_names=[e for e, k in zip(occ.entry_names, keep) if k],
        is_racist=occ.is_racist[keep],
        is_politics=occ.is_politics[keep],
    )
    return dataclasses.replace(result, occurrences=dropped)


def main() -> int:
    name = "noise"
    world = SyntheticWorld.generate(world_config(name))
    result = run_pipeline(world)

    # serve: one flipped verdict.
    hashes = [int(p.phash) for p in world.posts[:500]] + [12345, 2**64 - 1]
    expected = oracles.expected_verdicts(result, np.array(hashes, dtype=np.uint64))
    service = MemeMatchService(result)
    responses = service.serve(hashes)
    clean = oracles.check_responses(responses, hashes, expected) == 0
    flip = next(i for i, r in enumerate(responses) if r.verdict.matched)
    verdict = responses[flip].verdict
    corrupted = list(responses)
    corrupted[flip] = dataclasses.replace(
        responses[flip],
        verdict=dataclasses.replace(verdict, matched=False, cluster=None, entry=None),
    )
    expect(
        "serve verdicts (one flipped verdict)",
        clean,
        oracles.check_responses(corrupted, hashes, expected) == 1,
    )

    # study: one association moved to another medoid.
    clean = not oracles.check_association(world, result)
    occ = result.occurrences
    moved = occ.cluster_indices.copy()
    moved[0] = (moved[0] + 1) % len(result.cluster_keys)
    bad = dataclasses.replace(result, occurrences=dataclasses.replace(occ, cluster_indices=moved))
    expect("study association (one post re-associated)", clean, bool(oracles.check_association(world, bad)))

    # study: one cluster label moved.
    clean = not oracles.check_dbscan(world, result)
    community, clustering = max(
        result.clusterings.items(), key=lambda item: item[1].result.n_clusters
    )
    labels = clustering.result.labels.copy()
    point = int(np.flatnonzero(labels >= 0)[0])
    n_clusters = clustering.result.n_clusters
    labels[point] = (labels[point] + 1) % n_clusters if n_clusters > 1 else -1
    caught = bool(
        oracles.dbscan_property(community, clustering.unique_hashes, clustering.counts, labels)
    )
    expect("study DBSCAN property (one cluster label moved)", clean, caught)

    # study: one changed post hash against the recorded digest.
    recorded = json.loads((HERE / "digests.json").read_text())["worlds"][name]
    clean = oracles.world_digest(world) == recorded
    post = world.posts[len(world.posts) // 2]
    world.posts[len(world.posts) // 2] = dataclasses.replace(
        post, phash=np.uint64(int(post.phash) ^ 1)
    )
    expect("study world digest (one post hash changed)", clean, oracles.world_digest(world) != recorded)
    world.posts[len(world.posts) // 2] = post

    # ingest: one event dropped from the streamed state.
    wal_dir = HERE / ".work" / "selftest-wal"
    shutil.rmtree(wal_dir, ignore_errors=True)
    source = world.event_source()
    with StreamIngester(world, stream=StreamConfig(wal_dir=wal_dir)) as ingester:
        while ingester.n_events < source.n_events:
            ingester.ingest(source.read(ingester.n_events, 400))
        ingester.compact(force=True)
        streamed = ingester.result()
    shutil.rmtree(wal_dir, ignore_errors=True)
    clean = not oracles.check_states_equal(streamed, result)
    caught = bool(oracles.check_states_equal(drop_occurrence(streamed, 0), result))
    expect("ingest state (one event dropped)", clean, caught)

    print("all checks behave" if not FAILURES else f"{len(FAILURES)} checks misbehave")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
