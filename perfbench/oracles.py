"""Correctness oracles, computed apart from the program.

Everything here is plain numpy over the program's *outputs* and the
world's raw posts.  Nothing is imported from ``repro.hashing`` or
``repro.core.monitor``: nearest-medoid matching, DBSCAN's defining
property, the planted-truth influence and the world digest are
recomputed from their definitions.  Each check returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import hashlib

import numpy as np

THETA = 8  # the paper's medoid-matching threshold
EPS = 8  # DBSCAN distance threshold
MIN_SAMPLES = 5  # DBSCAN density threshold, self included
COMMUNITIES = ("twitter", "reddit", "pol", "gab", "the_donald")

# Tolerances of the science checks on the benchmark's small worlds
# (see README.md, "Checks").
ATTRIBUTION_MAX_ERROR_PP = 8.0
ATTRIBUTION_MIN_EVENTS = 15
PURITY_MIN = 0.90


def hamming(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All-pairs Hamming distances between two uint64 vectors."""
    a = np.asarray(a, dtype=np.uint64).reshape(-1)
    b = np.asarray(b, dtype=np.uint64).reshape(-1)
    return np.bitwise_count(a[:, None] ^ b[None, :]).astype(np.int64)


def nearest_within(queries: np.ndarray, table: np.ndarray, theta: int = THETA):
    """Brute-force nearest table entry within ``theta`` per query.

    Returns ``(position, distance)`` arrays; ``-1`` where nothing lies
    within ``theta``.  Ties go to the smallest table position.
    """
    queries = np.asarray(queries, dtype=np.uint64).reshape(-1)
    position = np.full(queries.size, -1, dtype=np.int64)
    distance = np.full(queries.size, -1, dtype=np.int64)
    if queries.size == 0 or len(table) == 0:
        return position, distance
    step = max(1, (1 << 21) // len(table))
    for lo in range(0, queries.size, step):
        block = hamming(queries[lo : lo + step], table)
        best = np.argmin(block, axis=1)
        best_distance = block[np.arange(best.size), best]
        hit = best_distance <= theta
        position[lo : lo + step][hit] = best[hit]
        distance[lo : lo + step][hit] = best_distance[hit]
    return position, distance


def medoid_table(result) -> np.ndarray:
    """Annotated medoids in cluster-key order (the serving index)."""
    return np.array(
        [int(result.annotations[key].medoid_hash) for key in result.cluster_keys],
        dtype=np.uint64,
    )


# ----------------------------------------------------------------------
# serve: every verdict
# ----------------------------------------------------------------------


def expected_verdicts(result, hashes: np.ndarray) -> dict[int, tuple]:
    """The verdict each distinct request hash must get, as a plain tuple
    ``(matched, cluster, entry, distance, is_racist, is_politics)``."""
    unique = np.unique(np.asarray(hashes, dtype=np.uint64))
    position, distance = nearest_within(unique, medoid_table(result))
    out = {}
    for value, pos, dist in zip(unique.tolist(), position.tolist(), distance.tolist()):
        if pos < 0:
            out[value] = (False, None, None, -1, False, False)
        else:
            key = result.cluster_keys[pos]
            annotation = result.annotations[key]
            out[value] = (
                True,
                key,
                annotation.representative,
                dist,
                bool(annotation.is_racist),
                bool(annotation.is_politics),
            )
    return out


def verdict_tuple(verdict) -> tuple:
    return (
        bool(verdict.matched),
        verdict.cluster,
        verdict.entry,
        int(verdict.distance),
        bool(verdict.is_racist),
        bool(verdict.is_politics),
    )


def check_responses(responses, request_hashes, expected: dict) -> int:
    """Number of responses that are not OK or carry a wrong verdict.

    ``responses`` and ``request_hashes`` are aligned (FIFO service).
    """
    if len(responses) != len(request_hashes):
        return abs(len(responses) - len(request_hashes)) + sum(
            1 for r in responses if r.status != "ok"
        )
    bad = 0
    for response, value in zip(responses, request_hashes):
        if response.status != "ok" or response.verdict is None:
            bad += 1
        elif verdict_tuple(response.verdict) != expected[value]:
            bad += 1
    return bad


# ----------------------------------------------------------------------
# study: association, DBSCAN, science
# ----------------------------------------------------------------------


def check_association(world, result) -> list[str]:
    """Every post's match is the brute-force nearest medoid within θ."""
    hashes = np.array([int(post.phash) for post in world.posts], dtype=np.uint64)
    position, _ = nearest_within(hashes, medoid_table(result))
    matched = position >= 0
    expected_posts = [post for post, hit in zip(world.posts, matched) if hit]
    occurrences = result.occurrences
    problems = []
    if len(occurrences.posts) != len(expected_posts) or any(
        a is not b and a != b for a, b in zip(occurrences.posts, expected_posts)
    ):
        problems.append(
            f"association: {len(occurrences.posts)} matched posts, "
            f"brute force finds {len(expected_posts)}"
        )
    elif not np.array_equal(
        np.asarray(occurrences.cluster_indices, dtype=np.int64), position[matched]
    ):
        wrong = int(
            np.sum(np.asarray(occurrences.cluster_indices) != position[matched])
        )
        problems.append(f"association: {wrong} posts matched to the wrong medoid")
    return problems


def check_dbscan(world, result) -> list[str]:
    """DBSCAN's defining property on each fringe community."""
    problems = []
    for community, clustering in sorted(result.clusterings.items()):
        posts = np.array(
            [int(p.phash) for p in world.posts if p.community == community],
            dtype=np.uint64,
        )
        unique, counts = np.unique(posts, return_counts=True)
        if not (
            np.array_equal(unique, clustering.unique_hashes)
            and np.array_equal(counts, clustering.counts)
        ):
            problems.append(f"dbscan[{community}]: input multiset differs")
            continue
        labels = np.asarray(clustering.result.labels, dtype=np.int64)
        problems += dbscan_property(community, unique, counts, labels)
        for cluster_id, medoid in clustering.medoids.items():
            members = unique[labels == cluster_id]
            if int(medoid) not in set(members.tolist()):
                problems.append(
                    f"dbscan[{community}]: medoid of cluster {cluster_id} "
                    "is not a member"
                )
    return problems


def dbscan_property(community, unique, counts, labels) -> list[str]:
    within = hamming(unique, unique) <= EPS
    core = within.astype(np.int64) @ np.asarray(counts, dtype=np.int64) >= MIN_SAMPLES
    problems = []
    noise = labels < 0
    if np.any(core & noise):
        problems.append(f"dbscan[{community}]: a core hash is labelled noise")
    core_within = within & core[None, :]
    same = labels[:, None] == labels[None, :]
    clustered = ~noise
    reach_own = np.any(core_within & same, axis=1)
    if np.any(clustered & ~reach_own):
        problems.append(
            f"dbscan[{community}]: a clustered hash is not within eps of a "
            "core hash of its cluster"
        )
    if np.any(noise & np.any(core_within, axis=1)):
        problems.append(f"dbscan[{community}]: a noise hash is within eps of a core hash")
    linked = within & core[:, None] & core[None, :]
    if np.any(linked & ~same):
        problems.append(f"dbscan[{community}]: density-connected cores split")
    return problems


def truth_percent(world) -> tuple[np.ndarray, np.ndarray]:
    """Planted root-cause influence, percent of each destination's events."""
    index = {name: k for k, name in enumerate(COMMUNITIES)}
    expected = np.zeros((5, 5))
    for post in world.posts:
        if post.root_community is not None:
            expected[index[post.root_community], index[post.community]] += 1.0
    counts = expected.sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        percent = np.where(counts > 0, 100.0 * expected / counts, 0.0)
    return percent, counts


def attribution_error(world, study) -> float:
    """Mean |estimate - truth| in percentage points over well-fed columns."""
    truth, truth_counts = truth_percent(world)
    total = study.total
    counts = np.asarray(total.event_counts, dtype=float)
    expected = np.asarray(total.expected_events, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        estimate = np.where(counts > 0, 100.0 * expected / counts, 0.0)
    columns = (truth_counts >= ATTRIBUTION_MIN_EVENTS) & (
        counts >= ATTRIBUTION_MIN_EVENTS
    )
    if not np.any(columns):
        return 0.0
    return float(np.mean(np.abs(estimate[:, columns] - truth[:, columns])))


def cluster_purity(world, result) -> float:
    """Image-weighted majority purity of every fringe cluster."""
    sources = world.ground_truth_sources()
    agree = 0
    total = 0
    for clustering in result.clusterings.values():
        labels = np.asarray(clustering.result.labels)
        for cluster_id in np.unique(labels[labels >= 0]):
            members = np.flatnonzero(labels == cluster_id)
            weight: dict[str, int] = {}
            for i in members:
                source = sources.get(int(clustering.unique_hashes[i]), "non-meme")
                weight[source] = weight.get(source, 0) + int(clustering.counts[i])
            agree += max(weight.values())
            total += sum(weight.values())
    return agree / total if total else 1.0


def check_science(world, result, study) -> list[str]:
    problems = []
    error = attribution_error(world, study)
    if error > ATTRIBUTION_MAX_ERROR_PP:
        problems.append(f"attribution error {error:.2f}pp > {ATTRIBUTION_MAX_ERROR_PP}pp")
    purity = cluster_purity(world, result)
    if purity < PURITY_MIN:
        problems.append(f"cluster purity {purity:.3f} < {PURITY_MIN}")
    if study.failures:
        problems.append(f"{len(study.failures)} Hawkes fits failed")
    return problems


# ----------------------------------------------------------------------
# study: the recorded world digest
# ----------------------------------------------------------------------


def world_digest(world) -> str:
    """sha256 over post timestamps, communities and hashes, and every KYM
    gallery hash (the copy-based check of generation)."""
    digest = hashlib.sha256()
    digest.update(np.array([p.timestamp for p in world.posts], dtype=np.float64).tobytes())
    digest.update("\n".join(p.community for p in world.posts).encode())
    digest.update(np.array([int(p.phash) for p in world.posts], dtype=np.uint64).tobytes())
    for entry in world.kym_site:
        digest.update(entry.name.encode())
        digest.update(
            np.array([int(g.phash) for g in entry.gallery], dtype=np.uint64).tobytes()
        )
    return digest.hexdigest()


# ----------------------------------------------------------------------
# ingest: streamed state against the cold batch run
# ----------------------------------------------------------------------


def check_states_equal(streamed, batch) -> list[str]:
    """Field-by-field equality of two pipeline states."""
    problems = []
    if sorted(streamed.clusterings) != sorted(batch.clusterings):
        return ["state: communities differ"]
    for community in batch.clusterings:
        x, y = streamed.clusterings[community], batch.clusterings[community]
        for field in ("unique_hashes", "counts"):
            if not np.array_equal(getattr(x, field), getattr(y, field)):
                problems.append(f"state[{community}]: {field} differ")
        if not np.array_equal(x.result.labels, y.result.labels):
            problems.append(f"state[{community}]: labels differ")
        if {int(k): int(v) for k, v in x.medoids.items()} != {
            int(k): int(v) for k, v in y.medoids.items()
        }:
            problems.append(f"state[{community}]: medoids differ")
    if list(streamed.cluster_keys) != list(batch.cluster_keys):
        problems.append("state: cluster keys differ")
    elif any(
        (int(streamed.annotations[k].medoid_hash), streamed.annotations[k].representative)
        != (int(batch.annotations[k].medoid_hash), batch.annotations[k].representative)
        for k in batch.cluster_keys
    ):
        problems.append("state: annotations differ")
    a, b = streamed.occurrences, batch.occurrences
    if len(a.posts) != len(b.posts) or a.posts != b.posts:
        problems.append(
            f"state: {len(a.posts)} streamed occurrences vs {len(b.posts)} batch"
        )
    elif not (
        np.array_equal(a.cluster_indices, b.cluster_indices)
        and list(a.entry_names) == list(b.entry_names)
    ):
        problems.append("state: occurrence clusters differ")
    return problems
