"""The two workloads, ``noise`` and ``memes``, and the operations they run.

Both workloads run the same rounds of operations on one world each; they
differ only in the world's make-up (see README.md).  One round is:

* one study: ``SyntheticWorld.generate`` -> cold ``run_pipeline`` ->
  ``influence_study``;
* ``ROUND_PASSES`` times: one durable ingest pass over the world's event
  stream, then one serving round (a per-request closed loop, a coalesced
  closed loop and an open loop at a fixed offered rate).

:class:`Workload` has ``setup_times()`` (the set-up, repeated and timed
as ``setup_s``) and ``run(seconds)``, which performs whole rounds until
the measuring time is used up.  Every operation's outputs are checked by
:mod:`oracles`; an operation whose check fails counts as failed.  In
traced mode every other round runs under the :class:`tracer.Tracer`
hooks, so the per-layer figures and the traced-vs-untraced overhead come
from the same run.  End-to-end figures always come from untraced rounds.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from pathlib import Path
from statistics import median

import numpy as np

import oracles
from tracer import Hook, Tracer

# Called through its package so the tracer's replacement is seen.
import repro.analysis as analysis
from repro.communities import SyntheticWorld, WorldConfig
from repro.core import RunnerOptions, run_pipeline
from repro.service import MemeMatchService, ServiceConfig
from repro.stream import StreamConfig, StreamIngester, state_equals
from repro.utils.parallel import ParallelConfig

SETUP_REPEATS = 3

# One world per workload, ~2,060 posts each (see README.md).
#   noise: the default noise scale, so two thirds of posts are one-off
#          images, inside the paper's 63-69% DBSCAN noise band;
#   memes: a quarter of the noise, so most posts are meme images.
WORLDS = {
    "noise": dict(seed=7, events_unit=8.0),
    "memes": dict(seed=7, events_unit=16.0, noise_scale=0.25),
}

ROUND_PASSES = 3  # ingest passes and serving rounds per round

# ingest: one burst pattern per pass of a round, in an order rotated by
# --seed.  Pattern k draws each burst size uniformly from INGEST_BURST
# with rng([INGEST_PATTERN_SEED, k]).
INGEST_BURST = (150, 300)  # events per ingest() call
INGEST_PATTERN_SEED = 20181031

SERVE_PER_REQUEST = 2000  # requests per serving round, per-request closed loop
SERVE_COALESCED = 8192  # requests per serving round, coalesced closed loop
SERVE_WINDOW = 64
SERVE_BURST = 512  # submit_many burst (the admission queue holds 1024)
SERVE_OPEN_RATE = 4000.0  # offered requests/s of the open loop
SERVE_OPEN_REQUESTS = 1000  # requests per serving round, open loop (0.25 s)


def world_config(workload: str) -> WorldConfig:
    return WorldConfig(**WORLDS[workload])


def _pq(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


# ----------------------------------------------------------------------
# Hooks: the public functions the traced mode wraps
# ----------------------------------------------------------------------

_STUDY_HOOKS = [
    Hook("communities.generate", "repro.communities.world:SyntheticWorld.generate"),
    Hook("images.render", "repro.annotation.kym:random_one_off_image"),
    Hook("images.render", "repro.images.transforms:random_variant"),
    Hook("images.render", "repro.images.templates:MemeTemplate.render"),
    Hook("images.render", "repro.images.screenshots:render_screenshot"),
    Hook("hashing.phash", "repro.hashing.phash:phash"),
    Hook("annotation.kym", "repro.annotation.kym:KYMSite.synthesize"),
    Hook(
        "hawkes.simulate",
        "repro.hawkes.simulate:simulate_branching",
        count=lambda a, k, r, b: len(r.sequence),
    ),
    Hook("analysis.influence", "repro.analysis.influence:influence_study"),
    Hook("utils.parallel.fanout", "repro.utils.parallel:Executor.supervised_starmap"),
    Hook("core.runner", "repro.core.runner:PipelineRunner.run"),
    Hook("hashing.radius", "repro.hashing.pairwise:radius_neighbors"),
]

# Steps 2-6 and the Hawkes fit: called by the study and by compaction.
_ANALYSIS_HOOKS = [
    Hook("clustering.dbscan", "repro.clustering.dbscan:dbscan"),
    Hook("clustering.dbscan", "repro.clustering.dbscan:dbscan_from_neighbors"),
    Hook("clustering.medoids", "repro.clustering.medoid:medoids_by_cluster"),
    Hook("annotation.annotate", "repro.annotation.matcher:annotate_clusters"),
    Hook(
        "annotation.associate",
        "repro.annotation.association:associate_hashes",
        count=lambda a, k, r, b: len(a[0]),
    ),
    Hook("hawkes.fit", "repro.hawkes.fit:fit_hawkes_em"),
]


def _wal_bytes_before(args, kwargs):
    return args[0].total_bytes


def _wal_bytes(args, kwargs, result, before):
    return args[0].total_bytes - before


def _checkpoint_bytes(args, kwargs, result, before):
    return os.path.getsize(args[0])


_INGEST_HOOKS = [
    Hook("stream.ingest", "repro.stream.ingester:StreamIngester.ingest"),
    Hook(
        "stream.compact",
        "repro.stream.ingester:StreamIngester.compact",
        count=lambda a, k, r, b: 1 if r else 0,
    ),
    Hook(
        "stream.recover",
        "repro.stream.ingester:StreamIngester.__init__",
        count=lambda a, k, r, b: a[0].report.replayed_events,
    ),
    Hook("hashing.mih_query", "repro.hashing.index:MultiIndexHash.query"),
    # append() is a group of one through append_many(): hook the latter only.
    Hook(
        "stream.wal_append",
        "repro.stream.wal:WriteAheadLog.append_many",
        count=_wal_bytes,
        before=_wal_bytes_before,
    ),
    Hook("utils.io.checkpoint", "repro.utils.io:save_checkpoint", count=_checkpoint_bytes),
]

_SERVE_HOOKS = [
    Hook("service.submit", "repro.service.service:MemeMatchService.submit"),
    Hook("service.submit", "repro.service.service:MemeMatchService.submit_many"),
    Hook("service.admission", "repro.service.admission:AdmissionQueue.offer"),
    Hook("service.admission", "repro.service.admission:AdmissionQueue.offer_many"),
    Hook("service.drain", "repro.service.service:MemeMatchService.drain"),
    Hook(
        "core.monitor.classify",
        "repro.core.monitor:MemeMonitor.classify_hash",
        count=lambda a, k, r, b: 1,
    ),
    Hook(
        "core.monitor.classify",
        "repro.core.monitor:MemeMonitor.classify_batch",
        count=lambda a, k, r, b: len(a[1]),
    ),
]

HOOKS = _STUDY_HOOKS + _ANALYSIS_HOOKS + _INGEST_HOOKS + _SERVE_HOOKS
FSYNC_MODULES = ("repro.stream.wal", "repro.utils.io")


def _row(table, name, field):
    return table.get(name, {}).get(field, 0.0)


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------


class Workload:
    def __init__(self, name: str, seed: int, work_dir: Path, tracer: Tracer | None):
        self.name = name
        self.seed = int(seed)
        self.work_dir = work_dir
        self.tracer = tracer
        self.config = world_config(name)
        record = json.loads((Path(__file__).parent / "digests.json").read_text())
        self.recorded_digest = record["worlds"][name]
        self.parallel = ParallelConfig(workers=min(2, len(os.sched_getaffinity(0))))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setup_ok = True
        self.rounds: list[tuple[bool, float]] = []  # (traced, busy time)
        self.notes: dict = {}  # input make-up, printed with the run
        self.uncovered: list[float] = []
        # End-to-end samples, from untraced rounds only.
        self.study_s: list[float] = []
        self.analysis_s: list[float] = []
        self.ingest_rate: list[float] = []
        self.compaction_s: list[float] = []
        self.recovery_s: list[float] = []
        self.rps: list[float] = []
        self.coalesced_rps: list[float] = []
        self.open_latency: list[np.ndarray] = []
        self.generator_late: list[np.ndarray] = []
        # Per-layer samples, from traced rounds only.
        self.service_latency: list[np.ndarray] = []
        self.buffer_peak = 0
        self.shed = 0

    # ------------------------------------------------------------------
    # Set-up
    # ------------------------------------------------------------------

    def setup(self) -> None:
        self.world = SyntheticWorld.generate(self.config)
        self.reference = run_pipeline(self.world)
        self.per_request = MemeMatchService(self.reference)
        self.coalesced = MemeMatchService(
            self.reference, config=ServiceConfig(coalesce_window=SERVE_WINDOW)
        )

    def setup_times(self) -> list[float]:
        """Set up from scratch ``SETUP_REPEATS`` times (the last one is
        kept); each set-up must generate the same world."""
        times = []
        digests = set()
        for _ in range(SETUP_REPEATS):
            self.world = None
            start = time.perf_counter()
            self.setup()
            times.append(time.perf_counter() - start)
            digests.add(oracles.world_digest(self.world))
        if len(digests) != 1:
            self.setup_ok = False
            self.problems.append("set-up generated different worlds from one seed")
        self.prepare()
        return times

    def prepare(self) -> None:
        posts = self.world.posts
        noise = sum(1 for post in posts if post.image_id.startswith("noise/"))
        memes = sum(1 for post in posts if post.template_name is not None)
        self.notes["world_posts"] = len(posts)
        self.notes["world_noise_share"] = round(noise / len(posts), 4)
        self.notes["world_meme_share"] = round(memes / len(posts), 4)

        self.source = self.world.event_source()
        self.n_events = self.source.n_events
        k = self.seed % ROUND_PASSES
        self.patterns = [(k + i) % ROUND_PASSES for i in range(ROUND_PASSES)]

        # The request stream: every post hash of the world in time order,
        # cycled from a seeded offset.  Exact reposts repeat hashes, and
        # the misses are the world's own noise and non-annotated images.
        rng = np.random.default_rng(self.seed)
        hashes = np.array([int(p.phash) for p in posts], dtype=np.uint64)
        stream = np.roll(hashes, -int(rng.integers(hashes.size)))
        self.stream = [int(v) for v in stream]
        self.cursor = 0
        self.expected = oracles.expected_verdicts(self.reference, stream)
        hit_share = float(np.mean([self.expected[v][0] for v in self.stream]))
        self.notes["serve_hit_share"] = round(hit_share, 4)
        if hit_share == 0.0:
            self.setup_ok = False
            self.problems.append("no request of the stream matches a meme")

    # ------------------------------------------------------------------
    # Rounds and spans
    # ------------------------------------------------------------------

    def run(self, seconds: float) -> None:
        """Run whole rounds while the next one is expected to end within
        half a round of ``seconds``.  A round's work is fixed, whatever the
        seed, so the failed share does not depend on how many rounds the
        host's speed allows.  Traced mode needs one round of each kind."""
        try:
            start = time.perf_counter()
            index = 0
            while True:
                self.one_round(self.tracer is not None and index % 2 == 1)
                index += 1
                elapsed = time.perf_counter() - start
                if index < (2 if self.tracer is not None else 1):
                    continue
                if elapsed + 0.5 * elapsed / index > seconds:
                    break
        finally:
            shutil.rmtree(self.work_dir / "wal", ignore_errors=True)
        for service in (self.per_request, self.coalesced):
            if not service.health()["conserved"]:
                self.setup_ok = False
                self.problems.append("service statistics do not reconcile")

    def one_round(self, traced: bool) -> None:
        if traced:
            self.tracer.install(HOOKS, FSYNC_MODULES)
        try:
            busy = self.one_study(traced)
            for pattern in self.patterns:
                busy += self.one_pass(pattern, traced)
                busy += self.serve_round(traced)
        finally:
            if traced:
                self.tracer.uninstall()
        self.rounds.append((traced, busy))

    def enter(self, traced: bool, name: str):
        return self.tracer.begin(name) if traced else None

    def leave(self, root_id) -> None:
        if root_id is None:
            return
        self.tracer.end(root_id)
        span = self.tracer.spans[root_id]
        wall = span[3] - span[2]
        if wall > 0:
            self.uncovered.append(100.0 * (wall - self.tracer.covered_s(root_id)) / wall)

    def fail(self, problems: list[str]) -> None:
        self.failed += 1
        for problem in problems[:3]:
            if len(self.problems) < 20:
                self.problems.append(problem)

    # ------------------------------------------------------------------
    # study
    # ------------------------------------------------------------------

    def one_study(self, traced: bool) -> float:
        """generate -> cold pipeline -> influence; returns its wall time."""
        root = self.enter(traced, "bench.study")
        start = time.perf_counter()
        world = SyntheticWorld.generate(self.config)
        generated = time.perf_counter()
        result = run_pipeline(world, options=RunnerOptions(parallel=self.parallel))
        study = analysis.influence_study(
            result, world.config.horizon_days, parallel=self.parallel
        )
        end = time.perf_counter()
        self.leave(root)
        self.attempted += 1
        if not traced:
            self.study_s.append(end - start)
            self.analysis_s.append(end - generated)
        problems = []
        if oracles.world_digest(world) != self.recorded_digest:
            problems.append(f"world digest of {self.name} differs from the record")
        problems += oracles.check_dbscan(world, result)
        problems += oracles.check_association(world, result)
        problems += oracles.check_science(world, result, study)
        if problems:
            self.fail(problems)
        return end - start

    # ------------------------------------------------------------------
    # ingest
    # ------------------------------------------------------------------

    def one_pass(self, pattern: int, traced: bool) -> float:
        """Stream every event durably, close, reopen (recovery), force a
        compaction; returns the pass's wall time."""
        rng = np.random.default_rng([INGEST_PATTERN_SEED, pattern])
        wal_dir = self.work_dir / "wal"
        shutil.rmtree(wal_dir, ignore_errors=True)
        config = StreamConfig(wal_dir=wal_dir)
        root = self.enter(traced, "bench.ingest")
        start = time.perf_counter()
        ingester = StreamIngester(self.world, stream=config)
        while ingester.n_events < self.n_events:
            burst = int(rng.integers(INGEST_BURST[0], INGEST_BURST[1] + 1))
            ingester.ingest(self.source.read(ingester.n_events, burst))
        streamed = time.perf_counter()
        if traced:
            self.buffer_peak = max(self.buffer_peak, ingester.buffer.peak_depth)
            self.shed += ingester.report.events_shed
        ingester.close()
        closed = time.perf_counter()
        ingester = StreamIngester(self.world, stream=config)
        reopened = time.perf_counter()
        recovered_events = ingester.n_events
        ingester.compact(force=True)
        compacted = time.perf_counter()
        self.leave(root)
        result = ingester.result()
        ingester.close()
        self.attempted += 1
        if not traced:
            self.ingest_rate.append(self.n_events / (streamed - start))
            self.recovery_s.append(reopened - closed)
            self.compaction_s.append(compacted - reopened)
        problems = []
        if recovered_events != self.n_events:
            problems.append(
                f"recovered {recovered_events} events, streamed {self.n_events}"
            )
        problems += oracles.check_states_equal(result, self.reference)
        if not problems and not state_equals(result, self.reference):
            problems.append("state_equals: streamed state differs from batch")
        if problems:
            self.fail(problems)
        return compacted - start

    # ------------------------------------------------------------------
    # serve
    # ------------------------------------------------------------------

    def take(self, n: int) -> list[int]:
        out = []
        while len(out) < n:
            chunk = self.stream[self.cursor : self.cursor + n - len(out)]
            out += chunk
            self.cursor = (self.cursor + len(chunk)) % len(self.stream)
        return out

    def closed_per_request(self, requests):
        service = self.per_request
        responses = []
        start = time.perf_counter()
        for value in requests:
            shed = service.submit(value)
            if shed is not None:
                responses.append(shed)
            responses += service.drain()
        return time.perf_counter() - start, responses

    def closed_coalesced(self, requests):
        service = self.coalesced
        responses = []
        start = time.perf_counter()
        for lo in range(0, len(requests), SERVE_BURST):
            burst = requests[lo : lo + SERVE_BURST]
            responses += [r for r in service.submit_many(burst) if r is not None]
            responses += service.drain()
        return time.perf_counter() - start, responses

    def open_loop(self, requests):
        """Offer requests at a fixed rate; time each from when it was due."""
        service = self.coalesced
        n = len(requests)
        period = 1.0 / SERVE_OPEN_RATE
        latency = np.empty(n)
        late = []
        responses = []
        clock = time.perf_counter
        sent = 0
        start = clock()
        while sent < n:
            now = clock()
            due = min(n, int((now - start) / period) + 1, sent + SERVE_BURST)
            if due <= sent:
                wait = start + sent * period - now
                if wait > 0.002:
                    time.sleep(wait - 0.001)
                continue
            late.append(now - (start + sent * period))
            burst = requests[sent:due]
            responses += [r for r in service.submit_many(burst) if r is not None]
            responses += service.drain()
            done = clock()
            latency[sent:due] = done - (start + np.arange(sent, due) * period)
            sent = due
        return latency, np.asarray(late), responses

    def serve_round(self, traced: bool) -> float:
        """Both closed loops, then the open loop; returns the closed loops'
        wall time (the open loop idles between arrivals by design, so it
        stays outside the span whose coverage is reported)."""
        per_request = self.take(SERVE_PER_REQUEST)
        coalesced = self.take(SERVE_COALESCED)
        open_requests = self.take(SERVE_OPEN_REQUESTS)
        root = self.enter(traced, "bench.serve")
        t_a, responses_a = self.closed_per_request(per_request)
        t_b, responses_b = self.closed_coalesced(coalesced)
        self.leave(root)
        latency, late, responses_c = self.open_loop(open_requests)
        if not traced:
            self.rps.append(len(per_request) / t_a)
            self.coalesced_rps.append(len(coalesced) / t_b)
            self.open_latency.append(latency)
            self.generator_late.append(late)
        else:
            self.service_latency.append(
                np.array([r.latency_s for r in responses_c], dtype=float)
            )
        for requests, responses in (
            (per_request, responses_a),
            (coalesced, responses_b),
            (open_requests, responses_c),
        ):
            self.attempted += len(requests)
            bad = oracles.check_responses(responses, requests, self.expected)
            if bad:
                self.failed += bad
                if len(self.problems) < 20:
                    self.problems.append(f"{bad} requests without the right verdict")
        return t_a + t_b

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------

    def open_percentile(self, q: float) -> float:
        return median(_pq(x * 1e3, q) for x in self.open_latency)

    def end_to_end(self) -> dict:
        # Serving percentiles per serving round, then the median over
        # rounds.  The p99 is a per-layer figure only: host stalls (see
        # README.md) fill ~2% of wall time, so the 1% tail measures the
        # host, not the program.
        return {
            "study_s": (median(self.study_s), "s"),
            "analysis_s": (median(self.analysis_s), "s"),
            "ingest_events_per_s": (median(self.ingest_rate), "events/s"),
            "compaction_s": (median(self.compaction_s), "s"),
            "recovery_s": (median(self.recovery_s), "s"),
            "serve_rps": (median(self.rps), "req/s"),
            "serve_coalesced_rps": (median(self.coalesced_rps), "req/s"),
            "serve_p50_ms": (self.open_percentile(50), "ms"),
            "serve_p90_ms": (self.open_percentile(90), "ms"),
        }

    def overhead_pct(self) -> float:
        traced = [t for flag, t in self.rounds if flag]
        plain = [t for flag, t in self.rounds if not flag]
        if not traced or not plain:
            return 0.0
        return 100.0 * (median(traced) / median(plain) - 1.0)

    def layer_metrics(self, table: dict) -> dict:
        """Self or total time and counts per traced round."""
        n = max(1, sum(1 for traced, _ in self.rounds if traced))

        def per_round(name, field, unit):
            return (_row(table, name, field) / n, unit)

        calls = _row(table, "core.monitor.classify", "calls")
        late = (
            np.concatenate(self.generator_late) * 1e3
            if self.generator_late
            else np.zeros(1)
        )
        service_latency = (
            np.concatenate(self.service_latency) * 1e3
            if self.service_latency
            else np.zeros(1)
        )
        return {
            # study: generation
            "communities.generate_self_s": per_round("communities.generate", "self_s", "s"),
            "images.render_s": per_round("images.render", "self_s", "s"),
            "images.renders": per_round("images.render", "calls", "count"),
            "hashing.phash_s": per_round("hashing.phash", "total_s", "s"),
            "hashing.phash_calls": per_round("hashing.phash", "calls", "count"),
            "annotation.kym_self_s": per_round("annotation.kym", "self_s", "s"),
            "hawkes.simulate_s": per_round("hawkes.simulate", "total_s", "s"),
            "hawkes.simulated_events": per_round("hawkes.simulate", "units", "count"),
            # study: Steps 2-7; the analysis layers also run in compaction
            "hashing.radius_s": per_round("hashing.radius", "total_s", "s"),
            "clustering.dbscan_s": per_round("clustering.dbscan", "self_s", "s"),
            "clustering.medoids_s": per_round("clustering.medoids", "total_s", "s"),
            "annotation.annotate_s": per_round("annotation.annotate", "total_s", "s"),
            "annotation.associate_s": per_round("annotation.associate", "total_s", "s"),
            "annotation.associated_posts": per_round("annotation.associate", "units", "count"),
            "hawkes.fit_s": per_round("hawkes.fit", "total_s", "s"),
            "hawkes.fits": per_round("hawkes.fit", "calls", "count"),
            "utils.parallel.fanout_s": per_round("utils.parallel.fanout", "total_s", "s"),
            "utils.parallel.fanouts": per_round("utils.parallel.fanout", "calls", "count"),
            "core.runner.self_s": per_round("core.runner", "self_s", "s"),
            "analysis.influence_self_s": per_round("analysis.influence", "self_s", "s"),
            # ingest
            "stream.ingest_self_s": per_round("stream.ingest", "self_s", "s"),
            "hashing.mih_query_s": per_round("hashing.mih_query", "total_s", "s"),
            "hashing.mih_queries": per_round("hashing.mih_query", "calls", "count"),
            "stream.wal_append_s": per_round("stream.wal_append", "total_s", "s"),
            "stream.wal_bytes": per_round("stream.wal_append", "units", "B"),
            "stream.fsyncs": (self.tracer.counters.get("fsyncs", 0) / n, "count"),
            "stream.buffer_peak": (float(self.buffer_peak), "count"),
            "stream.shed_events": (float(self.shed) / n, "count"),
            "stream.compact_s": per_round("stream.compact", "total_s", "s"),
            "stream.compactions": per_round("stream.compact", "units", "count"),
            "utils.io.checkpoint_s": per_round("utils.io.checkpoint", "total_s", "s"),
            "utils.io.checkpoint_bytes": per_round("utils.io.checkpoint", "units", "B"),
            "stream.recover_s": per_round("stream.recover", "total_s", "s"),
            "stream.replayed_events": per_round("stream.recover", "units", "count"),
            # serve
            "service.submit_s": per_round("service.submit", "total_s", "s"),
            "service.admission_s": per_round("service.admission", "total_s", "s"),
            "service.drain_self_s": per_round("service.drain", "self_s", "s"),
            "core.monitor.classify_s": per_round("core.monitor.classify", "total_s", "s"),
            "core.monitor.classify_calls": (calls / n, "count"),
            "core.monitor.batch_mean": (
                _row(table, "core.monitor.classify", "units") / max(1, calls),
                "count",
            ),
            "service.latency_p99_ms": (_pq(service_latency, 99), "ms"),
            "service.queue_peak": (
                float(max(s.health()["queue_peak"] for s in (self.per_request, self.coalesced))),
                "count",
            ),
            "bench.generator_late_p99_ms": (_pq(late, 99), "ms"),
            "bench.open_p99_ms": (self.open_percentile(99), "ms"),
        }
