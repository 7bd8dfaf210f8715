"""The three benchmark workloads, each driven through the stack's public API.

Each workload function takes the seed and an :class:`Ops` span hook, does
the whole set-up (stack build, VM deploy, catalog seeding, warm-up, and
drawing every input from the seed) and returns a :class:`Phase`: the
measured phase, not yet started.  The runner starts it, advances the
engine in slices and then calls :meth:`Phase.finish` for the end-of-run
checks.

Latencies are simulated seconds, timed from when the operation was due.
A failed or refused operation counts in ``failed`` and adds no latency
sample; so does an operation whose output check fails.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Callable, Generator

from repro import build_video_cloud
from repro.analysis import HistoryRecorder, check_history
from repro.chaos import DiskStall, KillActiveNameNode, OverloadStorm
from repro.common.errors import ReproError
from repro.common.units import Mbps, MiB
from repro.sim import Event
from repro.stack import (
    VideoCloud,
    build_reconciled_cloud,
    enable_gray_tolerance,
    enable_namenode_ha,
)
from repro.video import DEFAULT_LADDER, R_720P, VideoFile

PASSWORD = "secret99"


class Ops:
    """Hook around every operation the benchmark issues into a layer.

    This base passes the process generator through untouched;
    :class:`layers.Spans` records one span per operation.
    """

    def attach(self, vc: VideoCloud) -> None:
        """Called once the stack exists, before any operation."""

    def op(self, kind: str, layer: str, gen: Generator) -> Generator:
        return gen


@dataclass
class Outcome:
    """What the measured phase produced; all simulated, so seed-exact."""

    #: latency samples by kind: request | startup | publish | read
    samples: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: failures by reason (status codes, output checks)
    failures: dict[str, int] = field(default_factory=dict)
    watched_s: float = 0.0
    stalled_s: float = 0.0

    def sample(self, kind: str, value: float) -> None:
        self.samples.setdefault(kind, []).append(value)

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.failures[reason] = self.failures.get(reason, 0) + 1


@dataclass
class Phase:
    """A measured phase, set up and ready to start."""

    vc: VideoCloud
    out: Outcome
    #: spawns the phase's traffic; returns the event that fires when it ends
    start: Callable[[], Event]
    #: simulated length the runner slices the phase by
    horizon: float
    #: end-of-run output checks (may advance the engine)
    finish: Callable[[], None] = lambda: None


def _run(vc: VideoCloud, gen: Generator):
    """Run one process to completion and return its value."""
    return vc.run(vc.engine.process(gen))


def _login(vc: VideoCloud, username: str) -> Generator:
    """Process: register, verify and log in one portal account."""
    portal = vc.portal
    run = vc.engine.process
    resp = yield run(portal.request("POST", "/register", params={
        "username": username, "password": PASSWORD,
        "email": f"{username}@bench.example"}))
    if not resp.ok:
        raise RuntimeError(f"register {username}: {resp.body}")
    _, token = portal.auth.outbox[-1]
    yield run(portal.request("POST", "/verify", params={"token": token}))
    resp = yield run(portal.request("POST", "/login", params={
        "username": username, "password": PASSWORD}))
    if not resp.ok:
        raise RuntimeError(f"login {username}: {resp.body}")
    return resp.set_session


# -- seeded inputs ----------------------------------------------------------------------
#
# Sizes are drawn by stratification: n draws are the distribution's
# quantiles at the midpoints of n equal strata, and the seed shuffles
# them.  The seed so decides which video is popular, who arrives when
# and what each arrival does, while the total work of a run barely
# moves between seeds -- which keeps host time comparable across seeds.

TOPICS = ("nobody", "wonder girls", "cloud lecture", "cat", "concert",
          "parody", "kvm tutorial", "hadoop talk", "music video", "news")
ZIPF_A = 1.3
MAX_WATCH = 60.0     # media seconds; a watch plan is 10 s to this


def _strata(n: int, inv_cdf: Callable[[float], float],
            rng: random.Random) -> list[float]:
    draws = [inv_cdf((i + 0.5) / n) for i in range(n)]
    rng.shuffle(draws)
    return draws


def _exponential(mean: float) -> Callable[[float], float]:
    return lambda q: -mean * math.log1p(-q)


def _lognormal(median: float, sigma: float) -> Callable[[float], float]:
    unit = NormalDist()
    return lambda q: median * math.exp(sigma * unit.inv_cdf(q))


def _zipf_ranks(n: int, n_ranks: int, rng: random.Random) -> list[int]:
    """*n* Zipf(ZIPF_A) popularity ranks, rank 0 the most popular."""
    weights = [1.0 / (k + 1) ** ZIPF_A for k in range(n_ranks)]
    total = sum(weights)
    ranks: list[int] = []
    acc = 0.0
    for k, w in enumerate(weights):   # cumulative rounding keeps the sum n
        acc += w * n / total
        ranks.extend([k] * (round(acc) - len(ranks)))
    rng.shuffle(ranks)
    return ranks


def _media(name: str, duration: float) -> VideoFile:
    return VideoFile(name=name, container="avi", vcodec="mpeg4", acodec="mp3",
                     duration=max(10.0, duration), resolution=R_720P,
                     fps=25.0, bitrate=4 * Mbps)


def _seed_catalog(vc: VideoCloud, n_videos: int, seed: int,
                  median_duration: float) -> list[int]:
    """Publish a catalog through the portal; returns video ids by
    popularity rank (the seed decides which video is popular)."""
    rng = random.Random(f"catalog-{seed}")
    # every video outlasts the longest watch plan, so a run's watched
    # seconds do not depend on which video the seed makes popular
    durations = [MAX_WATCH + d for d in
                 _strata(n_videos, _lognormal(median_duration, 0.7), rng)]
    session = _run(vc, _login(vc, "seeder"))
    portal = vc.portal
    ids = []
    for i, duration in enumerate(durations):
        topic = TOPICS[i % len(TOPICS)]
        resp = _run(vc, portal.request("POST", "/upload", session=session, params={
            "title": f"{topic} #{i}", "description": f"a video about {topic}",
            "tags": topic.split()[0],
            "media": _media(f"catalog-{i}.avi", duration)}))
        if not resp.ok:
            raise RuntimeError(f"catalog upload {i}: {resp.body}")
        ids.append(resp.body["video_id"])
    _run(vc, portal.refresh_search_index())
    rng.shuffle(ids)
    return ids


def _drive(engine, arrivals: list, spawn: Callable) -> Generator:
    """Process: open-loop arrivals; ``spawn(item, due)`` makes each one's
    generator at its due time.  Ends when the last one has finished."""
    start = engine.now
    procs = []
    for item in arrivals:
        due = start + item.at
        if due > engine.now:
            yield engine.timeout(due - engine.now)
        procs.append(engine.process(spawn(item, due)))
    yield engine.all_of(procs)


# -- portal viewers (vod_mix, gray_storm) --------------------------------------------


@dataclass(frozen=True)
class Visit:
    """One viewer arrival, drawn before the measured phase."""

    at: float          # offset from the start of the measured phase, sim s
    action: str        # browse | search | watch | comment
    video: int         # portal video id
    query: str
    watch: float       # media seconds to watch
    client: str


#: browse / search / watch / comment shares of viewer arrivals, in percent
MIX = (("browse", 30), ("search", 25), ("watch", 40), ("comment", 5))


def _visits(seed: int, n: int, rate: float, video_ids: list[int],
            clients: list[str]) -> list[Visit]:
    """*n* Poisson arrivals at *rate*/s with an exact action mix."""
    rng = random.Random(f"visits-{seed}")
    gaps = _strata(n, _exponential(1.0 / rate), rng)
    actions = [a for a, pct in MIX for _ in range(n * pct // 100)]
    actions += ["browse"] * (n - len(actions))
    rng.shuffle(actions)
    ranks = _zipf_ranks(n, len(video_ids), rng)
    watches = iter(_strata(actions.count("watch"),
                           lambda q: 10.0 + (MAX_WATCH - 10.0) * q, rng))
    out = []
    at = 0.0
    for gap, action, rank in zip(gaps, actions, ranks):
        at += gap
        out.append(Visit(at, action, video_ids[rank],
                         TOPICS[rank % len(TOPICS)].split()[0],
                         next(watches) if action == "watch" else 0.0,
                         rng.choice(clients)))
    return out


class Viewers:
    """Replays visits against the portal and checks every response."""

    def __init__(self, vc: VideoCloud, ops: Ops, out: Outcome,
                 session: str) -> None:
        self.vc = vc
        self.ops = ops
        self.out = out
        self.session = session

    def _request(self, v: Visit) -> Generator:
        portal = self.vc.portal
        if v.action == "browse":
            return portal.request("GET", "/", client_host=v.client)
        if v.action == "search":
            return portal.request("GET", "/search", params={"q": v.query},
                                  client_host=v.client)
        if v.action == "comment":
            return portal.request(
                "POST", f"/video/{v.video}/comment", session=self.session,
                params={"text": "nice!"}, client_host=v.client)
        return portal.request("GET", f"/video/{v.video}", client_host=v.client)

    def visit(self, v: Visit, due: float) -> Generator:
        """Process: one viewer action."""
        out = self.out
        engine = self.vc.engine
        out.attempted += 1
        try:
            resp = yield engine.process(
                self.ops.op(v.action, "web", self._request(v)))
            if not resp.ok:
                out.fail(f"{v.action}_http_{resp.status}")
                return
            if v.action == "search" and not resp.body["results"]:
                out.fail("search_no_results")
                return
            out.sample("request", engine.now - due)
            if v.action != "watch":
                return
            play = self.vc.portal.play(v.video, v.client,
                                       watch_plan=[(0.0, v.watch)]).run()
            report = yield engine.process(self.ops.op("play", "video", play))
        except ReproError as exc:
            out.fail(f"{v.action}_{type(exc).__name__}")
            return
        if abs(report.watched_seconds - v.watch) > 1e-6:
            out.fail("watched_seconds_mismatch")
            return
        out.sample("startup", report.startup_delay)
        out.watched_s += report.watched_seconds
        out.stalled_s += report.rebuffer_time


# -- vod_mix ---------------------------------------------------------------------------

VOD_VIDEOS = 200
VOD_ARRIVALS = 4000
VOD_RATE = 4.0       # arrivals per simulated second


def vod_mix(seed: int, ops: Ops) -> Phase:
    """Read side: open-loop browse/search/watch/comment on the base stack."""
    vc = build_video_cloud(6, seed=seed)
    ops.attach(vc)
    video_ids = _seed_catalog(vc, VOD_VIDEOS, seed, median_duration=120.0)
    session = _run(vc, _login(vc, "viewer"))
    clients = [h for h in vc.cluster.host_names if h != vc.portal.web_host]
    visits = _visits(seed, VOD_ARRIVALS, VOD_RATE, video_ids, clients)
    out = Outcome()
    viewers = Viewers(vc, ops, out, session)
    return Phase(
        vc, out,
        start=lambda: vc.engine.process(
            _drive(vc.engine, visits, viewers.visit)),
        horizon=visits[-1].at)


# -- upload_ingest -------------------------------------------------------------------------

INGEST_BASE = 20
INGEST_UPLOADS = 1000
INGEST_GAP = 40.0        # mean sim seconds between uploads
INGEST_REFRESH = 1800.0  # sim seconds between search re-crawls


@dataclass(frozen=True)
class Upload:
    at: float
    title: str
    token: str         # a word only this title has, to check searchability
    tags: str
    media: VideoFile


def _uploads(seed: int) -> list[Upload]:
    """Poisson upload arrivals with log-normal media durations."""
    rng = random.Random(f"uploads-{seed}")
    gaps = _strata(INGEST_UPLOADS, _exponential(INGEST_GAP), rng)
    durations = _strata(INGEST_UPLOADS, _lognormal(90.0, 0.6), rng)
    out = []
    at = 0.0
    for i, (gap, duration) in enumerate(zip(gaps, durations)):
        at += gap
        topic = TOPICS[i % len(TOPICS)]
        token = f"zq{seed}x{i}"
        out.append(Upload(at, f"{topic} upload {token}", token,
                          topic.split()[0], _media(f"upload-{i}.avi", duration)))
    return out


class Uploaders:
    """Uploads, checks each publication, re-crawls, checks searchability."""

    def __init__(self, vc: VideoCloud, ops: Ops, out: Outcome,
                 session: str, uploads: list[Upload]) -> None:
        self.vc = vc
        self.ops = ops
        self.out = out
        self.session = session
        self.uploads = uploads
        self.published: list[tuple[int, Upload]] = []
        self.in_flight = len(uploads)

    def upload(self, u: Upload, due: float) -> Generator:
        """Process: one upload, then the publication checks."""
        out = self.out
        portal = self.vc.portal
        engine = self.vc.engine
        out.attempted += 1
        try:
            resp = yield engine.process(self.ops.op(
                "upload", "web", portal.request(
                    "POST", "/upload", session=self.session, params={
                        "title": u.title, "description": "benchmark upload",
                        "tags": u.tags, "media": u.media})))
        finally:
            self.in_flight -= 1
        if not resp.ok:
            out.fail(f"upload_http_{resp.status}")
            return
        vid = resp.body["video_id"]
        if portal.db.table("videos").get(vid)["status"] != "published":
            out.fail("upload_not_published")
            return
        client = self.vc.fs.client(portal.web_host)
        for rung in portal.ladder:
            path = f"{portal.PUBLISH_ROOT}/video-{vid}-{rung.name}.flv"
            if (not client.exists(path) or client.stat(path).length
                    != portal.rendition(vid, rung.name).size):
                out.fail("rendition_missing_or_wrong_size")
                return
        out.sample("publish", engine.now - due)
        self.published.append((vid, u))

    def _refresh(self) -> Generator:
        return self.ops.op("refresh", "search",
                           self.vc.portal.refresh_search_index())

    def refresher(self) -> Generator:
        """Process: Nutch's periodic re-crawl while uploads are in flight."""
        engine = self.vc.engine
        while self.in_flight:
            yield engine.timeout(INGEST_REFRESH)
            yield engine.process(self._refresh())

    def run(self) -> Generator:
        """Process: the whole measured phase."""
        engine = self.vc.engine
        refresher = engine.process(self.refresher())
        yield engine.process(_drive(engine, self.uploads, self.upload))
        yield refresher
        yield engine.process(self._refresh())
        # after the last re-crawl every published title must be findable
        for vid, u in self.published:
            self.out.attempted += 1
            resp = yield engine.process(self.ops.op(
                "search", "web", self.vc.portal.request(
                    "GET", "/search", params={"q": u.token})))
            if not resp.ok:
                self.out.fail(f"search_http_{resp.status}")
            elif vid not in [r["id"] for r in resp.body["results"]]:
                self.out.fail("published_not_searchable")


def upload_ingest(seed: int, ops: Ops) -> Phase:
    """Write side: open-loop uploads, parallel transcode ladder, re-crawls."""
    vc = build_video_cloud(6, seed=seed)
    ops.attach(vc)
    vc.portal.ladder = DEFAULT_LADDER
    _seed_catalog(vc, INGEST_BASE, seed, median_duration=60.0)
    session = _run(vc, _login(vc, "uploader"))
    uploads = _uploads(seed)
    out = Outcome()
    uploaders = Uploaders(vc, ops, out, session, uploads)
    return Phase(vc, out,
                 start=lambda: vc.engine.process(uploaders.run()),
                 horizon=uploads[-1].at)


# -- gray_storm ------------------------------------------------------------------------------

GRAY_VIDEOS = 40
GRAY_SEGMENTS = 8
GRAY_SEGMENT_BYTES = 8 * MiB
GRAY_READERS = 6
GRAY_READS = 400         # segments each reader reads, one after another
GRAY_PACE = 0.4          # sim seconds a reader waits between segments
GRAY_HORIZON = 240.0     # sim seconds of viewer traffic and writes
GRAY_PHASE = 300.0       # the phase lasts this long, or until traffic ends
GRAY_VISIT_RATE = 5.0
GRAY_WRITES = 24


class StormClients:
    """Paced HDFS segment readers plus a recorded writer."""

    def __init__(self, vc: VideoCloud, ops: Ops, out: Outcome,
                 paths: list[str], picks: list[list[int]],
                 hosts: list[str]) -> None:
        self.vc = vc
        self.ops = ops
        self.out = out
        self.paths = paths
        self.picks = picks
        self.hosts = hosts
        self.history = HistoryRecorder(lambda: vc.engine.now)

    def _read(self, client, path: str, want) -> Generator:
        """Process: one read, checked against the content *want*."""
        out = self.out
        engine = self.vc.engine
        out.attempted += 1
        t0 = engine.now
        try:
            got = yield engine.process(
                self.ops.op("read", "hdfs", client.read_file(path)))
        except ReproError as exc:
            out.fail(f"read_{type(exc).__name__}")
            return
        if got != want:
            out.fail("read_wrong_content")
            return
        out.sample("read", engine.now - t0)

    def reader(self, i: int) -> Generator:
        """Process: closed loop -- the next segment only after the last."""
        engine = self.vc.engine
        client = self.vc.fs.client(self.hosts[i])
        for seg in self.picks[i]:
            yield from self._read(client, self.paths[seg], GRAY_SEGMENT_BYTES)
            yield engine.timeout(GRAY_PACE)

    def writer(self) -> Generator:
        """Process: small writes, each read back once acked; this client's
        operations are the history the consistency checker reads."""
        engine = self.vc.engine
        client = self.vc.fs.client(self.hosts[0])
        client.recorder = self.history
        gap = GRAY_HORIZON / GRAY_WRITES
        for i in range(GRAY_WRITES):
            yield engine.timeout(gap)
            path = f"/bench/w{i}"
            payload = bytes([i % 251]) * 512
            self.out.attempted += 1
            try:
                yield engine.process(self.ops.op(
                    "write", "hdfs", client.write_file(path, payload)))
            except ReproError as exc:
                self.out.fail(f"write_{type(exc).__name__}")
                continue
            yield from self._read(client, path, payload)


def gray_storm(seed: int, ops: Ops) -> Phase:
    """The whole stack under portal traffic, paced readers and chaos."""
    vc = build_reconciled_cloud(8, seed=seed)
    ops.attach(vc)
    engine = vc.engine
    enable_namenode_ha(vc)
    vc.run(until=60.0)
    enable_gray_tolerance(vc, probation=20.0)
    video_ids = _seed_catalog(vc, GRAY_VIDEOS, seed, median_duration=60.0)
    session = _run(vc, _login(vc, "viewer"))
    writer = vc.fs.client(vc.portal.web_host)
    paths = [f"/segments/seg-{i}" for i in range(GRAY_SEGMENTS)]
    for p in paths:
        _run(vc, writer.write_synthetic(p, GRAY_SEGMENT_BYTES))
    vc.run(until=engine.now + 60.0)   # detectors and hedge trackers warm up

    rng = random.Random(f"chaos-{seed}")
    hot = vc.fs.namenode.get_file(paths[0]).blocks[0].block_id
    # The stall hits a replica of the hot block away from the web host, at
    # moderate severity.  Under this read load a severe stall, or one on
    # the web host (which holds a replica of every segment by writer
    # locality), gets the DataNode declared dead on some seeds; see
    # perfbench/README.md.
    victim = rng.choice(sorted(vc.fs.namenode.locations(hot)
                               - {vc.portal.web_host}))
    chaos = [
        DiskStall(host=victim, at=rng.uniform(10.0, 30.0), duration=75.0,
                  severity="moderate"),
        OverloadStorm(at=rng.uniform(60.0, 90.0), duration=15.0, rate=75.0),
        KillActiveNameNode(at=rng.uniform(120.0, 150.0), recover_after=60.0),
    ]
    # viewers and readers stay off the hosts the chaos kills
    clients = [h for h in vc.cluster.host_names
               if h not in (vc.portal.web_host, vc.fs.namenode_host,
                            vc.ha.standby_host)]
    visits = _visits(seed, int(GRAY_HORIZON * GRAY_VISIT_RATE),
                     GRAY_VISIT_RATE, video_ids, clients)
    # Zipf segment choice: segment 0, with a replica on the stalled disk,
    # is the hottest
    picks = [_zipf_ranks(GRAY_READS, GRAY_SEGMENTS, rng)
             for _ in range(GRAY_READERS)]
    out = Outcome()
    viewers = Viewers(vc, ops, out, session)
    storm = StormClients(vc, ops, out, paths, picks,
                         [clients[i % len(clients)] for i in range(GRAY_READERS)])

    phase_start = engine.now

    def start() -> Event:
        procs = [engine.process(storm.reader(i)) for i in range(GRAY_READERS)]
        procs.append(engine.process(storm.writer()))
        procs.append(engine.process(_drive(engine, visits, viewers.visit)))
        procs.append(vc.chaos.unleash(chaos))
        # a fixed length, so the background loops do the same work per seed
        procs.append(engine.timeout(GRAY_PHASE))
        return engine.all_of(procs)

    def finish() -> None:
        if any(r.kind == "datanode_dead" and r.data.get("datanode") == victim
               and r.time >= phase_start for r in vc.cluster.log):
            out.fail("stalled_datanode_declared_dead")
        looker = vc.fs.client(clients[0])
        keys = {op.key for op in storm.history.ops}
        report = check_history(storm.history, final_keys={
            k for k in keys if looker.exists(k)})
        for v in report.violations:
            out.fail(f"history_{v.rule}")
        vc.stop_background()
        vc.run()
        if engine.peek() != float("inf"):
            out.fail("engine_not_idle_after_stop")

    return Phase(vc, out, start=start, horizon=GRAY_PHASE, finish=finish)


WORKLOADS: dict[str, Callable[[int, Ops], Phase]] = {
    "vod_mix": vod_mix,
    "upload_ingest": upload_ingest,
    "gray_storm": gray_storm,
}
