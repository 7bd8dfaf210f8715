"""Tests for the extended portal: my-videos / edit / delete, search UX,
multi-rendition playback, related videos."""

import pytest

from repro.common.errors import WebError
from repro.common.units import Mbps, MiB
from repro.hardware import Cluster
from repro.hdfs import Hdfs
from repro.video import R_720P, VideoFile
from repro.web import VideoPortal

from tests.web.test_portal import register_and_login, upload_clip


def make_portal(n_hosts=6, ladder=("720p",)):
    cluster = Cluster(n_hosts)
    fs = Hdfs(cluster, namenode_host="node0",
              datanode_hosts=cluster.host_names[1:], block_size=16 * MiB,
              replication=2)
    portal = VideoPortal(
        cluster, fs, web_host="node1",
        transcode_workers=cluster.host_names[2:], ladder=ladder,
    )
    return cluster, portal


def publish(cluster, portal, session, title, description="", tags=""):
    resp = cluster.run(cluster.engine.process(portal.request(
        "POST", "/upload", session=session,
        params={"title": title, "description": description, "tags": tags,
                "media": upload_clip()})))
    assert resp.ok, resp.body
    return resp.body["video_id"]


class TestMyVideosEditDelete:
    def test_my_videos_lists_only_own(self):
        cluster, portal = make_portal()
        alice = register_and_login(cluster, portal, "alice")
        bob = register_and_login(cluster, portal, "bob")
        v1 = publish(cluster, portal, alice, "alice video")
        publish(cluster, portal, bob, "bob video")
        r = cluster.run(cluster.engine.process(portal.request(
            "GET", "/my_videos", session=alice)))
        assert r.ok
        assert [v["id"] for v in r.body["videos"]] == [v1]

    def test_my_videos_requires_login(self):
        cluster, portal = make_portal()
        r = cluster.run(cluster.engine.process(portal.request(
            "GET", "/my_videos")))
        assert r.status == 403

    def test_edit_own_video(self):
        cluster, portal = make_portal()
        session = register_and_login(cluster, portal)
        vid = publish(cluster, portal, session, "old title")
        r = cluster.run(cluster.engine.process(portal.request(
            "POST", f"/video/{vid}/edit", session=session,
            params={"title": "new title", "tags": "updated"})))
        assert r.ok
        row = portal.db.table("videos").get(vid)
        assert row["title"] == "new title"
        assert row["tags"] == "updated"

    def test_edit_reflects_in_search_after_recrawl(self):
        cluster, portal = make_portal()
        session = register_and_login(cluster, portal)
        vid = publish(cluster, portal, session, "original nobody")
        cluster.run(cluster.engine.process(portal.refresh_search_index()))
        cluster.run(cluster.engine.process(portal.request(
            "POST", f"/video/{vid}/edit", session=session,
            params={"title": "renamed wonderful"})))
        # stale entry dropped immediately
        r = cluster.run(cluster.engine.process(portal.request(
            "GET", "/search", params={"q": "nobody"})))
        assert r.body["results"] == []
        cluster.run(cluster.engine.process(portal.refresh_search_index()))
        r = cluster.run(cluster.engine.process(portal.request(
            "GET", "/search", params={"q": "wonderful"})))
        assert [v["id"] for v in r.body["results"]] == [vid]

    def test_cannot_edit_others_video(self):
        cluster, portal = make_portal()
        alice = register_and_login(cluster, portal, "alice")
        bob = register_and_login(cluster, portal, "bob")
        vid = publish(cluster, portal, alice, "alice video")
        r = cluster.run(cluster.engine.process(portal.request(
            "POST", f"/video/{vid}/edit", session=bob,
            params={"title": "hacked"})))
        assert r.status == 403

    def test_edit_nothing_is_400(self):
        cluster, portal = make_portal()
        session = register_and_login(cluster, portal)
        vid = publish(cluster, portal, session, "x")
        r = cluster.run(cluster.engine.process(portal.request(
            "POST", f"/video/{vid}/edit", session=session)))
        assert r.status == 400

    def test_delete_own_video(self):
        cluster, portal = make_portal()
        session = register_and_login(cluster, portal)
        vid = publish(cluster, portal, session, "doomed")
        r = cluster.run(cluster.engine.process(portal.request(
            "POST", f"/video/{vid}/delete", session=session)))
        assert r.ok
        assert portal.db.table("videos").get(vid)["status"] == "removed"
        assert not portal.fs.namenode.listdir("/published")
        with pytest.raises(WebError):
            portal.rendition(vid)
        # gone from my_videos and the player page
        r = cluster.run(cluster.engine.process(portal.request(
            "GET", "/my_videos", session=session)))
        assert r.body["videos"] == []
        r = cluster.run(cluster.engine.process(portal.request(
            "GET", f"/video/{vid}")))
        assert r.status == 404

    def test_admin_can_delete_any(self):
        cluster, portal = make_portal()
        admin = register_and_login(cluster, portal, "admin")
        user = register_and_login(cluster, portal, "user1")
        vid = publish(cluster, portal, user, "spam")
        r = cluster.run(cluster.engine.process(portal.request(
            "POST", f"/video/{vid}/delete", session=admin)))
        assert r.ok


class TestSearchUx:
    def setup_portal_with_corpus(self):
        cluster, portal = make_portal()
        session = register_and_login(cluster, portal)
        vids = []
        for i in range(12):
            vids.append(publish(cluster, portal, session,
                                f"nobody cover take {i}",
                                description=f"nobody performance {i}",
                                tags="nobody"))
        cluster.run(cluster.engine.process(portal.refresh_search_index()))
        return cluster, portal, session, vids

    def test_pagination(self):
        cluster, portal, _, vids = self.setup_portal_with_corpus()
        r1 = cluster.run(cluster.engine.process(portal.request(
            "GET", "/search", params={"q": "nobody", "page": 1, "per_page": 5})))
        r2 = cluster.run(cluster.engine.process(portal.request(
            "GET", "/search", params={"q": "nobody", "page": 2, "per_page": 5})))
        assert r1.body["total_hits"] == 12
        assert r1.body["total_pages"] == 3
        ids1 = {v["id"] for v in r1.body["results"]}
        ids2 = {v["id"] for v in r2.body["results"]}
        assert len(ids1) == len(ids2) == 5
        assert not ids1 & ids2

    def test_did_you_mean_on_typo(self):
        cluster, portal, _, _ = self.setup_portal_with_corpus()
        r = cluster.run(cluster.engine.process(portal.request(
            "GET", "/search", params={"q": "nobdy"})))
        assert r.body["results"] == []
        assert r.body["did_you_mean"] == "nobody"

    def test_snippets_highlighted(self):
        cluster, portal, _, _ = self.setup_portal_with_corpus()
        r = cluster.run(cluster.engine.process(portal.request(
            "GET", "/search", params={"q": "nobody"})))
        assert any("<b>nobody</b>" in v["snippet"] for v in r.body["results"])

    def test_related_videos_on_player_page(self):
        cluster, portal, _, vids = self.setup_portal_with_corpus()
        r = cluster.run(cluster.engine.process(portal.request(
            "GET", f"/video/{vids[0]}")))
        related_ids = {v["id"] for v in r.body["related"]}
        assert related_ids
        assert vids[0] not in related_ids
        assert related_ids <= set(vids)

    def test_delete_drops_video_from_cached_search_and_related(self):
        cluster, portal, session, vids = self.setup_portal_with_corpus()

        def get(path, **params):
            return cluster.run(cluster.engine.process(portal.request(
                "GET", path, params=params)))

        # warm the index's result caches for both routes
        assert get("/search", q="nobody").body["total_hits"] == 12
        related = [v["id"] for v in get(f"/video/{vids[0]}").body["related"]]
        assert len(related) == 4
        doomed = related[0]
        r = cluster.run(cluster.engine.process(portal.request(
            "POST", f"/video/{doomed}/delete", session=session)))
        assert r.ok
        # total_hits counts index hits before the database status filter
        page = get("/search", q="nobody", per_page=20).body
        assert page["total_hits"] == 11
        assert doomed not in {v["id"] for v in page["results"]}
        related = [v["id"] for v in get(f"/video/{vids[0]}").body["related"]]
        assert len(related) == 4
        assert doomed not in related


class TestMultiRendition:
    def test_full_ladder_published(self):
        cluster, portal = make_portal(ladder=("720p", "480p", "360p"))
        session = register_and_login(cluster, portal)
        vid = publish(cluster, portal, session, "hd upload")
        assert portal.qualities(vid) == ["720p", "480p", "360p"]
        for q in ("720p", "480p", "360p"):
            assert portal.fs.namenode.exists(f"/published/video-{vid}-{q}.flv")
        r = cluster.run(cluster.engine.process(portal.request(
            "GET", f"/video/{vid}")))
        assert r.body["player"]["qualities"] == ["720p", "480p", "360p"]

    def test_low_quality_streams_fewer_bytes(self):
        cluster, portal = make_portal(ladder=("720p", "360p"))
        session = register_and_login(cluster, portal)
        vid = publish(cluster, portal, session, "hd upload")
        hd = portal.rendition(vid, "720p")
        sd = portal.rendition(vid, "360p")
        assert sd.size < hd.size

    def test_unknown_quality_rejected(self):
        cluster, portal = make_portal()
        session = register_and_login(cluster, portal)
        vid = publish(cluster, portal, session, "x")
        with pytest.raises(WebError):
            portal.rendition(vid, "4k")

    def test_unknown_ladder_name_rejected(self):
        with pytest.raises(WebError):
            make_portal(ladder=("8k",))


class TestInputValidation:
    def test_bad_pagination_params(self):
        cluster, portal = make_portal()
        for params in ({"q": "x", "page": "zero"},
                       {"q": "x", "page": 0},
                       {"q": "x", "per_page": 1000}):
            r = cluster.run(cluster.engine.process(portal.request(
                "GET", "/search", params=params)))
            assert r.status == 400

    def test_bad_video_id(self):
        cluster, portal = make_portal()
        r = cluster.run(cluster.engine.process(portal.request(
            "GET", "/video/nan")))
        assert r.status == 400
