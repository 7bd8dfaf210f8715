"""E09 (Figures 17-18, claim C2): search-index construction and queries.

Sweeps corpus size for sequential vs MapReduce index builds (the C2
crossover), measures query latency on the built index, reproduces the
'nobody' demo query, and ablates the reducer fan-out.
"""

import pytest

from repro.common.calibration import Calibration, HadoopModel
from repro.common.units import KiB
from repro.hardware import Cluster
from repro.hdfs import Hdfs
from repro.search import (
    Document,
    build_index_mapreduce,
    build_index_sequential,
    execute,
    write_crawl_segment,
)

from _util import BenchResult, publish, run

WORDS = ("cloud video nobody song cat concert parody kvm hadoop nutch girl "
         "wonder stream live music hd official channel dance cover").split()


def corpus(n_docs, desc_words=80):
    docs = []
    for i in range(n_docs):
        desc = " ".join(WORDS[(i + j) % len(WORDS)] for j in range(desc_words))
        docs.append(Document(f"video-{i}", {
            "title": f"{WORDS[i % len(WORDS)]} {WORDS[(i * 3) % len(WORDS)]} #{i}",
            "description": desc,
            "tags": WORDS[(i * 7) % len(WORDS)],
        }))
    return docs


def build_times(n_docs, *, num_reduces=4):
    """Returns (mr_duration, seq_duration, index)."""
    # web-scale analysis CPU, as in the paper's Nutch-over-pages setting
    cal = Calibration(hadoop=HadoopModel(index_cpu_per_byte=2e-5,
                                         task_launch_overhead=0.2))
    cluster = Cluster(8, cal=cal)
    fs = Hdfs(cluster, block_size=64 * KiB, replication=2)
    run(cluster, write_crawl_segment(fs, corpus(n_docs), "/seg"))
    index, job = run(cluster, build_index_mapreduce(
        fs, ["/seg"], num_reduces=num_reduces))
    _, seq = run(cluster, build_index_sequential(fs, ["/seg"]))
    return job.duration, seq, index


def test_e09_build_time_crossover(benchmark, capsys):
    rows = []
    ratios = {}
    for n_docs in (20, 100, 400, 1200):
        mr, seq, _ = build_times(n_docs)
        ratios[n_docs] = seq / mr
        rows.append([n_docs, f"{seq:.1f}", f"{mr:.1f}", f"{seq / mr:.2f}x"])
    publish(capsys, BenchResult(
        "e09_build_crossover",
        params={"corpus_sizes": [20, 100, 400, 1200], "num_reduces": 4},
        metrics={"speedup_by_docs": {str(n): round(r, 3)
                                     for n, r in ratios.items()}},
    ).table("E09: index build, sequential vs MapReduce (C2)",
            ["documents", "sequential s", "mapreduce s", "speedup"], rows))
    # small corpora: overheads dominate; large corpora: MR wins clearly
    assert ratios[1200] > 1.5
    assert ratios[1200] > ratios[20]
    benchmark.pedantic(build_times, args=(50,), rounds=2, iterations=1)


def test_e09_nobody_query_and_latency(benchmark, capsys):
    _, _, index = build_times(400)
    hits = execute(index, "nobody", limit=5)
    rows = [[h.doc_id, f"{h.score:.2f}", h.title] for h in hits]
    publish(capsys, BenchResult(
        "e09b_nobody_query",
        params={"corpus_docs": 400, "query": "nobody", "limit": 5},
        metrics={"hits": len(hits),
                 "top_score": round(hits[0].score, 3) if hits else 0.0},
    ).table("E09b: Figure 18 -- top hits for 'nobody' (400 docs)",
            ["doc", "score", "title"], rows))
    assert hits, "the demo query must return results"
    assert all("nobody" in (h.title + h.snippet).lower() or h.score > 0
               for h in hits)

    # wall-clock query latency on the in-memory index: every round ranks
    # the query afresh over the index's already-built per-term scores
    result = benchmark.pedantic(execute, args=(index, '"wonder girl" nobody -parody'),
                                setup=index.result_cache.clear, rounds=200)
    assert isinstance(result, list)


def test_e09_reducer_fanout_ablation(benchmark, capsys):
    rows = []
    build_s = {}
    for r in (1, 2, 8):
        mr, _, _ = build_times(400, num_reduces=r)
        build_s[str(r)] = round(mr, 3)
        rows.append([r, f"{mr:.1f}"])
    publish(capsys, BenchResult(
        "e09c_reducer_fanout",
        params={"corpus_docs": 400, "reducers": [1, 2, 8]},
        metrics={"build_s_by_reducers": build_s},
    ).table("E09c: reducer fan-out ablation (400 docs)",
            ["reducers", "mapreduce build s"], rows))
    benchmark.pedantic(build_times, args=(50,),
                       kwargs={"num_reduces": 2}, rounds=2, iterations=1)
