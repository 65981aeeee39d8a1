"""Golden digests of `persist` CLI outputs beyond GF(2).

The benchmark's references pin only GF(2) persist outputs and static Q
tables.  These jobs pin the sha256 of barcodes.csv, correlation.csv and
triangle.csv over GF(3) and Q on partially marked families, of one
experimental (non-regular) scheme, and of one starting-vertex family on
the ∞-extension of a digraph, so any change to the reduction engine that
moves a pivot, a representative or a row, or to the starting-vertex face
closure that moves a cell, shows here.  Four GF(2) jobs, each of about
10² cells, pin the other rank-mask constructions (clique, secondary
vertex deletion, partition and link-blowup faces), and three more the
graph-data constructions (the path complex of a digraph and edge deletion
over GF(2), the neighborhood complex over GF(3)), so a change to their
cell order or labels shows too.  One more pins the Čech scores on the
clique Δ-set, so a change to the minimal enclosing ball that moves a
rounded radius shows, and one the VR-strong witness scores there, so a
change to the witness values or to the pairwise scoring route shows.
The inputs are written from a seeded generator with fixed-precision
coordinates.
"""

import hashlib
import itertools
import math
import random

import pytest

from superph.cli import main

OUTPUTS = ("barcodes.csv", "correlation.csv", "triangle.csv")


def write_cloud(tmp_path, rng, points: int) -> list[str]:
    """A noisy circle of `points` named points; returns the names."""
    names = [f"p{i}" for i in range(points)]
    lines = []
    for i, v in enumerate(names):
        a = 2 * math.pi * (i + rng.uniform(-0.3, 0.3)) / points
        r = 1 + rng.gauss(0, 0.05)
        lines.append(f"{v} {r * math.cos(a):.6f} {r * math.sin(a):.6f}\n")
    (tmp_path / "cloud.xy").write_text("".join(lines))
    return names


def write_inputs(tmp_path, name: str, points: int, share: float, sizes=(1, 2, 3)):
    """A noisy circle, its complete graph, and a seeded family of vertex
    sets of the given sizes (each kept with probability `share`) with their
    induced edges; H is the family, X its closure under vertex deletion."""
    rng = random.Random(name)
    names = write_cloud(tmp_path, rng, points)
    edges = {e: f"e{k}" for k, e in enumerate(itertools.combinations(names, 2))}
    (tmp_path / "graph.txt").write_text(
        "directed 0\n" + "".join(f"v {v}\n" for v in names)
        + "".join(f"e {eid} {u} {v}\n" for (u, v), eid in edges.items()))
    family = []
    for k in sizes:
        for m in itertools.combinations(names, k):
            if rng.random() < share:
                family.append("member\nv " + " ".join(m) + "\n")
                if k > 1:
                    family.append("e " + " ".join(edges[e] for e in
                                                  itertools.combinations(m, 2)) + "\n")
    (tmp_path / "family.txt").write_text("".join(family))
    return ["--cloud", str(tmp_path / "cloud.xy"), "--graph", str(tmp_path / "graph.txt"),
            "--family", str(tmp_path / "family.txt"), "--construction", "primary_vd",
            "--max-dim", "2"]


def write_graph(tmp_path, rng, names: list[str], share: float, directed: bool) -> dict:
    """A graph on the names keeping each arc (each pair when undirected)
    with probability `share`; returns its edges."""
    pairs = itertools.permutations(names, 2) if directed else itertools.combinations(names, 2)
    arcs = {}
    for u, v in pairs:
        if rng.random() < share:
            arcs[f"a{len(arcs)}"] = (u, v)
    (tmp_path / "graph.txt").write_text(
        f"directed {int(directed)}\n" + "".join(f"v {v}\n" for v in names)
        + "".join(f"e {e} {u} {v}\n" for e, (u, v) in arcs.items()))
    return arcs


def write_sv_inputs(tmp_path, name: str, points: int, share: float):
    """A noisy circle, a digraph on it keeping each arc with probability
    `share`, and one member per vertex: the vertex as its starting vertex
    plus up to three vertices reached along seeded arcs out of the member
    so far.  X is the members' closure under starting-vertex faces on the
    ∞-extension, H its ∞-free cells."""
    rng = random.Random(name)
    names = write_cloud(tmp_path, rng, points)
    arcs = write_graph(tmp_path, rng, names, share, directed=True)
    family = []
    for start in names:
        reached, chosen = [start], []
        for e, (u, v) in arcs.items():
            if u in reached and v not in reached and len(reached) < 4 and rng.random() < 0.5:
                reached.append(v)
                chosen.append(e)
        family.append(f"member\nv {' '.join(reached)}\n"
                      + (f"e {' '.join(chosen)}\n" if chosen else "") + f"sv {start}\n")
    (tmp_path / "family.txt").write_text("".join(family))
    return ["--cloud", str(tmp_path / "cloud.xy"), "--graph", str(tmp_path / "graph.txt"),
            "--family", str(tmp_path / "family.txt"), "--construction", "starting_vertex"]


def write_clique_inputs(tmp_path, name: str, points: int, share: float):
    """A noisy circle whose complete graph is the host; X is its clique
    Δ-set to dimension 2, every cell marked (`share` is not read)."""
    write_cloud(tmp_path, random.Random(name), points)
    return ["--cloud", str(tmp_path / "cloud.xy"), "--construction", "clique", "--max-dim", "2"]


def graph_inputs(construction: str, directed: bool, max_dim: int):
    """A noisy circle and a seeded graph on it (`write_graph`), closed by a
    construction that reads only the graph: the path complex of a digraph
    or the neighborhood complex."""

    def write(tmp_path, name: str, points: int, share: float):
        rng = random.Random(name)
        write_graph(tmp_path, rng, write_cloud(tmp_path, rng, points), share, directed)
        return ["--cloud", str(tmp_path / "cloud.xy"), "--graph", str(tmp_path / "graph.txt"),
                "--construction", construction, "--max-dim", str(max_dim)]

    return write


def family_inputs(construction: str, sizes=(1, 2, 3)):
    """The inputs of `write_inputs` closed by another family construction;
    partition and link-blowup faces read a clustering of the circle into
    arcs of three consecutive points."""

    def write(tmp_path, name: str, points: int, share: float):
        argv = write_inputs(tmp_path, name, points, share, sizes)
        argv[argv.index("primary_vd")] = construction
        if construction in ("partition", "link_blowup"):
            (tmp_path / "clusters.txt").write_text(
                "".join(f"p{i} {i // 3}\n" for i in range(points)))
            argv += ["--clustering", str(tmp_path / "clusters.txt")]
        return argv

    return write


JOBS = {
    "gf3_partial": (write_inputs, 9, 0.6, ["--scheme", "vr", "--field", "gfp:3"], (
        "2e3e836d6d6bfb5501ad51e36b62f95d8f2b8c3b349a8a6a6ca1f310b603d8ea",
        "7a49c60635fd94fd865b6b07068833deb722fb75f0324c2f3ae924580330ab0e",
        "36277556b2231b02bbed9c12faa6070e5f09bc39252e01e3d6f24293a938eda5")),
    "rational_partial": (write_inputs, 7, 0.6, ["--scheme", "vr", "--field", "rational"], (
        "3a0997bf6a386b81be3af3cc2fcc8ad937dd1cf99fc0f4807f59dbe7062a99fc",
        "0d48a2964e01bb287cd1c308d7c5cbe3f9706b6cf225c30c7f88eafd9d6022de",
        "25fe42a1c5077d76ae5090117ca140e9e8cf35a295596c35c6e8e7c00da8a6ff")),
    "experimental_nonregular": (write_inputs, 8, 0.7, [
        "--scheme", "seeded_random", "--seed", "5", "--field", "gf2", "--experimental"], (
        "d1438974783c383ee59b5d3a27436621a425811134b28ce482e95b8d1fe22637",
        "9e9b5c5720d280cf8a22ffe21a642f138098db0eab2e45b6a2da53a460ae1b53",
        "7bb4b4c7f156de92fc10b4288f53f5631869177cdc2b52850736fbb608440f62")),
    "starting_vertex": (write_sv_inputs, 7, 0.35, ["--scheme", "vr", "--field", "gf2"], (
        "4af390ed450ff91a34fd82dde4358063b8d34f0757ae504cd331a7593ecd440f",
        "484647507ce37f8133446304ec59d83790a576d2d081429ec60d34c336785f5f",
        "43661a75c7a97b46f0e332d6b5d77f9b6f86fdcbe405827fe29d217567a0484b")),
    "clique": (write_clique_inputs, 8, 1.0, ["--scheme", "vr", "--field", "gf2"], (
        "c010885e5903e1f35c2db727355d1f345f957c4fe6a7aaf7caab17dfd80852a9",
        "2f60323a8aee80e59d03ec287666e77dfdc1917dad31ad75a69b0bfb2d70d769",
        "ab33959e35f6274df4c3ac0649de88b50c47d3c3e9f67fa28389de8d3dbfc6db")),
    "cech": (write_clique_inputs, 8, 1.0, ["--scheme", "cech", "--field", "gf2"], (
        "9890d31db7cde2490fc4a5b8b0ac0aaf8f33de56b3fc5bd971cefd684f18eead",
        "9e7bd1f2d9434186f547fe548c154b6f16d73ddefd9bd58574c1bf7bf9f3a578",
        "67cbec551a780df3deb645b38ff81aa2368f438322233e26ff8c57df1fa5c87d")),
    "witness_vr_strong": (write_clique_inputs, 8, 1.0,
                          ["--scheme", "witness:vr_strong", "--field", "gf2"], (
        "1d6db79b632f03da1d8a4c40121765e466a272857d73de27f76389eb478e013a",
        "7b82cf4dd6bf9b9b851c99df4072e64a61d3496c75a4c94bc02aecf656f300fe",
        "d0cf3fb2ece2657bb0b9871d53c07d4a974aae0c0d46093090a970525fb94004")),
    "secondary_vd": (family_inputs("secondary_vd"), 9, 0.5,
                     ["--scheme", "vr", "--field", "gf2"], (
        "9dec47635cafa78c3904c392c8740ed3a0b593236746f7aa10fdbee482dc753f",
        "bbc57ff6473a6567f71ee22167d02eccf8d92f14e8dd42da93f5c7b206228f84",
        "4c073d9ff90936a6df5ed648f3267e542c34488a34a612141f4db6cd6aba57cf")),
    "partition": (family_inputs("partition"), 9, 0.5, ["--scheme", "vr", "--field", "gf2"], (
        "4b9f67c131a150da2f7698e0fd657a6e66c5387d005995c8ff703390132cd5af",
        "72a271da65091fc0e0020346c1596c830da1058173f29aa3c781522ea0ea1ebe",
        "e2242d27212d17551ffdb2215eed81aa9be1828897e19bef2e9274245884aaab")),
    "link_blowup": (family_inputs("link_blowup"), 9, 0.5,
                    ["--scheme", "vr", "--field", "gf2"], (
        "6b957b95c25df9b27ac83234be98583d95cace05f49df01a3fd7eb16f460e774",
        "7e2c52ba07b7028ad592d2bad9edf03907ac75fe7723db22bf0b042fbf9c21fa",
        "987ae905c0c33bfa5caef8271976c528a615f5b5545672299b68e01f0b171015")),
    "path": (graph_inputs("path", directed=True, max_dim=2), 6, 0.4,
             ["--scheme", "vr", "--field", "gf2"], (
        "b11c9aee4e585aff084a9158e0126bee2972bd0de131ff07e588390872ba6571",
        "1d1dccc95e2de6ae9963233d36507143c2564fa4020d8ebd70f3f6714815969e",
        "3a838ffe8394158840502bfb883ff39269d4f14c75e43437319788e7e4f266ae")),
    "neighborhood": (graph_inputs("neighborhood", directed=False, max_dim=3), 9, 0.35,
                     ["--scheme", "vr", "--field", "gfp:3"], (
        "4504c1963ec18908d170d472f955e283ff7501c3c34df689ebd981460bee1b16",
        "af03756c2a55b39cb61f042354005925ed09244717d8d218b9f1a071a9b5b13f",
        "e4899a59bed3de80cacf27eda57ec11a97a3e66c04626aa58f54882483710c72")),
    "edge_del": (family_inputs("edge_del", sizes=(2, 3)), 8, 0.4,
                 ["--scheme", "vr", "--field", "gf2"], (
        "89af16462ba9a2dff55fc0d7716c55ab11caa3ca02e40d8b4722e528fe96b384",
        "06cbb09564368a2d84b3396c350194bbbb4e5d6318af396e41638f45a29fb91c",
        "1b909ef5fd765b6e078fdb8b80280039de62c10bdff52029f2b8deb4fa6e1ae9")),
}


@pytest.mark.parametrize("job", sorted(JOBS))
def test_persist_outputs_match_golden_digests(tmp_path, job):
    write, points, share, flags, digests = JOBS[job]
    out = tmp_path / "out"
    assert main(["persist"] + write(tmp_path, job, points, share) + flags
                + ["--out", str(out)]) == 0
    got = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest() for name in OUTPUTS)
    assert got == digests
