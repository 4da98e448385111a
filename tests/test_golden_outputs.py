"""Byte-identical command-line output (ROADMAP pillar 2): every case of a
seeded corpus runs through `cli.main` (each solver, recognize, incompat,
verify, and a few generate calls) and the sha256 of the exit codes, stdout
and stderr must equal the digest recorded for that case. The corpus is built
only from stcsolve's generators and tests/oracles.py.

To record the digests again after an intended output change, run
`PYTHONPATH=src:tests python tests/test_golden_outputs.py` and paste its
output over DIGESTS.
"""

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from oracles import (
    forest_graph,
    planted_twin_graph,
    random_forest_parents,
    random_graph,
    random_proper_interval_union,
    random_pseudo_split,
    random_sparse_bipartite,
    threshold_graph,
)
from stcsolve import (
    Graph,
    cli,
    format_edge_list,
    gen_random_proper_interval,
    gen_random_trivially_perfect,
)


def cycle(k: int) -> Graph:
    labels = [f"c{i:02d}" for i in range(k)]
    return Graph(labels, [(labels[i], labels[(i + 1) % k]) for i in range(k)])


# labels that json, the edge list and the terminal each escape differently
ODD = ['q"t', "b\\s", "ü", "日", "\U0001f600", "a\x01b", "vertex"]


def build_graphs() -> dict[str, Graph]:
    cases = {"empty": Graph([]), "isolated": Graph(["a", "b", "c"])}
    for s in range(3):
        cases[f"pig-union-{s}"] = random_proper_interval_union(40 + 30 * s, s)
        cases[f"pig-dense-{s}"] = gen_random_proper_interval(30 + 10 * s, seed=s, density=0.7)
    for s in range(3):
        n = 20 + 15 * s
        cases[f"tp-forest-{s}"] = forest_graph(
            [f"f{i:02d}" for i in range(n)], random_forest_parents(n, s, roots=1 + s)
        )
        cases[f"tp-random-{s}"] = gen_random_trivially_perfect(25 + 10 * s, seed=s)
        cases[f"threshold-{s}"] = threshold_graph(12 + 8 * s, s)[0]
    for s in range(3):
        cases[f"bipartite-{s}"] = random_sparse_bipartite(30 + 40 * s, 1.5 + s, s, connected=s == 1)
    for k in (3, 5, 7, 9, 11):
        cases[f"odd-cycle-{k}"] = cycle(k)
    for s in range(6):
        n = 5 + s
        cases[f"random-{s}"] = random_graph(n, 2 + 3 * s, s)
    cases["random-near-cap"] = random_graph(10, 30, 11)
    cases["random-over-cap"] = random_graph(12, 40, 7)
    for s in range(3):
        cases[f"twins-{s}"] = planted_twin_graph(s, max_total=12)[0]
        cases[f"pseudo-split-{s}"] = random_pseudo_split(s)
    cases["escapes-cycle"] = Graph(ODD[:5], [(ODD[i], ODD[(i + 1) % 5]) for i in range(5)])
    cases["escapes-path"] = Graph(ODD, [(ODD[i], ODD[i + 1]) for i in range(len(ODD) - 1)])
    parts = [cases["odd-cycle-7"], cases["bipartite-0"], cases["pig-union-0"], cases["tp-forest-0"]]
    cases["mixed-union"] = Graph(
        [f"{j}{v}" for j, p in enumerate(parts) for v in p.vertices],
        [(f"{j}{u}", f"{j}{v}") for j, p in enumerate(parts) for u, v in p.edges],
    )
    return cases


GENERATE = {
    "generate-pig": ["generate", "pig", "--n", "25", "--seed", "3", "--density", "0.6"],
    "generate-tp": ["generate", "tp", "--n", "25", "--seed", "4"],
    "generate-3sp": ["generate", "3sp-reduction", "--universe", "6",
                     "--triplet", "1,2,3", "--triplet", "4,5,6", "--triplet", "2,3,4"],
    "generate-stc": ["generate", "stc-reduction", "--universe", "5",
                     "--triplet", "1,2,3", "--triplet", "3,4,5", "--sidecar", "{tmp}/side.txt"],
    "generate-3sp-bad-triplet": ["generate", "3sp-reduction", "--universe", "3",
                                 "--triplet", "1,2,4"],
    "generate-stc-short-triplet": ["generate", "stc-reduction", "--universe", "3",
                                   "--triplet", "1,2"],
}


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def planted_wedge(g: Graph) -> dict | None:
    """A labeling whose only strong edges form the first open wedge u-v-w
    (v in label order, then u and w), or None when g has none."""
    for v in g.vertices:
        nv = sorted(g.neighbors(v))
        for i, u in enumerate(nv):
            w = next((w for w in nv[i + 1:] if not g.has_edge(u, w)), None)
            if w is not None:
                strong = {tuple(sorted(e)) for e in ((u, v), (v, w))}
                weak = sorted(set(g.edges) - strong)
                return {"strong": sorted(map(list, strong)), "weak": list(map(list, weak))}
    return None


def graph_runs(g: Graph, tmp: Path) -> list[tuple[int, str, str]]:
    gpath = tmp / "g.txt"
    gpath.write_text(format_edge_list(g), encoding="utf-8")
    outs = [run(["solve", str(gpath), "--solver", s]) for s in ("auto", "pig", "tp", "bip", "oracle")]
    if outs[0][0] == 0:
        (tmp / "auto.json").write_text(outs[0][1], encoding="utf-8")
        outs.append(run(["verify", str(gpath), str(tmp / "auto.json")]))
    wedge = planted_wedge(g)
    if wedge is not None:
        (tmp / "wedge.json").write_text(json.dumps(wedge), encoding="utf-8")
        outs.append(run(["verify", str(gpath), str(tmp / "wedge.json")]))
    outs.append(run(["recognize", str(gpath)]))
    outs.append(run(["incompat", str(gpath)]))
    return outs


def generate_runs(argv: list[str], tmp: Path) -> list[tuple[int, str, str]]:
    outs = [run([a.format(tmp=tmp) for a in argv])]
    side = tmp / "side.txt"
    if side.exists():
        outs.append((0, side.read_text(encoding="utf-8"), ""))
    return outs


def digest(outs: list[tuple[int, str, str]], tmp: Path) -> str:
    h = hashlib.sha256()
    for code, out, err in outs:
        for part in (str(code), out, err):
            h.update(part.replace(str(tmp), "<tmp>").encode() + b"\0")
    return h.hexdigest()


GRAPHS = build_graphs()

# sha256 per case of every run's exit code, stdout and stderr
DIGESTS = {
    'bipartite-0': '1e8cb38bfe976a0b08a71a58796949969c4799cb890ac40ab4a5d5c98ab04933',
    'bipartite-1': '060d8a37bfaabe8cc089021d4e40cf7a3a14cc0d28c48b2122e5fbf9250fbbca',
    'bipartite-2': '6cedda91d7457e0f4e54550388fe9a7d5e1ebae03daba02158a75e466c9f6f38',
    'empty': 'fbc243d28ad8fbe7555ca97e131265ea3a6ba2d90a6317976e344942ff075110',
    'escapes-cycle': 'd94d07ec8624afa2e73ef43384ecd8eb35a5f0d1df303b95c7a5034cbd14c57a',
    'escapes-path': 'e9d751c8f27a4da353ad58fd3f710a5bae38f577214ab80051aa5583695739f9',
    'generate-3sp': 'c50b12dea8e657132b975155e729e21da6eae3e3edbe6ef93e2e07131a47c567',
    'generate-3sp-bad-triplet': 'fdfbc75755f7d1b4a3607769f3769639c8fb5f06ef9732b4e4b55000c19fb60d',
    'generate-pig': 'f66d32868cddbdf077a0d31a8750bf3f8552f28537e193a7aeb43744f2932ec1',
    'generate-stc': '6d283522748cca2e9cc4772a713bcf9892807d9893b4dcf9bc695e5e6d836849',
    'generate-stc-short-triplet': 'e717a2e2a37b057a93cb9b1269231b0c42ba745d739da11009ce6020f1d23565',
    'generate-tp': 'f1034bd14a0c29822ef2b321740934a5fb369d969c0fed6630ece7187ae079a3',
    'isolated': '64a3d967016bc2d9e82f2e99a04e4f0fbbe6e7eb64f5e96a61279948f2803f66',
    'mixed-union': 'b1a8b8a479573353ed4124aee70729fe0339a5a69382473aa7047be8f7cb9bcb',
    'odd-cycle-11': 'e91ce2a02c9e926a336b907dd955ddfd8f628d64f2e08d3fda8bca3856d30d55',
    'odd-cycle-3': 'e4d244acffc8276f4eb02acd4fd127a58e7033714d67a7feba5efde63289baad',
    'odd-cycle-5': 'af66c1e4456b9d5b004df208d5a2abea4d36f23dd596bdc8a2008028b237ec85',
    'odd-cycle-7': 'b65d3056c2380d19b5bf40f2c4a9968dba1a2b0f5b47627649e204ed99980b45',
    'odd-cycle-9': '4f8898c60e0cc3a3309c36dd15a152b8e60d89645d6017bbc9d272bb3082873d',
    'pig-dense-0': '22bebabffe19f9b3961c1d86be7ea1b76be1bebb83eb82b6103271407af1975e',
    'pig-dense-1': '4a614099f19396a305145d644e6d94bcfc378a44069a5a108c6d5c073bd97ed8',
    'pig-dense-2': 'becf5a1a2f5ef819fb9f48fbfdaa65c45dc77c5c71c72a004d73ddcc974fe8f6',
    'pig-union-0': '5c20ec93fd458ba32977065254324032c1254a210336286162e52c89258b3104',
    'pig-union-1': '0cba8f7b1d1105cff3fc393b72d03a323e28bf1681bb1840300b268e32da71af',
    'pig-union-2': 'ef5de03f975afe11d6e56fb4741d676bbba6eeebc09436cb1a99936325ab9e0f',
    'pseudo-split-0': '1f6ac437a0563b5cd6e2b430fe8c7e70191fbfba777746866f6a1364fe55cbd6',
    'pseudo-split-1': '1208058b42077700c097347f98e7de094693c4d9c9ffc435b1ee759e83639fd5',
    'pseudo-split-2': 'f98b4944653baa626a72a06c8c2311b28b2b0b27a5c36854406aafbdd2759bf7',
    'random-0': '6e59ec6994b6ab6955065b4e3b4cb42948e9eff03010cb95e3135adf19bbeb85',
    'random-1': '43a9cf249acc307e6e990b71f6de00df3ea027f55a4de0daa28421ef808a4bda',
    'random-2': '6533170ddda156fbf7862057a14c0ee54ede5cf15d5a551bdf166b6b11754315',
    'random-3': '70af757de9faf1e66a613a0f944e6627a6868f205cd10571f7ce21286631d084',
    'random-4': 'bd235ca6fe4b8572954c7f71c6cdc673493cd98e85c74924e4659396810539e7',
    'random-5': '95f47d197255f60bde04a1fb0d03ff582a48c3bce2a055edf9e2076cf95775c8',
    'random-near-cap': 'e33bbca5c1a137b0133d728f3b04706c68b4c2c3d8cb79ba7410a078d5138c79',
    'random-over-cap': 'be2cd7cd467a31a4168c9a2b1c87f29350ae9ea5f534f3d998e4785a77563b7b',
    'threshold-0': '7a6af27696a85f2aa76643053302612330231b24494cd4c8465ccc2a6798b780',
    'threshold-1': '8795755449d7e9709a2c0fe3fd19d0121b5feb4ddd595c24220335ee9f0e23a1',
    'threshold-2': 'e955b18bfcc54d4b975a638aad93c184fa2e6edc50711f1bf769f2d4d4374183',
    'tp-forest-0': '306765d7ebce72d2e36be1b588f3b9c23e4b2f9d04204bfbc8a3f8ec12b781f4',
    'tp-forest-1': 'c5d2ad89d08bea2cbace95dc6b287c1405a0aa4c21d96d88f985f330b192539a',
    'tp-forest-2': '57cf4692e12752c4e054b14a26091a6cdde522b13df057d69a6f1056cfc0aecd',
    'tp-random-0': 'e12d9c8867f395c3a428acd273051f7dbb7e5f646dfa7201c8f8b73bf150970c',
    'tp-random-1': 'ac85807fc7155afeb7d5329152cf2d45444692439dc02dd3e55067be316d14fa',
    'tp-random-2': '9a5cc6307a0299b850e39e7a5b0186aa02c268c9bdfde0dd15eb050165781f68',
    'twins-0': '5cc678682d889972656bd28fbaeaf5dbeed94ed6b830c9f552172ab054902fcf',
    'twins-1': '4a96ace210abc696a69b2704d8b2c2b525b1832f2688fa5436090ff875a37e45',
    'twins-2': 'e36384c5bed6ac937183f307b703ade8d4383baec03aaaf1553dec8643459057',
}


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_graph_case_output_matches_its_digest(name, tmp_path):
    assert digest(graph_runs(GRAPHS[name], tmp_path), tmp_path) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(GENERATE))
def test_generate_case_output_matches_its_digest(name, tmp_path):
    assert digest(generate_runs(GENERATE[name], tmp_path), tmp_path) == DIGESTS[name]


def test_every_case_has_a_digest():
    assert sorted(DIGESTS) == sorted({**GRAPHS, **GENERATE})


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as d:
        tmp = Path(d)
        for name in sorted({**GRAPHS, **GENERATE}):
            for f in tmp.iterdir():
                f.unlink()
            outs = graph_runs(GRAPHS[name], tmp) if name in GRAPHS else generate_runs(GENERATE[name], tmp)
            sys.stdout.write(f"    {name!r}: {digest(outs, tmp)!r},\n")
