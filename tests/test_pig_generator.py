"""gen_random_proper_interval scans intervals in order of left endpoint
instead of testing every pair: the same graphs, in time linear in m."""

import time

from oracles import gen_random_proper_interval_reference
from stcsolve import gen_random_proper_interval


def test_sweep_gives_the_pairwise_graph_on_seeds_and_densities():
    for density in (0.0, 0.3, 0.5, 0.8, 1.0):
        for n in (0, 1, 2):
            assert gen_random_proper_interval(n, seed=n, density=density) == (
                gen_random_proper_interval_reference(n, seed=n, density=density)
            )
        for seed in range(60):
            n = 3 + seed % 40
            assert gen_random_proper_interval(n, seed=seed, density=density) == (
                gen_random_proper_interval_reference(n, seed=seed, density=density)
            ), (seed, density)


def test_twenty_thousand_vertices_at_density_point_nine():
    start = time.perf_counter()
    g = gen_random_proper_interval(20_000, seed=0, density=0.9)
    assert time.perf_counter() - start < 3.0
    assert g.n == 20_000 and g.m > 150_000
