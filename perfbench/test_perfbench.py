"""Checks of the benchmark itself (not of the library).

Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import garside  # noqa: E402
from garside import lattice, parabolic  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402
from worker import load_recorded  # noqa: E402


class TracerSeesIndirectCalls(unittest.TestCase):
    def setUp(self):
        self.ctx = garside.context_from_token("A3")
        self.rec = tracer.install()
        self.addCleanup(self.rec.uninstall)

    def test_intersect_reaches_closure_through_lattice_binding(self):
        P = garside.ParabolicSubgroup.standard(self.ctx, {0, 1})
        Q = garside.ParabolicSubgroup.standard(self.ctx, {1, 2})
        garside.intersect(P, Q, 3)
        m = self.rec.metrics()
        self.assertGreater(m["parabolic.closure_calls"], 0)
        self.assertGreater(m["parabolic.contains_element_calls"], 0)
        self.assertGreater(m["lattice.intersect_s"], 0)
        self.assertGreater(m["lattice.signed_ball_s"], 0)
        self.assertGreater(m["lattice.candidates_examined"], 0)

    def test_constructor_reaches_normalize(self):
        g = self.ctx.gens
        garside.GroupElement(self.ctx, 0, (g[0], g[1], g[0]))
        m = self.rec.metrics()
        self.assertEqual(m["elements.normalize_calls"], 1)
        self.assertEqual(m["elements.normalize_factors_in"], 3)
        self.assertGreater(m["coxeter.w_mul_calls"], 0)
        self.assertGreater(m["elements.w_mul_per_factor"], 0)

    def test_closure_without_positive_conjugate_is_counted(self):
        u = garside.parse_word(self.ctx, "s1 s2^-1")
        garside.parabolic_closure(u)
        m = self.rec.metrics()
        self.assertEqual(m["parabolic.closure_calls"], 1)
        self.assertEqual(m["parabolic.closure_i_infinity_share"], 1.0)
        self.assertEqual(m["conjugacy.i_infinity_calls"], 1)
        self.assertGreater(m["conjugacy.n_star_mean"], 1)

    def test_summit_graph_member_tests(self):
        u = garside.parse_word(self.ctx, "s1 s2")
        graph = garside.compute_summit_graph(u, garside.SummitKind.USS)
        m = self.rec.metrics()
        self.assertEqual(m["conjugacy.minimal_conjugators_calls"], len(graph.vertices))
        self.assertGreater(m["conjugacy.member_tests_per_vertex"], 0)
        self.assertGreater(m["conjugacy.label_yield"], 0)

    def test_uninstall_restores_every_binding(self):
        self.rec.uninstall()
        self.assertIs(lattice.parabolic_closure, parabolic.parabolic_closure)
        self.assertIs(garside.parabolic_closure, parabolic.parabolic_closure)
        self.assertFalse(hasattr(parabolic.parabolic_closure, "__wrapped__"))
        self.assertFalse(hasattr(garside.GroupElement.__mul__, "__wrapped__"))


class InputShape(unittest.TestCase):
    def shapes(self, wl, n):
        """Shapes of the first n cases that seeds 1 and 2 visit."""
        recorded = load_recorded(wl.name)
        pool = wl.pool()
        out = []
        for seed in (1, 2):
            stream = wl.stream(seed)
            indices = [next(stream) for _ in range(n)]
            out.append(workloads.shape(wl, pool, indices, recorded["attrs"]))
        return out

    def test_second_seed_gives_same_shape(self):
        for wl in workloads.WORKLOADS.values():
            with self.subTest(workload=wl.name):
                a, b = self.shapes(wl, len(wl.specs) * wl.rounds)  # one pass
                self.assertEqual(a, b)
                a, b = self.shapes(wl, len(wl.specs) * wl.rounds * 3 // 2)  # 1.5 passes
                self.assertAlmostEqual(a["mean_canonical_length"], b["mean_canonical_length"],
                                       delta=0.1 * a["mean_canonical_length"])
                for key in ("groups", "commands", "kinds", "N", "i_infinity_share"):
                    x, y = a.get(key, {}), b.get(key, {})
                    if isinstance(x, float):
                        x, y = {"": x}, {"": y}
                    for k in set(x) | set(y):
                        self.assertAlmostEqual(x.get(k, 0), y.get(k, 0), delta=0.05)

    def test_recorded_digests_match_generated_pools(self):
        for wl in workloads.WORKLOADS.values():
            with self.subTest(workload=wl.name):
                recorded = load_recorded(wl.name)
                self.assertEqual(recorded["pool_sha"], workloads.pool_sha(wl.pool()))
                self.assertEqual(len(recorded["digests"]), len(wl.specs) * wl.rounds)


if __name__ == "__main__":
    unittest.main()
