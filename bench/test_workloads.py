"""Self-test of the benchmark's seeded generators: two seeds give different
declaration orders but the same graph sizes and the same answers.

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from spans import Tracer  # noqa: E402

sys.path.insert(0, str(run.SRC))


def one_pass(workload, seed):
    tracer = Tracer(False)
    with tempfile.TemporaryDirectory() as work_dir:
        lib, inputs, _ = run.setup(workload, seed, tracer, work_dir)
        p = run.Pass(lib, inputs, tracer, jobs=1).run()
    orders = [(q.net.places, q.net.transitions) for q in inputs.queries]
    return inputs, p, orders


class SeedChangesOrderNotSize(unittest.TestCase):
    def check_workload(self, workload):
        in_a, a, orders_a = one_pass(workload, 1)
        in_b, b, orders_b = one_pass(workload, 2)
        for inputs, p in ((in_a, a), (in_b, b)):
            self.assertEqual(inputs.failures, [])
            self.assertEqual(p.failed, 0)
            self.assertEqual(p.attempted, len(inputs.queries))
        self.assertEqual(a.answers, b.answers)
        self.assertNotEqual(orders_a, orders_b)

    def test_osc_product(self):
        self.check_workload("osc-product")

    def test_long_delay_clock(self):
        self.check_workload("long-delay-clock")


if __name__ == "__main__":
    unittest.main()
