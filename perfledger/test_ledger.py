#!/usr/bin/env python3
"""Self-test of the ledger benchmark. Run from anywhere:

    python3 perfledger/test_ledger.py

Builds the harness if needed, then runs every workload briefly: once traced
and once untraced, on two different seeds (about two minutes in all).
"""

import json
import os
import re
import shutil
import subprocess
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)


def ledger(workload, seed, trace, cwd=ROOT):
    """Runs the benchmark command; returns (exit code, stdout lines)."""
    command = BENCHMARK["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", "1", "--trace", str(trace)]
    result = subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300,
                            check=False)
    return result.returncode, result.stdout.splitlines()


def declared(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def well_formed(name):
    return NAME.fullmatch(name) is not None


class LedgerSelfTest(unittest.TestCase):
    def test_name_check_rejects_bad_names(self):
        self.assertTrue(well_formed("sched.submit_ns-p50"))
        for bad in ("sched submit", "wall s", "submit!", "_lead", "", "a" * 65):
            self.assertFalse(well_formed(bad), bad)

    def test_declared_names_are_well_formed(self):
        for section in ("workloads", "end_to_end", "per_layer"):
            names = [m["name"] for m in BENCHMARK[section]]
            self.assertEqual(len(names), len(set(names)), section)
            for name in names:
                self.assertTrue(well_formed(name), (section, name))

    def test_every_workload(self):
        for workload in [w["name"] for w in BENCHMARK["workloads"]]:
            with self.subTest(workload=workload):
                code, traced = ledger(workload, 11, 1)
                self.assertEqual(code, 0)
                code, plain = ledger(workload, 12, 0)
                self.assertEqual(code, 0)
                traced_result = json.loads(traced[-1])
                plain_result = json.loads(plain[-1])
                for result in (traced_result, plain_result):
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)

                # Printed names and units are exactly the declared ones.
                for result, section in ((plain_result, "end_to_end"),
                                        (traced_result, "per_layer")):
                    printed = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(printed, declared(section))
                    for name in printed:
                        self.assertTrue(well_formed(name), name)

                # The traced run's report line carries its end-to-end metrics;
                # seed 11 and seed 12 must simulate different runs.
                # (sim_events_per_cpu_s is a host rate, not a simulated value.)
                report = json.loads([l for l in traced if l.startswith("report ")][-1][7:])
                sim = lambda metrics: {k: v["value"] for k, v in metrics.items()
                                       if k.startswith("sim_") and k != "sim_events_per_cpu_s"}
                self.assertTrue(sim(report["end_to_end"]))
                self.assertNotEqual(sim(report["end_to_end"]), sim(plain_result["metrics"]))

    def test_fails_without_the_simulator_sources(self):
        bare = os.path.join(ROOT, ".bench_out", "selftest_bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfledger"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            code, lines = ledger("open_saturation", 1, 0, cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(code, 0)
        self.assertFalse(any(line.startswith("{") for line in lines))


if __name__ == "__main__":
    unittest.main()
