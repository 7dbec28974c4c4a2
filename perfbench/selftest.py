#!/usr/bin/env python3
"""Proves the benchmark's output checks fire.

    python3 perfbench/selftest.py

Each case plants one fault through run.py --inject and asserts that the
matching check reacts, while a clean run passes every check:

  short-sink  the sink posts 4 buffers under 64 in flight: the engine
              must drop, loss_ratio must be > 0, conservation must hold
  swap-seq    two sequence numbers of one source are exchanged: the
              order check must fail the run
  flip-byte   one body byte changes after checksumming: the checksum
              check must fail the run
  skip-record a traced run leaves one kEngineSend record out of the
              join, so later messages of that buffer get the wrong
              record: the trace check must find the broken stamp order

A last case copies only BENCHMARK.json and the benchmark directory into a
scratch directory and checks that run.py fails there without a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, inject="none", seconds=1.0, trace=0, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(os.path.relpath(HERE, ROOT), "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", str(seconds),
         "--trace", str(trace), "--inject", inject],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=900,
        check=False)
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    return proc.returncode, lines


def checks_of(lines):
    return {name: c["ok"] for name, c in lines[0]["detail"]["checks"].items()}


class ChecksFire(unittest.TestCase):
    def test_clean_run_passes_every_check(self):
        code, lines = run("pingpong")
        self.assertEqual(code, 0)
        self.assertTrue(all(checks_of(lines).values()), checks_of(lines))
        self.assertTrue(lines[-1]["correct"])
        self.assertEqual(lines[-1]["failed"], 0)

    def test_short_sink_loses_messages_but_conserves(self):
        code, lines = run("stream", "short-sink")
        checks = checks_of(lines)
        loss = lines[0]["detail"]["figures"]["loss_ratio"]["value"]
        self.assertGreater(loss, 0)
        self.assertGreater(lines[-1]["failed"], 0)
        self.assertTrue(checks["run.conservation"])
        self.assertTrue(checks["run.drops_match_engine"])
        self.assertTrue(checks["run.telemetry_audit"])
        self.assertEqual(code, 0)

    def test_swapped_sequence_trips_order_check(self):
        code, lines = run("pingpong", "swap-seq")
        checks = checks_of(lines)
        self.assertFalse(checks["run.order"])
        self.assertTrue(checks["run.checksum"])
        self.assertFalse(lines[-1]["correct"])
        self.assertEqual(code, 1)

    def test_flipped_byte_trips_checksum(self):
        code, lines = run("pingpong", "flip-byte")
        checks = checks_of(lines)
        self.assertFalse(checks["run.checksum"])
        self.assertTrue(checks["run.order"])
        self.assertFalse(lines[-1]["correct"])
        self.assertEqual(code, 1)

    def test_clean_traced_run_joins_every_record(self):
        code, lines = run("stream", seconds=2.0, trace=1)
        self.assertEqual(code, 0)
        self.assertTrue(all(checks_of(lines).values()), checks_of(lines))

    def test_skipped_record_trips_trace_check(self):
        code, lines = run("pingpong", "skip-record", seconds=2.0, trace=1)
        checks = checks_of(lines)
        detail = lines[0]["detail"]["checks"]["traced.trace_complete"]["detail"]
        self.assertFalse(checks["traced.trace_complete"])
        self.assertNotIn("disordered=0 ", detail)
        self.assertTrue(checks["traced.order"])
        self.assertFalse(lines[-1]["correct"])
        self.assertEqual(code, 1)

    def test_fails_without_the_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
        proc = subprocess.run(
            [sys.executable, os.path.join(os.path.basename(HERE), "run.py"), "--workload",
             "pingpong", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            timeout=180, check=False)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main(verbosity=2)
