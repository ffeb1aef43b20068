"""tools/rss.py: one tree's RSS rise against the op count, in a fresh interpreter."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_prints_the_rise_at_each_op_count():
    command = [sys.executable, str(ROOT / "tools" / "rss.py"), str(ROOT), "--workload", "exact", "--ops", "3"]
    done = subprocess.run(command, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    header, *rows = done.stdout.splitlines()
    assert re.fullmatch(r".* exact seed 7: \d+\.\d\d MiB after the warm-up op", header)
    counts = [int(re.fullmatch(r" *(\d+) ops: \+\d+\.\d\d MiB", row).group(1)) for row in rows]
    assert counts == [1, 2, 3]


def test_refuses_an_empty_run():
    command = [sys.executable, str(ROOT / "tools" / "rss.py"), str(ROOT), "--ops", "0"]
    done = subprocess.run(command, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert "--ops must be at least 1" in done.stderr


def test_a_failed_check_is_printed_and_exits_1(tmp_path):
    # a tree whose workload fails its pooled check
    (tmp_path / "src" / "qotlab").mkdir(parents=True)
    (tmp_path / "src" / "qotlab" / "__init__.py").write_text("")
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "workloads.py").write_text(
        "class Failing:\n"
        "    problems = []\n"
        "    def op(self, seed):\n"
        "        return seed\n"
        "    def check(self, out):\n"
        "        pass\n"
        "    def finish(self):\n"
        "        self.problems.append('exact: pooled check failed')\n"
        "def make(name):\n"
        "    return Failing()\n"
        "def op_seed(seed, index):\n"
        "    return seed + index\n"
    )
    command = [sys.executable, str(ROOT / "tools" / "rss.py"), str(tmp_path), "--ops", "2"]
    done = subprocess.run(command, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1
    assert done.stdout.splitlines()[-1] == "CHECK FAIL: exact: pooled check failed"
