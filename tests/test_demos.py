import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(os.path.basename(p)
               for p in glob.glob(os.path.join(ROOT, "demos", "*.py")))


def _run_demo(name, hash_seed):
    path = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH"))
        if p)
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", name)],
                          env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return proc.stdout


def test_every_demo_is_collected():
    # an empty glob would leave the parametrized test below with no cases
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_cleanly(name):
    # check=True raises unless the demo exits 0
    assert _run_demo(name, "0")


def test_demo_02_output_does_not_depend_on_string_hashing():
    name = "02_exams_and_black_box_teaching.py"
    assert _run_demo(name, "1") == _run_demo(name, "2")
