import os
import subprocess
import sys

#: the package source, which a child interpreter must be able to import
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_python(*args):
    """Run ``python *args`` in a child interpreter that imports hardycap
    from ``src``; pytest's ``pythonpath`` setting reaches only its own
    process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)
