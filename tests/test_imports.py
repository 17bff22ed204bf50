import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_package_imports_only_scipy_special():
    # scipy.interpolate would pull in scipy.optimize and scipy.linalg, about
    # 0.25 s and 25 MB at the start of every process
    code = (
        "import sys, phasecap, phasecap.cli\n"
        "print(' '.join(m for m in ('scipy.interpolate', 'scipy.optimize') if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == []
