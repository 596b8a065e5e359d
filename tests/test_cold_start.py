"""The package's import path stays free of scipy: only the bpsk
quantized-MAP detector imports it, when it runs."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

ISI_BOUND_CFG = """
[scenario]
name = isi

[design]
channels = 8

[sweep]
grid = 8 16
"""


def _run(code: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, timeout=120, cwd=SRC)


def test_importing_the_package_loads_no_scipy():
    result = _run(
        "import sys\n"
        "import taskquant, taskquant.cli, taskquant.harness, taskquant.scenarios\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "sys.exit(f'scipy modules loaded: {loaded}' if loaded else 0)\n")
    assert result.returncode == 0, result.stderr


def test_bound_runs_without_scipy(tmp_path):
    config = tmp_path / "isi.cfg"
    config.write_text(ISI_BOUND_CFG)
    result = _run(
        "import sys\n"
        "sys.modules['scipy'] = None   # any scipy import now raises ImportError\n"
        "from taskquant import cli\n"
        "sys.exit(cli.main(['bound', '--config', sys.argv[1]]))\n", str(config))
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == "axis,method,metric,estimate,std_error,trials"
    assert len(lines) == 1 + 2
